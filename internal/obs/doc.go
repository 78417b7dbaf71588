// Package obs is the simulator's observability layer: sim-time-native
// span tracing, sampled metrics, and deterministic exporters, built for
// the same two contracts the rest of the repo lives under.
//
// Metrics live in a [Registry] (counters and gauges, in registration
// order). [Sampler] is the one periodic sampler, the stand-in for the
// paper's probe sweeps (wandb system metrics, nvidia-smi, the Falcon
// port monitors): a sim stepper that, every interval, snapshots every
// metric into columnar rows — one shared times column plus one value
// column per metric. A [Collector] samples the fleet-wide registry with
// one; each training run samples its five probes with its own.
// [Sampler.Series] returns a [Series] view of one metric (stats,
// Sparkline, CSV), the data behind the utilization figures. A [Track]
// is an annotated event lane (checkpoints, faults, kills) with CSV and
// an ASCII Timeline; the instrumented code records into it directly, so
// it works with or without a Collector.
//
// Determinism: nothing in this package reads the wall clock or iterates a
// map. Spans are stored in begin order, metrics in registration order, and
// samples on a fixed sim-time interval, so every exporter —
// Chrome trace_event JSON ([Collector.WriteTrace], loadable in Perfetto or
// chrome://tracing with sim time mapped to microseconds), metrics CSV
// ([Collector.WriteMetricsCSV]) and the ASCII run summary
// ([Collector.Summary]) — emits byte-identical output for byte-identical
// runs. The run-twice CLI tests and the golden trace test pin this.
//
// Zero overhead when off: every instrumented seam in sim, fabric, train,
// orchestrator and faults guards its emit with a nil check
// (`if c != nil { c.Begin(...) }`), so a disabled collector costs one
// predictable branch and no allocations — the AllocsPerRun gates in
// internal/perfbench run the instrumented code with a nil collector and
// hold the pre-instrumentation ceilings. The guarded-call pattern itself
// is pinned as a simlint hotalloc golden package (testdata/src/obsguard).
package obs
