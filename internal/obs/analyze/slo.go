package analyze

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Threshold is one parsed SLO clause: a metric, a comparison, and a
// bound. Duration metrics compare durations; scalar metrics compare
// floats.
type Threshold struct {
	Metric string // canonical metric key, e.g. "p99-wait", "goodput"
	Op     string // "<=" (ceiling) or ">=" (floor)
	Dur    time.Duration
	Val    float64
	IsDur  bool
	Raw    string // the clause as written
}

// SLO is a parsed set of declarative objectives, evaluated in clause
// order.
type SLO struct {
	Checks []Threshold
	Source string // the original spec text
}

// Empty reports whether no clauses were configured.
func (s SLO) Empty() bool { return len(s.Checks) == 0 }

// Duration-valued SLO metrics: a percentile over one of the three
// histograms. Scalar metrics (goodput, util, max-failed, max-kills)
// come from FleetStats or the attribution itself.
var durMetrics = map[string]bool{
	"p50-wait": true, "p90-wait": true, "p99-wait": true,
	"p50-latency": true, "p90-latency": true, "p99-latency": true,
	"p50-compose": true, "p90-compose": true, "p99-compose": true,
}

var scalarMetrics = map[string]bool{
	"goodput": true, "util": true, "max-failed": true, "max-kills": true,
}

// ParseSLO parses a declarative SLO spec: whitespace- or
// comma-separated clauses of the form metric<=bound or metric>=bound.
//
//	p99-wait<=800ms p50-latency<=90s goodput>=2.5 util>=0.4 max-failed<=0
//
// Duration bounds use Go duration syntax; goodput is delivered
// GPU-seconds per second of makespan; util is the 0..1 fleet
// utilization; max-failed / max-kills bound abandoned jobs and kill
// events. "utilization" is accepted as an alias for "util". Scalar
// bounds must be finite: NaN or ±Inf would make a clause that always
// fails or always passes, so they are an error.
func ParseSLO(spec string) (SLO, error) {
	slo := SLO{Source: strings.TrimSpace(spec)}
	fields := strings.FieldsFunc(spec, func(r rune) bool {
		return r == ' ' || r == ',' || r == '\t' || r == '\n'
	})
	for _, f := range fields {
		op := ""
		i := strings.Index(f, "<=")
		if i < 0 {
			i = strings.Index(f, ">=")
		}
		if i < 0 {
			return SLO{}, fmt.Errorf("slo clause %q: want metric<=bound or metric>=bound", f)
		}
		op = f[i : i+2]
		metric, bound := strings.ToLower(strings.TrimSpace(f[:i])), strings.TrimSpace(f[i+2:])
		if metric == "utilization" {
			metric = "util"
		}
		if metric == "failed" {
			metric = "max-failed"
		}
		if metric == "kills" {
			metric = "max-kills"
		}
		th := Threshold{Metric: metric, Op: op, Raw: f}
		switch {
		case durMetrics[metric]:
			d, err := time.ParseDuration(bound)
			if err != nil {
				return SLO{}, fmt.Errorf("slo clause %q: bad duration %q: %v", f, bound, err)
			}
			th.IsDur, th.Dur = true, d
		case scalarMetrics[metric]:
			v, err := strconv.ParseFloat(bound, 64)
			if err != nil {
				return SLO{}, fmt.Errorf("slo clause %q: bad number %q: %v", f, bound, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return SLO{}, fmt.Errorf("slo clause %q: bound %q is not a finite number", f, bound)
			}
			th.Val = v
		default:
			return SLO{}, fmt.Errorf("slo clause %q: unknown metric %q", f, metric)
		}
		slo.Checks = append(slo.Checks, th)
	}
	return slo, nil
}

// FleetStats carries run-level metrics the trace alone cannot supply:
// goodput and utilization need GPU counts per job, which spans do not
// record. Known=false marks trace-file-only analysis; SLO clauses on
// these metrics are then reported skipped rather than failed.
type FleetStats struct {
	Goodput     float64 `json:"goodput"`
	Utilization float64 `json:"utilization"`
	Known       bool    `json:"-"`
}

// Check is one evaluated SLO clause.
type Check struct {
	Clause  string `json:"clause"`
	Actual  string `json:"actual"`
	Pass    bool   `json:"pass"`
	Skipped bool   `json:"skipped,omitempty"`
}

// HealthReport is the machine-readable SLO verdict.
type HealthReport struct {
	Healthy bool    `json:"healthy"`
	Passed  int     `json:"passed"`
	Failed  int     `json:"failed"`
	Skipped int     `json:"skipped"`
	Checks  []Check `json:"checks"`
}

// Evaluate scores the SLO against an analysis. Skipped checks (metric
// unavailable without FleetStats) do not count against health.
func Evaluate(slo SLO, a *Analysis, stats FleetStats) *HealthReport {
	rep := &HealthReport{Healthy: true}
	for _, th := range slo.Checks {
		c := Check{Clause: th.Raw}
		if th.IsDur {
			actual := durMetric(th.Metric, a)
			c.Actual = actual.String()
			c.Pass = cmpDur(actual, th.Op, th.Dur)
		} else {
			var actual float64
			known := true
			switch th.Metric {
			case "goodput":
				actual, known = stats.Goodput, stats.Known
			case "util":
				actual, known = stats.Utilization, stats.Known
			case "max-failed":
				actual = float64(a.FailedJobs())
			case "max-kills":
				actual = float64(totalKills(a))
			}
			if !known {
				c.Skipped = true
				c.Actual = "n/a (trace-only analysis)"
			} else {
				c.Actual = strconv.FormatFloat(actual, 'g', -1, 64)
				c.Pass = cmpF(actual, th.Op, th.Val)
			}
		}
		switch {
		case c.Skipped:
			rep.Skipped++
		case c.Pass:
			rep.Passed++
		default:
			rep.Failed++
			rep.Healthy = false
		}
		rep.Checks = append(rep.Checks, c)
	}
	return rep
}

// durMetric resolves a percentile metric key against the histograms.
func durMetric(metric string, a *Analysis) time.Duration {
	var h *Histogram
	switch {
	case strings.HasSuffix(metric, "-wait"):
		h = a.Wait
	case strings.HasSuffix(metric, "-latency"):
		h = a.Latency
	case strings.HasSuffix(metric, "-compose"):
		h = a.Compose
	default:
		return 0
	}
	switch metric[:3] {
	case "p50":
		return h.P50()
	case "p90":
		return h.P90()
	default:
		return h.P99()
	}
}

func totalKills(a *Analysis) int {
	n := 0
	for i := range a.Jobs {
		n += a.Jobs[i].Kills
	}
	return n
}

func cmpDur(actual time.Duration, op string, bound time.Duration) bool {
	if op == "<=" {
		return actual <= bound
	}
	return actual >= bound
}

func cmpF(actual float64, op string, bound float64) bool {
	if op == "<=" {
		return actual <= bound
	}
	return actual >= bound
}
