package analyze

import (
	"math"
	"testing"
	"time"
)

// TestParseMicros pins the exact inverse of the exporter's appendMicros
// rendering: integer microseconds with an optional three-digit
// fractional part, no float round trip.
func TestParseMicros(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"0", 0},
		{"1", time.Microsecond},
		{"1.5", 1500 * time.Nanosecond},
		{"1.500", 1500 * time.Nanosecond},
		{"123.456", 123456 * time.Nanosecond},
		{"1000000", time.Second},
		{"999999.999", time.Second - time.Nanosecond},
		{"9223372036854775.807", math.MaxInt64},
		{"", 0},
	}
	for _, c := range cases {
		got, err := parseMicros(c.in)
		if err != nil {
			t.Errorf("parseMicros(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseMicros(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := parseMicros("1.2345"); err == nil {
		t.Error("sub-nanosecond fraction should be rejected, got nil error")
	}
	if _, err := parseMicros("abc"); err == nil {
		t.Error("garbage timestamp should be rejected, got nil error")
	}
	for _, in := range []string{"9300000000000000", "9223372036854775.808", "-9223372036854776"} {
		if _, err := parseMicros(in); err == nil {
			t.Errorf("parseMicros(%q): overflow should be rejected, got nil error", in)
		}
	}
}

// TestHistogramPercentiles pins nearest-rank semantics: the percentile
// is an actual recorded value, exact for whole-number percentiles.
func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram("t")
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	if got := h.P50(); got != 50*time.Millisecond {
		t.Errorf("P50 = %v, want 50ms", got)
	}
	if got := h.P90(); got != 90*time.Millisecond {
		t.Errorf("P90 = %v, want 90ms", got)
	}
	if got := h.P99(); got != 99*time.Millisecond {
		t.Errorf("P99 = %v, want 99ms", got)
	}
	if got := h.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("P100 = %v, want 100ms", got)
	}
	if got := h.Min(); got != time.Millisecond {
		t.Errorf("Min = %v, want 1ms", got)
	}

	// Small n: p99 of 3 values is the max (ceil(0.99*3) = 3).
	s := NewHistogram("s")
	s.Add(time.Second)
	s.Add(2 * time.Second)
	s.Add(3 * time.Second)
	if got := s.P99(); got != 3*time.Second {
		t.Errorf("P99 of 3 values = %v, want 3s", got)
	}
	if got := s.P50(); got != 2*time.Second {
		t.Errorf("P50 of 3 values = %v, want 2s", got)
	}

	empty := NewHistogram("e")
	if got := empty.P99(); got != 0 {
		t.Errorf("P99 of empty = %v, want 0", got)
	}
}

// TestHistogramBuckets pins the fixed log₂ bucket layout.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    time.Duration
		want int
	}{
		{0, 0},
		{999 * time.Microsecond, 0},
		{time.Millisecond, 1},
		{1999 * time.Microsecond, 1},
		{2 * time.Millisecond, 2},
		{3 * time.Millisecond, 2},
		{4 * time.Millisecond, 3},
		{time.Second, 10},
		{365 * 24 * time.Hour, 35},
	}
	for _, c := range cases {
		if got := histBucket(c.v); got != c.want {
			t.Errorf("histBucket(%v) = %d, want %d", c.v, got, c.want)
		}
		lo, hi := BucketBounds(histBucket(c.v))
		if c.v < lo || c.v >= hi {
			t.Errorf("value %v outside its bucket bounds [%v, %v)", c.v, lo, hi)
		}
	}
}

// TestParseSLO covers syntax, aliases and rejection.
func TestParseSLO(t *testing.T) {
	slo, err := ParseSLO("p99-wait<=800ms, goodput>=2.5 utilization>=0.4\nmax-failed<=0")
	if err != nil {
		t.Fatal(err)
	}
	if len(slo.Checks) != 4 {
		t.Fatalf("got %d checks, want 4", len(slo.Checks))
	}
	if c := slo.Checks[0]; !c.IsDur || c.Dur != 800*time.Millisecond || c.Op != "<=" {
		t.Errorf("clause 0 parsed wrong: %+v", c)
	}
	if c := slo.Checks[2]; c.Metric != "util" || c.Val != 0.4 {
		t.Errorf("utilization alias parsed wrong: %+v", c)
	}
	if c := slo.Checks[3]; c.Metric != "max-failed" || c.Val != 0 {
		t.Errorf("max-failed parsed wrong: %+v", c)
	}

	for _, bad := range []string{"p99-wait<800ms", "nope<=1s", "p99-wait<=fast", "goodput>=abc",
		"goodput>=NaN", "max-failed<=+Inf", "util>=-inf", "kills<=infinity", "goodput>=1e400"} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q): want error, got nil", bad)
		}
	}
	if s, err := ParseSLO("   "); err != nil || !s.Empty() {
		t.Errorf("blank spec: want empty SLO, got %+v, %v", s, err)
	}
}

// TestEvaluateSkipsUnknownStats pins trace-file-only behavior: goodput
// and util clauses are skipped (not failed) without FleetStats, and
// skipped checks never flip health.
func TestEvaluateSkipsUnknownStats(t *testing.T) {
	a := &Analysis{
		Wait:    NewHistogram("wait"),
		Latency: NewHistogram("latency"),
		Compose: NewHistogram("compose"),
	}
	a.Wait.Add(100 * time.Millisecond)
	a.Latency.Add(2 * time.Second)

	slo, err := ParseSLO("p99-wait<=1s goodput>=100 util>=0.99")
	if err != nil {
		t.Fatal(err)
	}
	rep := Evaluate(slo, a, FleetStats{})
	if !rep.Healthy || rep.Passed != 1 || rep.Skipped != 2 || rep.Failed != 0 {
		t.Fatalf("trace-only report = %+v, want healthy with 1 pass / 2 skipped", rep)
	}

	rep = Evaluate(slo, a, FleetStats{Goodput: 1, Utilization: 0.5, Known: true})
	if rep.Healthy || rep.Failed != 2 {
		t.Fatalf("with stats known, impossible floors must fail: %+v", rep)
	}
}

// TestPathString pins the compressed critical-path rendering.
func TestPathString(t *testing.T) {
	path := []Segment{
		{BucketWait, 0, time.Second},
		{BucketCompose, time.Second, time.Second + 100*time.Millisecond},
		{BucketCompute, time.Second + 100*time.Millisecond, 2 * time.Second},
		{BucketCompute, 2 * time.Second, 3 * time.Second},
		{BucketWinddown, 3 * time.Second, 3500 * time.Millisecond},
	}
	got := PathString(path)
	want := "wait 1s → compose 100ms → compute 1.9s → winddown 500ms"
	if got != want {
		t.Errorf("PathString = %q, want %q", got, want)
	}
	if got := PathString(nil); got != "" {
		t.Errorf("PathString(nil) = %q, want empty", got)
	}
}
