package obs

import (
	"strings"
	"testing"
	"time"

	"composable/internal/sim"
)

func TestSamplerSamplesAtInterval(t *testing.T) {
	env := sim.NewEnv()
	var reg Registry
	v := 0.0
	reg.Gauge("x", func() float64 { v += 1; return v })
	smp := NewSampler(env, &reg, 100*time.Millisecond)
	smp.Start()
	env.Go("stopper", func(p *sim.Proc) {
		p.Sleep(1050 * time.Millisecond)
		smp.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	s := smp.Series("x")
	if s.Len() != 10 {
		t.Fatalf("samples = %d, want 10", s.Len())
	}
	if s.Times[0] != 100*time.Millisecond {
		t.Fatalf("first sample at %v", s.Times[0])
	}
}

// ramp builds a series sampled once a second from vals.
func ramp(name string, vals ...float64) *Series {
	s := &Series{Name: name, Values: vals}
	for i := range vals {
		s.Times = append(s.Times, time.Duration(i)*time.Second)
	}
	return s
}

func TestSeriesStats(t *testing.T) {
	s := ramp("t", 1, 5, 3, 2, 4)
	if s.Mean() != 3 {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.Max() != 5 || s.Min() != 1 {
		t.Errorf("max/min = %v/%v", s.Max(), s.Min())
	}
	if p := s.Percentile(50); p != 3 {
		t.Errorf("p50 = %v", p)
	}
	if p := s.Percentile(100); p != 5 {
		t.Errorf("p100 = %v", p)
	}
}

func TestEmptySeriesSafe(t *testing.T) {
	s := &Series{Name: "empty"}
	if s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 || s.Percentile(50) != 0 {
		t.Error("empty series stats should be zero")
	}
	if s.Sparkline(10) != "" {
		t.Error("empty sparkline should be empty")
	}
}

func TestSparklineShape(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := ramp("ramp", vals...)
	sp := []rune(s.Sparkline(10))
	if len(sp) != 10 {
		t.Fatalf("width = %d", len(sp))
	}
	// A ramp renders monotonically non-decreasing glyphs.
	for i := 1; i < len(sp); i++ {
		if sp[i] < sp[i-1] {
			t.Fatalf("sparkline not monotonic for ramp: %q", string(sp))
		}
	}
	// Constant series renders without dividing by zero.
	c := ramp("const", 7, 7, 7, 7, 7, 7, 7, 7, 7, 7)
	if got := c.Sparkline(5); len([]rune(got)) != 5 {
		t.Fatalf("constant sparkline = %q", got)
	}
}

func TestSeriesCSV(t *testing.T) {
	s := &Series{Name: "gpu", Times: []sim.Time{time.Second}, Values: []float64{0.5}}
	out := s.CSV()
	if !strings.HasPrefix(out, "time_s,gpu\n") {
		t.Fatalf("csv header: %q", out)
	}
	if !strings.Contains(out, "1.000,0.500000") {
		t.Fatalf("csv row missing: %q", out)
	}
}

func TestSamplerNames(t *testing.T) {
	env := sim.NewEnv()
	var reg Registry
	reg.Gauge("a", func() float64 { return 0 })
	reg.Gauge("b", func() float64 { return 0 })
	smp := NewSampler(env, &reg, time.Second)
	smp.Start()
	names := smp.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	if smp.Series("nope") != nil {
		t.Fatal("unknown series should be nil")
	}
	// A metric registered after Start is not a sampled column.
	reg.Gauge("late", func() float64 { return 0 })
	if smp.Series("late") != nil || len(smp.Names()) != 2 {
		t.Fatalf("late metric sampled: names = %v", smp.Names())
	}
}

func TestTrackRecordAndKinds(t *testing.T) {
	tr := NewTrack("faults")
	tr.Record(time.Second, "fault", "gpu[3]")
	tr.Record(2*time.Second, "kill", "job 0")
	tr.Record(3*time.Second, "repair", "gpu[3]")
	tr.Record(4*time.Second, "fault", "host[1]")
	if tr.Len() != 4 {
		t.Fatalf("len = %d", tr.Len())
	}
	kinds := tr.Kinds()
	want := []string{"fault", "kill", "repair"}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
}

// TestTrackRecord pins a freshly made track: it keeps its name and the
// recorded event exactly as written.
func TestTrackRecord(t *testing.T) {
	tr := NewTrack("events")
	tr.Record(time.Second, "checkpoint", "w")
	if tr.Name != "events" {
		t.Fatalf("name = %q", tr.Name)
	}
	if tr.Len() != 1 || tr.Events[0] != (TrackEvent{At: time.Second, Kind: "checkpoint", Label: "w"}) {
		t.Fatalf("events = %+v", tr.Events)
	}
}

func TestTrackCSV(t *testing.T) {
	tr := NewTrack("faults")
	tr.Record(1500*time.Millisecond, "fault", "gpu[3], drawer 0")
	csv := tr.CSV()
	if !strings.HasPrefix(csv, "time_s,faults_kind,label\n") {
		t.Fatalf("bad header: %q", csv)
	}
	if !strings.Contains(csv, "1.500,fault,gpu[3]; drawer 0") {
		t.Fatalf("bad row (commas must not break the format): %q", csv)
	}
}

func TestTrackTimeline(t *testing.T) {
	tr := NewTrack("faults")
	tr.Record(0, "fault", "")
	tr.Record(5*time.Second, "kill", "")
	tr.Record(5*time.Second, "repair", "")
	tr.Record(10*time.Second, "repair", "")
	line := tr.Timeline(10, 10*time.Second)
	if len([]rune(line)) != 10 {
		t.Fatalf("timeline width %d, want 10: %q", len([]rune(line)), line)
	}
	runes := []rune(line)
	if runes[0] != 'f' {
		t.Errorf("t=0 marker %q, want 'f'", runes[0])
	}
	if runes[5] != '*' {
		t.Errorf("colliding kinds at mid marker %q, want '*'", runes[5])
	}
	if runes[9] != 'r' {
		t.Errorf("end marker %q, want 'r'", runes[9])
	}
	if tr.Timeline(0, time.Second) != "" || tr.Timeline(10, 0) != "" {
		t.Error("degenerate timelines should be empty")
	}
}

// record drives one deterministic simulated recording and renders every
// series and track output format.
func record(t *testing.T) (csv, spark, trackCSV, timeline string) {
	t.Helper()
	env := sim.NewEnv()
	var reg Registry
	v := 0.0
	reg.Gauge("util", func() float64 { v += 7; return float64(int(v*13) % 97) })
	smp := NewSampler(env, &reg, 50*time.Millisecond)
	tr := NewTrack("events")
	smp.Start()
	env.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(90 * time.Millisecond)
			kind := "tick"
			if i%3 == 0 {
				kind = "mark"
			}
			tr.Record(p.Now(), kind, "step")
		}
		smp.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	s := smp.Series("util")
	return s.CSV(), s.Sparkline(40), tr.CSV(), tr.Timeline(60, time.Second)
}

// TestRenderedOutputIsRunStable pins run-twice byte identity of the
// rendered-output paths: two identical simulated recordings must render
// byte-identical CSV, sparkline and timeline artifacts.
func TestRenderedOutputIsRunStable(t *testing.T) {
	csv1, spark1, track1, tl1 := record(t)
	csv2, spark2, track2, tl2 := record(t)
	if csv1 != csv2 {
		t.Errorf("Series.CSV differs between identical runs:\n--- run 1\n%s\n--- run 2\n%s", csv1, csv2)
	}
	if spark1 != spark2 {
		t.Errorf("Sparkline differs between identical runs: %q vs %q", spark1, spark2)
	}
	if track1 != track2 {
		t.Errorf("Track.CSV differs between identical runs:\n--- run 1\n%s\n--- run 2\n%s", track1, track2)
	}
	if tl1 != tl2 {
		t.Errorf("Timeline differs between identical runs:\n%q\nvs\n%q", tl1, tl2)
	}
	if csv1 == "" || track1 == "" {
		t.Fatal("sanity: rendered artifacts are empty")
	}
}
