package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"composable/internal/scengen"
)

// corrupting wraps a workload, shrinks it to two inputs and flips one
// byte of the output of op number at.
type corrupting struct {
	workload
	at, ops int
}

func (c *corrupting) inputs() int { return 2 }

func (c *corrupting) op(k int, ph *phases) (opOut, error) {
	out, err := c.workload.op(k, ph)
	c.ops++
	if err == nil && c.ops == c.at {
		out.out = append([]byte(nil), out.out...)
		out.out[len(out.out)/2] ^= 1
	}
	return out, err
}

func TestCorruptedOutputCountsAsError(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		at := 0
		if corrupt {
			at = 2 // op 1 is the warm-up; op 2 reruns its input 0
		}
		newW := func(cfg config) workload { return &corrupting{workload: newFleetChaos(cfg), at: at} }
		res, err := measure(newW, config{Seed: 7, Budget: 200 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.print(&buf, "fleet-chaos")
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		wantFailed := 0
		if corrupt {
			wantFailed = 1
		}
		if last.Failed != wantFailed || last.Correct == corrupt || last.Attempted < 2 {
			t.Errorf("corrupt=%v: got %+v, want %d failed", corrupt, last, wantFailed)
		}
		if corrupt != !strings.Contains(buf.String(), "errors_frac                                   0 frac") {
			t.Errorf("corrupt=%v: errors_frac line wrong:\n%s", corrupt, buf.String())
		}
	}
}

func TestCheckFleetCatchesUnaccountedJobs(t *testing.T) {
	s := int64(3)
	fleet := scengen.PodFleetFromSeed(s)
	sc := scengen.SanitizeFaults(scengen.FaultScenario{Fleet: fleet, Plan: scengen.PlanForFleet(s, fleet)})
	out, err := scengen.RunFaultyFleet(sc)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Result
	if err := checkFleet(res, len(sc.Fleet.Jobs), true); err != nil {
		t.Fatalf("clean run fails the check: %v", err)
	}
	lost := *res
	lost.Jobs = lost.Jobs[:len(lost.Jobs)-1]
	if err := checkFleet(&lost, len(sc.Fleet.Jobs), true); !errors.Is(err, errCheck) {
		t.Errorf("a missing job passed the check: %v", err)
	}
	late := *res
	late.Jobs = append(late.Jobs[:0:0], res.Jobs...)
	late.Jobs[0].Finished = res.Makespan + time.Second
	late.Jobs[0].Failed = false
	if err := checkFleet(&late, len(sc.Fleet.Jobs), true); !errors.Is(err, errCheck) {
		t.Errorf("a job finishing after the makespan passed the check: %v", err)
	}
}

// rewriting rewrites one substring of every response body.
type rewriting struct {
	next     http.RoundTripper
	old, new string
}

func (r rewriting) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := r.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(bytes.ReplaceAll(body, []byte(r.old), []byte(r.new))))
	return resp, nil
}

func TestMCSDCycleChecksResponses(t *testing.T) {
	w := newMCSDCycle(config{Seed: 2}).(*mcsdCycle)
	defer w.close()
	if _, err := warmUp(w); err != nil {
		t.Fatalf("clean cycle: %v", err)
	}
	if err := w.prepare(0); err != nil {
		t.Fatal(err)
	}
	w.client.Transport = rewriting{next: w.transport, old: `"ran":12`, new: `"ran":11`}
	if _, err := w.op(0, &phases{}); !errors.Is(err, errCheck) {
		t.Errorf("a drain that ran fewer jobs than submitted passed: %v", err)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []m, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, layerMetrics)
}

func TestTableIVErrPct(t *testing.T) {
	got, err := tableIVErrPct()
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 || got > 50 {
		t.Errorf("Table IV error %g%% outside (0, 50]", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.9, 5}, {0.2, 1}, {0.99, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestHostRefCorrectsBySpeedAroundTheSample pins the host-speed
// correction: a time is divided by the median reference slowdown within
// refWindow of its instant, and at least refMinSamples samples are used.
func TestHostRefCorrectsBySpeedAroundTheSample(t *testing.T) {
	nom := refNominal.Seconds()
	h := &hostRef{}
	// A quiet first 10 s, then a burst that runs 1.5× slower.
	for at := 0.0; at < 20; at += 0.25 {
		took := nom
		if at >= 10 {
			took = 1.5 * nom
		}
		h.at, h.took = append(h.at, at), append(h.took, took)
	}
	if got := h.slowdown(2); got != 1 {
		t.Errorf("slowdown in the quiet part = %v, want 1", got)
	}
	if got := h.slowdown(18); got != 1.5 {
		t.Errorf("slowdown in the burst = %v, want 1.5", got)
	}
	if got := h.correct(18, 300*time.Millisecond); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("0.3 s measured in the burst corrects to %v s, want 0.2", got)
	}
	// Far past the last sample, the nearest refMinSamples are used.
	if got := h.slowdown(100); got != 1.5 {
		t.Errorf("slowdown after the last sample = %v, want 1.5", got)
	}
}
