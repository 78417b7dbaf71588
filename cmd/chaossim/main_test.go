package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func capture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestBadFlagsRejected(t *testing.T) {
	if code, _, _ := capture(t, "-no-such-flag"); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if code, _, stderr := capture(t, "-policy", "nope"); code != 2 || !strings.Contains(stderr, "unknown policy") {
		t.Fatalf("bad policy: exit %d, stderr %q", code, stderr)
	}
}

func TestSeededRunReportsFaultsAndInvariants(t *testing.T) {
	code, stdout, stderr := capture(t, "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"chaossim scenario", "fault plan:", "invariants: all held"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report missing %q:\n%s", want, stdout)
		}
	}
}

func TestRunTwiceByteIdentical(t *testing.T) {
	args := []string{"-seed", "3", "-fingerprint"}
	code1, out1, stderr1 := capture(t, args...)
	code2, out2, _ := capture(t, args...)
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exits %d/%d, stderr %q", code1, code2, stderr1)
	}
	if out1 != out2 {
		t.Fatalf("two identical chaossim runs diverged:\n--- first\n%s--- second\n%s", out1, out2)
	}
	if !strings.Contains(out1, "--- fingerprint") {
		t.Fatalf("missing fingerprint section:\n%s", out1)
	}
}

// TestPodRunTwiceByteIdentical extends run-twice byte-identity to the
// pod shape, where the pod-scoped fault kinds (pod power, spine link)
// are in the draw.
func TestPodRunTwiceByteIdentical(t *testing.T) {
	args := []string{"-seed", "5", "-pod", "-fingerprint"}
	code1, out1, stderr1 := capture(t, args...)
	code2, out2, _ := capture(t, args...)
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exits %d/%d, stderr %q", code1, code2, stderr1)
	}
	if out1 != out2 {
		t.Fatalf("two identical pod chaossim runs diverged:\n--- first\n%s--- second\n%s", out1, out2)
	}
	if !strings.Contains(out1, "pods=") {
		t.Errorf("pod fingerprint missing hierarchy header:\n%s", out1)
	}
}

func TestFaultSeedOverrideChangesSchedule(t *testing.T) {
	_, base, _ := capture(t, "-seed", "1", "-fingerprint")
	code, alt, stderr := capture(t, "-seed", "1", "-fault-seed", "99", "-fingerprint")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if base == alt {
		t.Fatal("-fault-seed override did not change the run")
	}
}

// TestSomeSeedExercisesRecovery guards against the driver silently
// becoming fault-free: across a handful of seeds at least one run must
// show a kill-and-recover (or fail) in the report.
func TestSomeSeedExercisesRecovery(t *testing.T) {
	for _, seed := range []string{"1", "2", "3", "4", "5", "6", "7", "8"} {
		code, stdout, stderr := capture(t, "-seed", seed)
		if code != 0 {
			t.Fatalf("seed %s: exit %d, stderr %q", seed, code, stderr)
		}
		if strings.Contains(stdout, "recovered:") || strings.Contains(stdout, "FAILED:") {
			return
		}
	}
	t.Fatal("no seed in 1..8 exercised the recovery path")
}

// TestTraceRunTwiceByteIdentical extends the byte-identity criterion to
// the observability exports: two runs with -trace/-metrics write
// identical valid files.
func TestTraceRunTwiceByteIdentical(t *testing.T) {
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "t1.json"), filepath.Join(dir, "t2.json")
	m1, m2 := filepath.Join(dir, "m1.csv"), filepath.Join(dir, "m2.csv")
	code1, out1, err1 := capture(t, "-seed", "2", "-trace", p1, "-metrics", m1)
	code2, out2, err2 := capture(t, "-seed", "2", "-trace", p2, "-metrics", m2)
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exits %d/%d, stderr %q %q", code1, code2, err1, err2)
	}
	if out1 != out2 {
		t.Fatal("observed runs printed diverging reports")
	}
	if !strings.Contains(out1, "obs: ") {
		t.Errorf("observed run missing the obs summary:\n%s", out1)
	}
	tr1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr1, tr2) {
		t.Error("-trace files differ between identical runs")
	}
	c1, err := os.ReadFile(m1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := os.ReadFile(m2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Error("-metrics files differ between identical runs")
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr1, &doc); err != nil {
		t.Fatalf("-trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace carries no events")
	}
}

// TestNegativeRetriesMeansNone pins "-retries negative = none": seed 6
// kills jobs, so with no retry budget at least one must fail, and the run
// must differ from the default budget (-retries 0).
func TestNegativeRetriesMeansNone(t *testing.T) {
	code, none, stderr := capture(t, "-seed", "6", "-retries", "-1", "-fingerprint")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(none, "FAILED:") {
		t.Errorf("-retries -1 failed no job:\n%s", none)
	}
	_, dflt, _ := capture(t, "-seed", "6", "-retries", "0", "-fingerprint")
	if none == dflt {
		t.Error("-retries -1 ran with the default budget")
	}
}
