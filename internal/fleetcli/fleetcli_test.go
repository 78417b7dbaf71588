package fleetcli_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"composable/internal/fleetcli"
)

var (
	binDir    string
	buildOnce sync.Once
	buildErr  error
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fleetcli-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// command runs one of the three front ends, built once per test binary,
// and returns its stdout. Any exit other than 0 fails the test.
func command(t *testing.T, name string, args ...string) string {
	t.Helper()
	buildOnce.Do(func() {
		out, err := exec.Command("go", "build", "-o", binDir,
			"composable/cmd/fleetsim", "composable/cmd/chaossim", "composable/cmd/tracectl").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, stderr.String())
	}
	return stdout.String()
}

// TestFaultSeedFingerprintsAgree pins that fleetsim and chaossim arm the
// same fault schedule for an explicit -fault-seed: the fingerprint
// sections are identical.
func TestFaultSeedFingerprintsAgree(t *testing.T) {
	var cases [][]string
	for _, seed := range []string{"1", "2", "5"} {
		for _, faultSeed := range []string{"3", "9"} {
			cases = append(cases, []string{"-seed", seed, "-fault-seed", faultSeed, "-fingerprint"})
		}
	}
	cases = append(cases, []string{"-seed", "5", "-pod", "-fault-seed", "4", "-fingerprint"})
	section := func(out string) string {
		i := strings.Index(out, "\n--- fingerprint\n")
		if i < 0 {
			t.Fatalf("no fingerprint section:\n%s", out)
		}
		return out[i:]
	}
	for _, args := range cases {
		fleet := section(command(t, "fleetsim", args...))
		chaos := section(command(t, "chaossim", args...))
		if fleet != chaos {
			t.Errorf("%v: fingerprints differ\n--- fleetsim%s--- chaossim%s", args, fleet, chaos)
		}
	}
}

// TestTracectlMatchesFleetsimReport pins that tracectl's text report is
// the report fleetsim -report ends with, for the same scenario flags.
func TestTracectlMatchesFleetsimReport(t *testing.T) {
	for _, args := range [][]string{
		{"-seed", "1", "-fault-seed", "3"},
		{"-seed", "1", "-pod", "-jobs", "20"},
	} {
		report := command(t, "tracectl", args...)
		full := command(t, "fleetsim", append(append([]string{}, args...), "-report")...)
		if report == "" || !strings.HasSuffix(full, "\n"+report) {
			t.Errorf("%v: fleetsim -report does not end with tracectl's report\n--- tracectl\n%s--- fleetsim\n%s",
				args, report, full)
		}
	}
}

// TestFleetPodOverrides pins the shape rules: either pod flag alone
// selects the pod shape, with the other count defaulting to 1.
func TestFleetPodOverrides(t *testing.T) {
	for _, tc := range []struct {
		pods, cpp         int
		wantPods, wantCPP int
	}{
		{},
		{pods: 3, wantPods: 3, wantCPP: 1},
		{cpp: 2, wantPods: 1, wantCPP: 2},
		{pods: 2, cpp: 3, wantPods: 2, wantCPP: 3},
	} {
		c := fleetcli.New("test", &bytes.Buffer{}, &bytes.Buffer{})
		c.Seed, c.Pods, c.ChassisPerPod = 1, tc.pods, tc.cpp
		sc := c.Fleet()
		if sc.Pods != tc.wantPods || sc.ChassisPerPod != tc.wantCPP {
			t.Errorf("-pods %d -chassis-per-pod %d: got %dx%d, want %dx%d",
				tc.pods, tc.cpp, sc.Pods, sc.ChassisPerPod, tc.wantPods, tc.wantCPP)
		}
	}
}
