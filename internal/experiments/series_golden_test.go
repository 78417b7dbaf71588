package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/train"
)

var update = flag.Bool("update", false, "rewrite the training-sampler golden file")

// renderTrainSeries renders every byte the training sampler feeds into
// figures and CSV exports: the five probe series of one fixed falconGPUs
// BERT run, its lifecycle event track, and Figure 9's sparkline panels.
func renderTrainSeries(t *testing.T) string {
	t.Helper()
	s := NewSession(Quick)
	res, err := s.RunOpts(cluster.FalconGPUsConfig(), dlmodel.BERTLargeWorkload(), fp16DDP())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, name := range []string{train.SeriesGPUUtil, train.SeriesGPUMemUtil,
		train.SeriesCPUUtil, train.SeriesHostMem, train.SeriesFalconGBps} {
		series := res.Recorder.Series(name)
		if series == nil {
			t.Fatalf("missing series %s", name)
		}
		b.WriteString(series.CSV())
	}
	b.WriteString(res.Track.CSV())
	fig, err := Figure9(s)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(fig)
	return b.String()
}

// TestTrainSeriesGolden pins the training sampler byte for byte: probe
// order, tick times, cell formats, the event track and the Figure 9
// sparklines must match the checked-in file exactly. Regenerate with
// `go test ./internal/experiments -run TestTrainSeriesGolden -update`
// only after an intentional change to the probes or their rendering.
func TestTrainSeriesGolden(t *testing.T) {
	got := renderTrainSeries(t)
	golden := filepath.Join("testdata", "train_series.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("training sampler output drifted from %s:\n--- got\n%s", golden, got)
	}
}
