package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"composable/internal/sim"
)

// Series is one sampled metric: the sample times and the values taken at
// them. A Series returned by Sampler.Series is a read-only view over the
// sampler's shared time column and the metric's value column.
type Series struct {
	Name   string
	Times  []sim.Time
	Values []float64
}

// Len returns the sample count.
func (s *Series) Len() int { return len(s.Values) }

// Mean returns the arithmetic mean of the samples (0 if empty).
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Max returns the largest sample (0 if empty).
func (s *Series) Max() float64 {
	out := math.Inf(-1)
	for _, v := range s.Values {
		if v > out {
			out = v
		}
	}
	if math.IsInf(out, -1) {
		return 0
	}
	return out
}

// Min returns the smallest sample (0 if empty).
func (s *Series) Min() float64 {
	out := math.Inf(1)
	for _, v := range s.Values {
		if v < out {
			out = v
		}
	}
	if math.IsInf(out, 1) {
		return 0
	}
	return out
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by nearest rank.
func (s *Series) Percentile(p float64) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.Values...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// sparkRunes are the eight block heights of a sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders the series as a fixed-width ASCII chart, resampling by
// bucket means. It is the textual analog of the paper's Figure 9 panels.
func (s *Series) Sparkline(width int) string {
	if width <= 0 || len(s.Values) == 0 {
		return ""
	}
	lo, hi := s.Min(), s.Max()
	if hi-lo < 1e-12 {
		hi = lo + 1
	}
	var b strings.Builder
	for i := 0; i < width; i++ {
		from := i * len(s.Values) / width
		to := (i + 1) * len(s.Values) / width
		if to <= from {
			to = from + 1
		}
		if from >= len(s.Values) {
			break
		}
		if to > len(s.Values) {
			to = len(s.Values)
		}
		sum := 0.0
		for _, v := range s.Values[from:to] {
			sum += v
		}
		mean := sum / float64(to-from)
		idx := int((mean - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// CSV renders "time_s,value" lines.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "time_s,%s\n", s.Name)
	for i := range s.Values {
		fmt.Fprintf(&b, "%.3f,%.6f\n", s.Times[i].Seconds(), s.Values[i])
	}
	return b.String()
}

// TrackEvent is one annotated observation on an event track.
type TrackEvent struct {
	At    time.Duration
	Kind  string // e.g. "checkpoint", "fault", "repair", "kill"
	Label string
}

// Track is an annotated event series: discrete occurrences (faults,
// repairs, checkpoints, kills) alongside the sampled gauge series. The
// paper's tooling overlays exactly these marks on its utilization plots;
// Timeline is the ASCII analog.
type Track struct {
	Name   string
	Events []TrackEvent
}

// NewTrack creates an empty track.
func NewTrack(name string) *Track { return &Track{Name: name} }

// Record appends one event.
func (t *Track) Record(at time.Duration, kind, label string) {
	t.Events = append(t.Events, TrackEvent{At: at, Kind: kind, Label: label})
}

// Len returns the event count.
func (t *Track) Len() int { return len(t.Events) }

// Kinds returns the distinct event kinds in first-seen order.
func (t *Track) Kinds() []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range t.Events {
		if !seen[e.Kind] {
			seen[e.Kind] = true
			out = append(out, e.Kind)
		}
	}
	return out
}

// CSV renders "time_s,kind,label" lines, the event-track analog of
// Series.CSV.
func (t *Track) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "time_s,%s_kind,label\n", t.Name)
	for _, e := range t.Events {
		fmt.Fprintf(&b, "%.3f,%s,%s\n", e.At.Seconds(), e.Kind, strings.ReplaceAll(e.Label, ",", ";"))
	}
	return b.String()
}

// Timeline renders the track as a fixed-width ASCII lane over [0, span]:
// each column shows the first rune of the kind of the event(s) landing in
// its bucket, '*' when kinds collide, '·' when empty. It is the event
// overlay for the Sparkline gauge charts.
func (t *Track) Timeline(width int, span time.Duration) string {
	if width <= 0 || span <= 0 {
		return ""
	}
	marks := make([]rune, width)
	for i := range marks {
		marks[i] = '·'
	}
	for _, e := range t.Events {
		if e.At < 0 || e.At > span {
			continue
		}
		i := int(float64(e.At) / float64(span) * float64(width))
		if i >= width {
			i = width - 1
		}
		r := '?'
		for _, c := range e.Kind {
			r = c
			break
		}
		switch marks[i] {
		case '·':
			marks[i] = r
		case r:
		default:
			marks[i] = '*'
		}
	}
	return string(marks)
}
