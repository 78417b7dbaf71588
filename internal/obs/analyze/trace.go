package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"composable/internal/obs"
)

// Span is the analyzer's flattened view of one trace event. Only the
// attributes the analysis keys on survive (job, attempt, cause); the
// rest of the exporter's args are irrelevant to attribution and are
// dropped so that a Trace built live from a Collector and one re-read
// from its exported JSON are identical.
type Span struct {
	Name    string
	Cat     string
	Start   time.Duration
	End     time.Duration
	Instant bool
	Job     int64 // "job" attribute; -1 when absent
	Attempt int64 // "attempt" attribute; -1 when absent
	Cause   string
}

// Dur returns the span's extent (zero for instants).
func (s *Span) Dur() time.Duration { return s.End - s.Start }

// Trace is an ordered span set ready for analysis: spans appear in
// begin order (the exporter's order), and Horizon is the latest sim
// time the run observed.
type Trace struct {
	Spans   []Span
	Horizon time.Duration
}

// FromCollector snapshots a finished run's collector into a Trace.
// Open spans are clamped to the collector's max time, exactly as the
// trace exporter renders them.
func FromCollector(c *obs.Collector) *Trace {
	t := &Trace{Horizon: c.MaxTime()}
	t.Spans = make([]Span, 0, c.SpanCount())
	c.VisitSpans(func(v obs.SpanView) {
		sp := Span{
			Name:    v.Name,
			Cat:     v.Cat.Name(),
			Start:   v.Start,
			End:     v.End,
			Instant: v.Instant,
			Job:     -1,
			Attempt: -1,
		}
		if j, ok := v.AttrInt("job"); ok {
			sp.Job = j
		}
		if a, ok := v.AttrInt("attempt"); ok {
			sp.Attempt = a
		}
		if cause, ok := v.AttrStr("cause"); ok {
			sp.Cause = cause
		}
		t.Spans = append(t.Spans, sp)
	})
	return t
}

// rawEvent mirrors one exported trace_event line. Numbers stay textual
// (json.Number) so timestamps can be re-parsed with the exporter's
// exact integer math instead of a float round trip.
type rawEvent struct {
	Ph   string                     `json:"ph"`
	Ts   json.Number                `json:"ts"`
	Dur  json.Number                `json:"dur"`
	Name string                     `json:"name"`
	Cat  string                     `json:"cat"`
	Args map[string]json.RawMessage `json:"args"`
}

// ReadTrace rebuilds a Trace from a Chrome trace_event JSON export
// (obs.WriteTrace output, or any trace using the same µs timestamps).
// The parse inverts appendMicros exactly — integer microseconds plus
// an optional three-digit fractional part — so a round-tripped trace
// analyzes byte-identically to the live collector.
func ReadTrace(r io.Reader) (*Trace, error) {
	var doc struct {
		TraceEvents []rawEvent `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("analyze: parse trace: %w", err)
	}
	t := &Trace{}
	for i := range doc.TraceEvents {
		e := &doc.TraceEvents[i]
		switch e.Ph {
		case "C":
			ts, err := parseMicros(e.Ts.String())
			if err != nil {
				return nil, fmt.Errorf("analyze: counter sample ts %q: %w", e.Ts, err)
			}
			if ts > t.Horizon {
				t.Horizon = ts
			}
		case "X", "i":
			ts, err := parseMicros(e.Ts.String())
			if err != nil {
				return nil, fmt.Errorf("analyze: span ts %q: %w", e.Ts, err)
			}
			sp := Span{
				Name:    e.Name,
				Cat:     e.Cat,
				Start:   ts,
				End:     ts,
				Instant: e.Ph == "i",
				Job:     -1,
				Attempt: -1,
			}
			if e.Ph == "X" {
				dur, err := parseMicros(e.Dur.String())
				if err != nil {
					return nil, fmt.Errorf("analyze: span dur %q: %w", e.Dur, err)
				}
				if dur > 0 && ts > math.MaxInt64-dur || dur < 0 && ts < math.MinInt64-dur {
					return nil, fmt.Errorf("analyze: span end %q+%q overflows int64 nanoseconds", e.Ts, e.Dur)
				}
				sp.End = ts + dur
			}
			if v, ok := argInt(e.Args, "job"); ok {
				sp.Job = v
			}
			if v, ok := argInt(e.Args, "attempt"); ok {
				sp.Attempt = v
			}
			if s, ok := argStr(e.Args, "cause"); ok {
				sp.Cause = s
			}
			if sp.End > t.Horizon {
				t.Horizon = sp.End
			}
			t.Spans = append(t.Spans, sp)
		}
	}
	return t, nil
}

// parseMicros converts a trace timestamp — whole microseconds with an
// optional fractional part — back to nanoseconds exactly. Fractions
// longer than three digits (sub-ns, which obs never emits) and values
// outside int64 nanoseconds are errors rather than a silent truncation
// or wrap.
func parseMicros(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil // absent field (e.g. "dur" on a malformed line)
	}
	whole, frac := s, ""
	if i := strings.IndexByte(s, '.'); i >= 0 {
		whole, frac = s[:i], s[i+1:]
	}
	us, err := strconv.ParseInt(whole, 10, 64)
	if err != nil {
		return 0, err
	}
	if us > math.MaxInt64/1000 || us < math.MinInt64/1000 {
		return 0, fmt.Errorf("timestamp %q overflows int64 nanoseconds", s)
	}
	ns := us * 1000
	if frac != "" {
		if len(frac) > 3 {
			return 0, fmt.Errorf("sub-nanosecond timestamp %q", s)
		}
		for len(frac) < 3 {
			frac += "0"
		}
		f, err := strconv.ParseInt(frac, 10, 64)
		if err != nil {
			return 0, err
		}
		if ns > math.MaxInt64-f {
			return 0, fmt.Errorf("timestamp %q overflows int64 nanoseconds", s)
		}
		if ns < 0 {
			ns -= f
		} else {
			ns += f
		}
	}
	return time.Duration(ns), nil
}

// argInt extracts an integer span attribute from a raw args object.
func argInt(args map[string]json.RawMessage, key string) (int64, bool) {
	raw, ok := args[key]
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// argStr extracts a string span attribute from a raw args object.
func argStr(args map[string]json.RawMessage, key string) (string, bool) {
	raw, ok := args[key]
	if !ok {
		return "", false
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return "", false
	}
	return s, true
}
