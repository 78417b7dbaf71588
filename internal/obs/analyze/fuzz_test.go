package analyze

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSLO checks the parser's contract on arbitrary specs: it either
// returns an error, or every check names a known metric with a <= or >=
// op and a finite bound, and re-parsing the space-joined Raw clauses
// yields identical checks. Its seed corpus is in testdata/fuzz.
func FuzzParseSLO(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		slo, err := ParseSLO(spec)
		if err != nil {
			return
		}
		raw := make([]string, len(slo.Checks))
		for i, c := range slo.Checks {
			raw[i] = c.Raw
			if c.IsDur != durMetrics[c.Metric] || !(durMetrics[c.Metric] || scalarMetrics[c.Metric]) {
				t.Fatalf("clause %q: metric %q unknown or mistyped (IsDur=%v)", c.Raw, c.Metric, c.IsDur)
			}
			if c.Op != "<=" && c.Op != ">=" {
				t.Fatalf("clause %q: op %q", c.Raw, c.Op)
			}
			if math.IsNaN(c.Val) || math.IsInf(c.Val, 0) {
				t.Fatalf("clause %q: non-finite bound %v", c.Raw, c.Val)
			}
		}
		again, err := ParseSLO(strings.Join(raw, " "))
		if err != nil {
			t.Fatalf("re-parse of %q: %v", raw, err)
		}
		if !reflect.DeepEqual(again.Checks, slo.Checks) {
			t.Fatalf("re-parse of %q changed the checks:\n%+v\nvs\n%+v", raw, again.Checks, slo.Checks)
		}
	})
}
