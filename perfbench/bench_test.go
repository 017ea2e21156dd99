package main

import (
	"encoding/json"
	"os"
	"testing"

	"eventsys/internal/event"
	"eventsys/internal/filter"
)

func TestPickTailNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: the pick must sort
		}
		return s
	}
	cases := []struct {
		n      int
		q      float64
		value  float64
		beyond int
	}{
		{20, 0.5, 10, 10},     // p90 would leave 2 beyond
		{100, 0.9, 90, 10},    // p99 would leave 1
		{999, 0.9, 900, 99},   // p99 would leave 9
		{1000, 0.99, 990, 10}, // exactly ten beyond
		{10000, 0.999, 9990, 10},
	}
	for _, c := range cases {
		got, ok := pickTail(samples(c.n))
		if !ok || got.q != c.q || got.value != c.value || got.n != c.n || got.beyond != c.beyond {
			t.Errorf("n=%d: got %+v ok=%v, want q=%g value=%g beyond=%d", c.n, got, ok, c.q, c.value, c.beyond)
		}
	}
	if got, ok := pickTail(samples(19)); ok {
		t.Errorf("19 samples cannot support a median with ten beyond, got %+v", got)
	}
}

func TestWindowedIgnoresOneBadWindow(t *testing.T) {
	// p99 windows hold 1,000 samples: ten beyond the percentile.
	var samples []float64
	for _, v := range []float64{1, 100, 5} { // the middle window is a stall
		for i := 0; i < 1000; i++ {
			samples = append(samples, v)
		}
	}
	samples = append(samples, 7, 7, 7) // a short remainder joins the last window
	if got := windowed(samples, 0.99); got != 5 {
		t.Errorf("windowed p99 = %g, want 5", got)
	}
	if got := windowed(samples[:1999], 0.99); got != 100 {
		t.Errorf("one window (the remainder folded in) gives %g, want 100", got)
	}
	// p90 windows hold 100 samples: the stall spans ten of the thirty.
	if got := windowed(samples[:3000], 0.9); got != 5 {
		t.Errorf("windowed p90 = %g, want 5", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps a
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
		{Name: "a", ID: 5, Parent: 2, Start: 12, End: 18},  // grandchild
		{Name: "b", ID: 6, Parent: 1, Start: 25, End: 40},  // inside a∪b
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root": 100 - 50, // children cover [10,50) and [90,100)
		"a":    (20 - 6) + 6,
		"b":    30 + 15,
		"c":    30,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestOracleHandBuiltCase(t *testing.T) {
	// The subscriber holds two filters, one of them twice (a set, as the
	// broker's table keeps it): value > 50, and class-only on "Other".
	hot := &filter.Filter{Class: "T", Constraints: []filter.Constraint{filter.C("v", filter.OpGt, event.Int(50))}}
	set := newFilterSet([]*filter.Filter{hot, hot.Clone(), {Class: "Other"}})
	if len(set.order) != 2 {
		t.Fatalf("filter set holds %d filters, want 2", len(set.order))
	}
	values := map[uint64]int64{1: 60, 2: 10, 3: 70, 4: 80, 5: 90, 6: 20, 7: 99, 8: 55}
	ev := func(id uint64) *event.Event { return event.NewBuilder("T").Int("v", values[id]).ID(id).Build() }
	must := func(id uint64) bool { return set.matches(ev(id)) }
	spec := checkSpec{
		published: func(id uint64) bool { return id >= 1 && id <= 8 },
		must:      must,
		may:       must,
		ids:       []uint64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	// Expected: 1, 3, 4, 5, 7, 8. Received: 1, 4, 3 (reordered), 4
	// (duplicate), 6 (filtered out), 9 (never published), 8; 5 and 7 are
	// missing.
	got := []delivery{{id: 1}, {id: 4}, {id: 3}, {id: 4}, {id: 6}, {id: 9}, {id: 8}}
	v := check(spec, got)
	want := verdict{Expected: 6, Delivered: 7, Missing: 2, Duplicate: 1, Reordered: 1, Unexpected: 2}
	if v != want {
		t.Errorf("verdict %+v, want %+v", v, want)
	}
	if v.failures() != 6 {
		t.Errorf("failures %d, want 6", v.failures())
	}

	// Backlog [3, 6) must arrive before any live event at 6 or above.
	spec.backlogLo, spec.backlogHi = 3, 6
	spec.ids = nil
	late := check(spec, []delivery{{id: 1}, {id: 3}, {id: 7}, {id: 4}, {id: 8}, {id: 5}})
	if late.BacklogLate != 2 {
		t.Errorf("backlog-late %d, want 2 (7 and 8 overtook the backlog)", late.BacklogLate)
	}
	if clean := check(spec, []delivery{{id: 1}, {id: 3}, {id: 4}, {id: 5}, {id: 7}, {id: 8}}); clean.failures() != 0 {
		t.Errorf("in-order delivery reported %+v", clean)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the reported metric names and
// units in step with the declaration the benchmark is judged by.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ name, unit string }, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics reported, %d declared", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: reported %s %s, declared %s %s", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, decl.EndToEnd)
	compare("per_layer", perLayer, decl.PerLayer)
}
