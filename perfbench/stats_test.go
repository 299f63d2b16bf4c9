package main

import (
	"math"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	if xs[0] != 5 {
		t.Error("quantile must not reorder its input")
	}
}

// The tail rule: a percentile is reportable only with at least tailMin
// samples beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{100, 0.90, 10, true},
		{99, 0.90, 9, false},
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{1750, 0.99, 17, true},
		{20, 0.50, 10, true},
		{19, 0.50, 9, false},
	} {
		if got := samplesBeyond(c.n, c.q); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
		if got := tailOK(c.n, c.q); got != c.ok {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.q, got, c.ok)
		}
	}
	// The count matches what a sorted sample actually holds beyond the
	// reported value.
	for n := 1; n <= 300; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			v, above := quantile(xs, q), 0
			for _, x := range xs {
				if x > v {
					above++
				}
			}
			if above != samplesBeyond(n, q) {
				t.Fatalf("n=%d q=%v: %d samples above %v, samplesBeyond says %d", n, q, above, v, samplesBeyond(n, q))
			}
		}
	}
	if got := highestTail(150, []float64{0.99, 0.95, 0.9, 0.5}); got != 0.9 {
		t.Errorf("highestTail(150) = %v, want 0.9", got)
	}
	if got := highestTail(5, []float64{0.99, 0.5}); got != 0 {
		t.Errorf("highestTail(5) = %v, want 0 (no percentile supported)", got)
	}
}

func TestUnionLenOverlaps(t *testing.T) {
	ivs := []interval{{ms(0), ms(10)}, {ms(5), ms(15)}, {ms(20), ms(30)}, {ms(22), ms(25)}}
	if got := unionLen(ivs, math.MinInt64, math.MaxInt64); got != ms(25) {
		t.Errorf("union = %v, want 25ms", got)
	}
	if got := unionLen(ivs, ms(8), ms(24)); got != ms(11) {
		t.Errorf("clipped union = %v, want 11ms (8–15 and 20–24)", got)
	}
	if got := unionLen(nil, 0, ms(5)); got != 0 {
		t.Errorf("empty union = %v", got)
	}
}

// A parent whose parallel children overlap: self time subtracts their
// union once, while each child keeps its own self time, so Σ self is
// worker time and exceeds the wall time covered.
func TestSelfTimesParallelChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "explore.run", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "explore.evaluate", Start: ms(10), End: ms(60)},
		{ID: 3, Parent: 1, Name: "explore.evaluate", Start: ms(20), End: ms(90)},
		{ID: 4, Parent: 2, Name: "place.autoplace", Start: ms(10), End: ms(40)},
		{ID: 5, Parent: 3, Name: "place.autoplace", Start: ms(20), End: ms(50)},
		{ID: 6, Parent: 3, Name: "peec.extract", Start: ms(50), End: ms(80)},
	}
	got := selfTimes(spans, layerOf)
	want := map[string]layerTime{
		// run: 100 − union(10–90) = 20; evaluates: (50−30) + (70−60) = 30.
		"explore": {Calls: 3, Self: ms(50), Wall: ms(100)},
		"place":   {Calls: 2, Self: ms(60), Wall: ms(40)},
		"peec":    {Calls: 1, Self: ms(30), Wall: ms(30)},
	}
	for l, w := range want {
		if g := got[l]; g == nil || *g != w {
			t.Errorf("layer %s = %+v, want %+v", l, g, w)
		}
	}
	var total time.Duration
	for _, lt := range got {
		total += lt.Self
	}
	// Worker time: 100ms of wall plus the 40ms two evaluations overlap.
	if total != ms(140) {
		t.Errorf("Σ self = %v, want 140ms", total)
	}
}

// Children that overrun their parent (a span ended late) count only
// inside the parent's interval.
func TestSelfTimesClipsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "scale.board", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Name: "mna.compile", Start: ms(5), End: ms(12)},
	}
	got := selfTimes(spans, layerOf)
	if got["bench"].Self != ms(5) || got["mna"].Self != ms(7) {
		t.Errorf("self times %+v %+v", got["bench"], got["mna"])
	}
}

func TestCollapseReparents(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "peec.extract", Start: 0, End: ms(10)},
		{ID: 2, Parent: 1, Name: "engine.batch", Start: ms(1), End: ms(9)},
		{ID: 3, Parent: 2, Name: "engine.worker", Start: ms(1), End: ms(9)},
		{ID: 4, Parent: 3, Name: "engine.task", Start: ms(2), End: ms(3)},
		{ID: 5, Parent: 3, Name: "emi.band", Start: ms(3), End: ms(8)},
		{ID: 6, Parent: 2, Name: "drc.check", Start: ms(8), End: ms(9)},
	}
	out := collapse(spans, infraSpans)
	if len(out) != 3 {
		t.Fatalf("kept %d spans, want 3", len(out))
	}
	for _, s := range out {
		want := uint64(1)
		if s.ID == 1 {
			want = 0
		}
		if s.Parent != want {
			t.Errorf("span %d parent %d, want %d", s.ID, s.Parent, want)
		}
	}
	lt := selfTimes(out, layerOf)
	if lt["peec"].Self != ms(4) {
		t.Errorf("peec self = %v, want 4ms", lt["peec"].Self)
	}
}

// Store calls and job phases find their parent by time containment on
// their replica's lane, never across lanes, and identical intervals do
// not parent each other.
func TestNestByLane(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "serve.handler", Lane: "r0", Start: ms(0), End: ms(50)},
		{ID: 2, Name: "serve.handler", Lane: "r1", Start: ms(0), End: ms(50)},
		{ID: 3, Name: "serve.run", Lane: "r0", Start: ms(10), End: ms(40)},
		{ID: 4, Name: "store.append_job", Lane: "r0", Start: ms(12), End: ms(13)},
		{ID: 5, Name: "store.append_edit", Lane: "r1", Start: ms(60), End: ms(61)},
		{ID: 6, Name: "serve.queue", Lane: "r0", Start: ms(10), End: ms(40)},
	}
	nestByLane(spans, map[uint64]bool{3: true, 4: true, 5: true, 6: true})
	want := map[uint64]uint64{1: 0, 2: 0, 3: 1, 4: 3, 5: 0, 6: 3}
	for _, s := range spans {
		if s.Parent != want[s.ID] {
			t.Errorf("span %d parent %d, want %d", s.ID, s.Parent, want[s.ID])
		}
	}
}

func TestUnaccounted(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "a", Start: ms(0), End: ms(40)},
		{ID: 2, Name: "b", Start: ms(30), End: ms(60)},
		{ID: 3, Parent: 1, Name: "c", Start: ms(70), End: ms(80)}, // not top level
	}
	if got := unaccounted(spans, ms(100)); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("unaccounted = %v, want 0.4", got)
	}
	if got := unaccounted(spans, ms(50)); got != 0 {
		t.Errorf("unaccounted over a covered window = %v, want 0", got)
	}
}
