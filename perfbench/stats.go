package main

import (
	"math"
	"sort"
	"time"
)

// tailMin is the number of samples that must lie beyond a reported tail
// percentile: a tail read off fewer samples is noise.
const tailMin = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the
// nearest-rank rule on a sorted copy: the smallest sample with at least
// q·n samples at or below it. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is quantile 0.5.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank q-quantile of a set of distinct values.
func samplesBeyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// tailOK reports whether n samples support the q-quantile as a tail:
// at least tailMin samples must lie beyond it.
func tailOK(n int, q float64) bool { return samplesBeyond(n, q) >= tailMin }

// highestTail returns the highest percentile from the candidate list
// (descending order not required) that n samples support, or 0 when
// none does.
func highestTail(n int, candidates []float64) float64 {
	best := 0.0
	for _, q := range candidates {
		if q > best && tailOK(n, q) {
			best = q
		}
	}
	return best
}

// span is one timed interval in the benchmark's trace model: an obs span
// record, a wrapper's timing, or a synthesized job phase. Parent 0 means
// "top level" (a child of the run's root). Lane groups spans that may
// nest by time alone (one replica's handler and store calls); spans
// without an explicit parent are nested by containment within their lane.
type span struct {
	ID     uint64
	Parent uint64
	Name   string
	Lane   string
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// interval is a half-open time interval.
type interval struct{ lo, hi time.Duration }

// unionLen returns the total length covered by the intervals clipped to
// [lo, hi]. Overlapping intervals (parallel children) count once.
func unionLen(ivs []interval, lo, hi time.Duration) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := iv.lo, iv.hi
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			cur, open = iv, true
		case iv.lo <= cur.hi:
			if iv.hi > cur.hi {
				cur.hi = iv.hi
			}
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// collapse drops the spans whose name is in drop (pure infrastructure
// such as the engine pool's batch and worker spans) and re-parents their
// children to the nearest kept ancestor.
func collapse(spans []span, drop map[string]bool) []span {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	out := make([]span, 0, len(spans))
	for _, s := range spans {
		if drop[s.Name] {
			continue
		}
		p := s.Parent
		for p != 0 {
			ps, ok := byID[p]
			if !ok || !drop[ps.Name] {
				break
			}
			p = ps.Parent
		}
		if _, ok := byID[p]; !ok {
			p = 0
		}
		s.Parent = p
		out = append(out, s)
	}
	return out
}

// nestByLane gives every span flagged in orphans the shortest span of
// the same lane that contains it in time as parent. Spans no lane-mate
// contains stay top level.
func nestByLane(spans []span, orphans map[uint64]bool) {
	byLane := map[string][]int{}
	for i, s := range spans {
		byLane[s.Lane] = append(byLane[s.Lane], i)
	}
	for i := range spans {
		s := &spans[i]
		if !orphans[s.ID] {
			continue
		}
		best := -1
		for _, j := range byLane[s.Lane] {
			c := spans[j]
			// Equal intervals nest by ID so two spans never parent each other.
			if c.ID == s.ID || c.Start > s.Start || c.End < s.End ||
				c.dur() == s.dur() && c.ID > s.ID {
				continue
			}
			if best < 0 || c.dur() < spans[best].dur() {
				best = j
			}
		}
		if best >= 0 {
			s.Parent = spans[best].ID
		}
	}
}

// layerTime is one layer's share of a traced run.
type layerTime struct {
	Calls int
	Self  time.Duration // Σ self time over the layer's spans (worker time)
	Wall  time.Duration // union of the layer's span intervals (wall time)
}

// selfTimes computes, for every span, its duration minus the union of
// its children's intervals, and folds the result by layer (layerOf maps
// a span name to its layer). Parallel children count once in their
// parent's subtraction but each contributes its own self time, so Σ Self
// over layers is worker time while Wall is elapsed time.
func selfTimes(spans []span, layerOf func(string) string) map[string]*layerTime {
	kids := map[uint64][]interval{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
	}
	out := map[string]*layerTime{}
	ivs := map[string][]interval{}
	for _, s := range spans {
		l := layerOf(s.Name)
		lt := out[l]
		if lt == nil {
			lt = &layerTime{}
			out[l] = lt
		}
		lt.Calls++
		lt.Self += s.dur() - unionLen(kids[s.ID], s.Start, s.End)
		ivs[l] = append(ivs[l], interval{s.Start, s.End})
	}
	for l, lt := range out {
		lt.Wall = unionLen(ivs[l], math.MinInt64, math.MaxInt64)
	}
	return out
}

// unaccounted returns the share of a measured window of length wall
// that no top-level span covers: time the benchmark spent outside every
// layer.
func unaccounted(spans []span, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	var top []interval
	for _, s := range spans {
		if s.Parent == 0 {
			top = append(top, interval{s.Start, s.End})
		}
	}
	covered := unionLen(top, math.MinInt64, math.MaxInt64)
	if covered > wall {
		covered = wall
	}
	return float64(wall-covered) / float64(wall)
}
