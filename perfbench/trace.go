package main

import (
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// spanCap bounds a traced pass's span store far above what a pass
// records, so trace.dropped_spans reads 0 unless a pass misbehaves.
const spanCap = 1 << 21

// infraSpans are the engine pool's own spans and the NSGA-II wave span:
// scheduling structure, not a layer's work. They are collapsed before
// self times are taken (their children move up to the nearest kept
// ancestor); the wave spans still feed explore.wave_efficiency.
var infraSpans = map[string]bool{
	"engine.batch":       true,
	"engine.worker":      true,
	"engine.task":        true,
	"explore.generation": true,
}

// layerOf maps a span name to the internal/ package (layer) whose work
// it times. Spans the benchmark itself opens around a call are named
// after the layer they enter.
func layerOf(name string) string {
	switch name {
	case "emi.band", "emi.spectrum":
		// The harmonic loop is MNA assembly, factorization and solves.
		return "mna"
	case "scale.board":
		return "bench"
	case "serve.queue", "serve.run":
		// A served job's queue wait and its run inside the handler.
		return name
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// fromObs converts a finished obs trace into spans. The trace's root
// becomes the implicit top level; its duration is the pass's wall time.
func fromObs(tr *obs.Trace) (spans []span, wall time.Duration) {
	recs := tr.Snapshot()
	var rootID uint64
	for _, r := range recs {
		if r.Parent == 0 {
			rootID, wall = r.ID, r.Dur
		}
	}
	for _, r := range recs {
		if r.ID == rootID {
			continue
		}
		p := r.Parent
		if p == rootID {
			p = 0
		}
		spans = append(spans, span{ID: r.ID, Parent: p, Name: r.Name, Start: r.Start, End: r.Start + r.Dur})
	}
	return spans, wall
}

// addLayerRecords reports calls, self time and wall time per layer, each
// layer's share of the summed self time, and how much of the pass's wall
// time no span covers.
func addLayerRecords(res *result, spans []span, wall time.Duration) {
	spans = collapse(spans, infraSpans)
	layers := selfTimes(spans, layerOf)
	var total time.Duration
	for _, lt := range layers {
		total += lt.Self
	}
	for _, name := range sortedKeys(layers) {
		lt := layers[name]
		res.add(name+".self_s", "s", lt.Self.Seconds(), lt.Calls)
		res.add(name+".wall_s", "s", lt.Wall.Seconds(), lt.Calls)
		if total > 0 {
			res.add(name+".self_frac", "frac", float64(lt.Self)/float64(total), lt.Calls)
		}
	}
	for _, l := range []string{"place", "peec"} {
		if lt := layers[l]; lt != nil {
			res.add(l+".calls", "count", float64(lt.Calls), lt.Calls)
		}
	}
	if lt := layers["drc"]; lt != nil {
		res.add("drc.check_calls", "count", float64(lt.Calls), lt.Calls)
	}
	res.add("trace.unaccounted_frac", "frac", unaccounted(spans, wall), len(spans))
}

// addEngineRecords reports the engine's work counters s: a pass's
// engine.Snapshot taken from a fresh engine, less any answer-check work.
func addEngineRecords(res *result, s engine.Stats) {
	res.add("mna.calls", "count", float64(s.MNASolves), 1)
	res.add("peec.neumann_integrals", "count", float64(s.NeumannIntegrals), 1)
	res.add("engine.cache_hit_frac", "frac", s.HitRate(), int(s.CacheHits+s.CacheMisses))
	res.add("engine.pool_batches", "count", float64(s.PoolBatches), 1)
	res.add("engine.pool_tasks", "count", float64(s.PoolTasks), 1)
	res.add("linalg.factorizations", "count", float64(s.Factorizations), 1)
	res.add("linalg.resolves", "count", float64(s.Resolves), 1)
	frac := 0.0
	if s.Factorizations > 0 {
		frac = float64(s.SparseFactors) / float64(s.Factorizations)
	}
	res.add("linalg.sparse_factor_frac", "frac", frac, int(s.Factorizations))
}

// subStats returns the counter-wise difference a − b.
func subStats(a, b engine.Stats) engine.Stats {
	return engine.Stats{
		MNASolves:        a.MNASolves - b.MNASolves,
		NeumannIntegrals: a.NeumannIntegrals - b.NeumannIntegrals,
		CacheHits:        a.CacheHits - b.CacheHits,
		CacheMisses:      a.CacheMisses - b.CacheMisses,
		PoolBatches:      a.PoolBatches - b.PoolBatches,
		PoolTasks:        a.PoolTasks - b.PoolTasks,
		Factorizations:   a.Factorizations - b.Factorizations,
		Resolves:         a.Resolves - b.Resolves,
		SparseFactors:    a.SparseFactors - b.SparseFactors,
	}
}

// freshEngine empties the coupling cache and zeroes the counters, so a
// measured pass starts from the same state whatever ran before it.
func freshEngine() {
	engine.ResetCache()
	engine.ResetStats()
}
