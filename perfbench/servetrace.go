package main

import (
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/session"
	"repro/internal/store"
)

// recorder collects the serve-mixed spans. The served layers talk over
// HTTP and run on goroutines the benchmark does not own, so instead of
// an obs trace the benchmark wraps the public seams (the load client,
// the router's forward transport, each replica's handler, each replica's
// store) and links the pieces by the X-Request-ID the router forwards,
// or, for store calls and job phases, by time containment on the
// replica's lane.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	next  uint64
	spans []span
	reqOf map[uint64]string // span ID → request ID
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), reqOf: map[uint64]string{}}
}

// add records one finished interval and returns its span ID.
func (r *recorder) add(name, lane, reqID string, start, end time.Time) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	r.spans = append(r.spans, span{ID: r.next, Name: name, Lane: lane,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	if reqID != "" {
		r.reqOf[r.next] = reqID
	}
	return r.next
}

// middleware times one replica's request handling.
func (r *recorder) middleware(lane string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, req)
		r.add("serve.handler", lane, req.Header.Get("X-Request-ID"), t0, time.Now())
	})
}

// timedTransport times the router's forwards, from the request until
// the router has consumed and closed the replica's response body.
type timedTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	id := req.Header.Get("X-Request-ID")
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.add("cluster.forward", "", id, t0, time.Now())
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.rec.add("cluster.forward", "", id, t0, time.Now())
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// timedStore times the write-path calls of one replica's store.
type timedStore struct {
	store.Store
	rec  *recorder
	lane string
}

func (s *timedStore) timed(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	s.rec.add(name, s.lane, "", t0, time.Now())
	return err
}

func (s *timedStore) CreateSession(id string, baseSeq uint64, design []byte) error {
	return s.timed("store.create_session", func() error { return s.Store.CreateSession(id, baseSeq, design) })
}

func (s *timedStore) AppendEdit(id string, jr session.JournalRecord) (n int, err error) {
	err = s.timed("store.append_edit", func() error {
		n, err = s.Store.AppendEdit(id, jr)
		return err
	})
	return n, err
}

func (s *timedStore) CompactSession(id string, baseSeq uint64, design []byte) error {
	return s.timed("store.compact", func() error { return s.Store.CompactSession(id, baseSeq, design) })
}

func (s *timedStore) AppendJob(jr store.JobRecord) error {
	return s.timed("store.append_job", func() error { return s.Store.AppendJob(jr) })
}

// serveLayerRecords turns a traced pass into per-layer metrics: span
// self times over the closed-loop phase, and the queue, store, session
// and forwarding distributions over the whole pass.
func serveLayerRecords(res *result, rec *recorder, p *servePass, q float64) {
	rec.mu.Lock()
	spans := append([]span(nil), rec.spans...)
	reqOf := rec.reqOf
	rec.mu.Unlock()

	clientOf := map[string]uint64{}
	handlers := map[string][]span{}
	laneOf := map[string]string{}
	for _, s := range spans {
		switch id := reqOf[s.ID]; s.Name {
		case "loadgen.request":
			clientOf[id] = s.ID
		case "serve.handler":
			if id != "" {
				handlers[id] = append(handlers[id], s)
				laneOf[id] = s.Lane
			}
		}
	}

	// Job phases from the job views, once per job (a result-store answer
	// re-serves the original job's view).
	all := append(append([]*outcome(nil), p.open...), p.closed...)
	seen := map[string]bool{}
	var queueMS, runMS []float64
	var placeCalls int
	var placeMS, mnaMS float64
	jobs, rejected := 0, 0
	for _, o := range all {
		if o.rejects {
			rejected++
		}
		if o.op.class != "job" || !o.ok() {
			continue
		}
		jobs++
		v := o.view
		if v == nil || seen[v.ID] || v.Started == nil || v.Finished == nil {
			continue
		}
		seen[v.ID] = true
		queueMS = append(queueMS, float64(v.Started.Sub(v.Created))/1e6)
		runMS = append(runMS, float64(v.Finished.Sub(*v.Started))/1e6)
		lane := laneOf[o.reqID]
		rec.add("serve.queue", lane, "", v.Created, *v.Started)
		rec.add("serve.run", lane, "", *v.Started, *v.Finished)
		for _, t := range v.Timings {
			switch t.Phase {
			case "place.autoplace":
				placeCalls += t.Calls
				placeMS += t.TotalMS
			case "emi.spectrum":
				mnaMS += t.TotalMS
			}
		}
	}
	rec.mu.Lock()
	spans = append(spans, rec.spans[len(spans):]...)
	rec.mu.Unlock()

	// Parents: forward → client span of its request; handler → the
	// forward of its request that contains it; store calls and job
	// phases → the shortest containing span on their replica's lane.
	forwards := map[string][]span{}
	for _, s := range spans {
		if s.Name == "cluster.forward" {
			forwards[reqOf[s.ID]] = append(forwards[reqOf[s.ID]], s)
		}
	}
	orphans := map[uint64]bool{}
	for i := range spans {
		s := &spans[i]
		id := reqOf[s.ID]
		switch s.Name {
		case "cluster.forward":
			s.Parent = clientOf[id]
		case "serve.handler":
			for _, f := range forwards[id] {
				if f.Start <= s.Start && s.End <= f.End {
					s.Parent = f.ID
				}
			}
			if s.Parent == 0 {
				orphans[s.ID] = true
			}
		case "loadgen.request":
		default:
			orphans[s.ID] = true
		}
	}
	nestByLane(spans, orphans)

	// Self times over the closed-loop phase, where requests are always
	// in flight, so uncovered time is benchmark overhead rather than idle
	// time between arrivals.
	off := p.closedStart.Sub(rec.t0)
	var closed []span
	for _, s := range spans {
		if s.Start >= off && s.Start < off+p.closedWall {
			s.Start -= off
			s.End -= off
			closed = append(closed, s)
		}
	}
	addLayerRecords(res, closed, p.closedWall)

	tail := func(xs []float64) float64 { return highestTail(len(xs), []float64{q, 0.95, 0.9, 0.5}) }
	res.addPct("serve.queue_wait_ms_p50", "ms", queueMS, 0.5)
	res.addPct("serve.queue_wait_ms_tail", "ms", queueMS, tail(queueMS))
	res.addPct("serve.run_ms_p50", "ms", runMS, 0.5)
	res.add("serve.rejected", "count", float64(rejected), len(all))
	if jobs > 0 {
		hits := p.metrics["emiserve_dedup_hits_total"] + p.metrics["emiserve_result_store_hits_total"]
		res.add("serve.dedup_frac", "frac", hits/float64(jobs), jobs)
	}
	res.add("place.calls", "count", float64(placeCalls), placeCalls)
	res.add("place.self_s", "s", placeMS/1e3, placeCalls)
	res.add("mna.self_s", "s", mnaMS/1e3, len(runMS))
	meanMS := func(phase string) (float64, int) {
		n := p.metrics[`emiserve_phase_seconds_count{phase="`+phase+`"}`]
		if n == 0 {
			return 0, 0
		}
		return 1e3 * p.metrics[`emiserve_phase_seconds_sum{phase="`+phase+`"}`] / n, int(n)
	}
	if m, n := meanMS("session.edit"); n > 0 {
		res.add("session.edit_ms_mean", "ms", m, n)
	}
	if m, n := meanMS("drc.recheck"); n > 0 {
		res.add("session.recheck_ms_mean", "ms", m, n)
	}

	var editMS, jobMS []float64
	var busy time.Duration
	appends := 0
	for _, s := range spans {
		switch s.Name {
		case "store.append_edit":
			editMS = append(editMS, float64(s.dur())/1e6)
		case "store.append_job":
			jobMS = append(jobMS, float64(s.dur())/1e6)
		default:
			continue
		}
		appends++
		busy += s.dur()
	}
	for _, s := range spans {
		if s.Name == "store.create_session" || s.Name == "store.compact" {
			busy += s.dur()
		}
	}
	res.addPct("store.append_edit_ms_p50", "ms", editMS, 0.5)
	res.addPct("store.append_edit_ms_tail", "ms", editMS, tail(editMS))
	res.addPct("store.append_job_ms_p50", "ms", jobMS, 0.5)
	res.add("store.appends", "count", float64(appends), appends)
	res.add("store.busy_s", "s", busy.Seconds(), appends)

	// Forwarding overhead: what the client waited beyond the replica's
	// own handling of the request.
	var overhead []float64
	perLane := map[string]int{}
	for _, o := range all {
		hs := handlers[o.reqID]
		if !o.ok() || len(hs) == 0 {
			continue
		}
		var h time.Duration
		for _, s := range hs {
			h += s.dur()
			perLane[s.Lane]++
		}
		overhead = append(overhead, float64(o.done.Sub(o.sent)-h)/1e6)
	}
	res.addPct("cluster.forward_overhead_ms_p50", "ms", overhead, 0.5)
	if len(perLane) > 0 {
		most, total := 0, 0
		for _, n := range perLane {
			total += n
			if n > most {
				most = n
			}
		}
		// Replicas that handled nothing count in the mean too.
		res.add("cluster.replica_skew", "ratio", float64(most)*serveReplicas/float64(total), total)
	}
	res.add("trace.dropped_spans", "count", 0, len(spans))
}
