// Package serve is the long-running serving layer over the EMI design
// flow: an asynchronous job queue exposing interference prediction,
// automatic placement and coupling extraction as HTTP/JSON endpoints.
//
// Architecture:
//
//   - a bounded job queue feeding a fixed pool of worker goroutines, each
//     of which runs one job at a time on top of internal/engine (whose
//     global token budget keeps total CPU use bounded however many
//     workers fan out);
//   - content-hash request deduplication: byte-identical in-flight
//     requests share one Job, and recently completed results are answered
//     from an LRU store with TTL without queueing at all;
//   - per-job deadlines and cancellation threaded through context.Context
//     down to the individual MNA solves, field integrals and raster scans,
//     so an aborted job stops consuming its worker promptly;
//   - graceful drain: intake stops, queued and running jobs finish (or are
//     cancelled when the drain deadline expires), then the workers exit.
//
// The package is transport-agnostic at its core (Submit/Cancel/Wait on
// *Server); http.go adds the HTTP/JSON surface and metrics.go the
// Prometheus text exposition.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/store"
)

// Config tunes the server. Zero values take the documented defaults.
type Config struct {
	Workers    int             // worker goroutines; <= 0: 2
	QueueDepth int             // bounded queue length; <= 0: 64
	JobTimeout time.Duration   // per-job deadline; <= 0: 2 minutes
	ResultTTL  time.Duration   // completed-result reuse window; <= 0: 10 minutes
	ResultCap  int             // LRU result store capacity; <= 0: 256
	Runners    map[Kind]Runner // nil: DefaultRunners()

	SessionTTL time.Duration // design-session idle eviction; <= 0: session.DefaultTTL
	SessionCap int           // max live design sessions; <= 0: session.DefaultCap

	// Store makes the server durable: jobs, results and sessions are
	// written ahead to it and recovered by New. nil keeps everything in
	// memory (a SIGTERM loses all state, as before). CompactEvery bounds
	// a session's WAL: after that many journal records the log is
	// rewritten as a fresh snapshot; <= 0: 256.
	Store        store.Store
	CompactEvery int

	// Logger receives the structured request and job logs; nil discards
	// them. SlowOp is the span duration past which a traced operation logs
	// its whole ancestor path through Logger; <= 0: 10 seconds.
	Logger *slog.Logger
	SlowOp time.Duration
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = 10 * time.Minute
	}
	if c.ResultCap <= 0 {
		c.ResultCap = 256
	}
	if c.Runners == nil {
		c.Runners = DefaultRunners()
	}
	if c.Logger == nil {
		c.Logger = obs.Discard()
	}
	if c.SlowOp <= 0 {
		c.SlowOp = 10 * time.Second
	}
	if c.CompactEvery <= 0 {
		c.CompactEvery = 256
	}
}

// Runner executes one job kind: it receives the raw request body and the
// job's context (carrying the deadline and any cancellation) and returns
// a JSON-marshalable result. Runners must honour ctx — that is what makes
// cancellation free the worker.
type Runner func(ctx context.Context, req []byte) (any, error)

// Submission errors.
var (
	ErrQueueFull = errors.New("serve: job queue is full")
	ErrDraining  = errors.New("serve: server is draining")
	ErrNotFound  = errors.New("serve: no such job")
)

// Server is the job-queue service. Create with New, stop with Drain.
type Server struct {
	cfg Config
	now func() time.Time // injectable clock for tests

	mu       sync.Mutex
	jobs     map[string]*Job
	inflight map[engine.Key]*Job // queued or running, by content key
	store    *resultStore
	finished []finishedRef // terminal jobs in finish order, for pruning
	queue    chan *Job
	seq      uint64
	draining bool

	sessions *session.Manager

	// Durable-session bookkeeping (Store configured): per-session WAL
	// depth driving compaction. Guarded by dmu.
	dmu      sync.Mutex
	durables map[string]*sessionDurable

	// takeoverMu serializes cluster session adoptions: two racing
	// takeovers of the same session must not double-create its durable
	// log (see cluster.go).
	takeoverMu sync.Mutex

	wg        sync.WaitGroup
	m         metrics
	recovered Recovery          // what New rebuilt from the store
	phases    *obs.HistogramSet // per-phase job latency, from the job traces
}

// sessionDurable tracks one durable session's WAL depth and serialises
// its compactions.
type sessionDurable struct {
	pending    atomic.Int64 // journal records since the last snapshot
	compacting atomic.Bool
}

type finishedRef struct {
	id string
	at time.Time
}

// New starts a server with cfg.Workers worker goroutines. When a Store
// is configured, the durable state is recovered first: unfinished jobs
// re-enter the queue, completed results repopulate the LRU store with
// their original TTLs, and sessions are replayed from their snapshots
// and edit journals — all before the workers start.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		now:      time.Now,
		jobs:     make(map[string]*Job),
		inflight: make(map[engine.Key]*Job),
		store:    newResultStore(cfg.ResultCap, cfg.ResultTTL),
		queue:    make(chan *Job, cfg.QueueDepth),
		sessions: session.NewManager(cfg.SessionTTL, cfg.SessionCap),
		durables: make(map[string]*sessionDurable),
		phases: obs.NewHistogramSet("emiserve_phase_seconds",
			"Wall time per pipeline phase, aggregated from the job traces.",
			"phase", obs.LatencySeconds),
	}
	if cfg.Store != nil {
		s.recover()
		s.sessions.SetEvictHook(func(id string) {
			if err := cfg.Store.DeleteSession(id); err != nil {
				cfg.Logger.Warn("evicted session delete", "session", id, "err", err)
			}
			s.dropDurable(id)
		})
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Recovery is the startup summary of what the store gave back.
type Recovery struct {
	Requeued  int // unfinished jobs back in the queue
	Restored  int // terminal jobs restored for status queries
	Sessions  int // sessions replayed from snapshot + journal
	LostJobs  int // unfinished jobs that could not be requeued
	BadReplay int // session logs that failed to replay (left on disk)
}

// RecoveryReport returns what New recovered from the store.
func (s *Server) RecoveryReport() Recovery { return s.recovered }

// recover rebuilds the in-memory state from the store. It runs before
// the workers start, so requeued jobs cannot race the rebuild.
func (s *Server) recover() {
	now := s.now()
	st := s.cfg.Store

	recs, err := st.LoadJobs()
	if err != nil {
		s.cfg.Logger.Warn("job recovery failed", "err", err)
	}
	var keep []store.JobRecord
	for _, r := range recs {
		var seq uint64
		if _, err := fmt.Sscanf(r.ID, "j%d", &seq); err == nil && seq > s.seq {
			s.seq = seq
		}
		kind := Kind(r.Kind)
		switch r.State {
		case store.JobQueued:
			_, known := s.cfg.Runners[kind]
			if !known || len(r.Req) == 0 {
				s.recovered.LostJobs++
				s.cfg.Logger.Warn("cannot requeue job", "job", r.ID, "kind", r.Kind)
				continue
			}
			j := newJob(r.ID, kind, hashRequest(kind, r.Req), r.Req, r.Created)
			j.trace = obs.NewTrace("job")
			j.trace.SetLogger(s.cfg.Logger.With("job", j.ID), s.cfg.SlowOp)
			j.pinned = true
			select {
			case s.queue <- j:
				s.jobs[j.ID] = j
				s.inflight[j.Key] = j
				s.m.requeued.Add(1)
				s.recovered.Requeued++
				keep = append(keep, r)
			default:
				// More unfinished jobs than queue slots: surface the loss
				// as a failed job instead of dropping it silently.
				j.state = StateFailed
				j.errMsg = "not requeued after restart: queue full"
				j.finished = now
				close(j.done)
				j.progress.close()
				s.jobs[j.ID] = j
				s.finished = append(s.finished, finishedRef{id: j.ID, at: now})
				s.recovered.LostJobs++
				r.State = store.JobFailed
				r.Error = j.errMsg
				r.Done = now
				keep = append(keep, r)
			}
		case store.JobDone, store.JobFailed, store.JobCancelled:
			// Keep terminal jobs queryable for the result-TTL window, and
			// feed unexpired results back into the LRU store.
			if !r.Expires.After(now) {
				continue
			}
			j := newJob(r.ID, kind, hashRequest(kind, r.Req), nil, r.Created)
			j.state = State(r.State)
			j.result = r.Result
			j.errMsg = r.Error
			j.finished = r.Done
			close(j.done)
			j.progress.close()
			s.jobs[j.ID] = j
			s.finished = append(s.finished, finishedRef{id: j.ID, at: r.Done})
			if r.State == store.JobDone && len(r.Req) > 0 {
				s.store.putWithExpiry(hashRequest(kind, r.Req), r.ID, r.Result, r.Expires)
			}
			s.recovered.Restored++
			keep = append(keep, r)
		}
	}
	if err == nil {
		if cerr := st.CompactJobs(keep); cerr != nil {
			s.cfg.Logger.Warn("job log compaction failed", "err", cerr)
		}
	}

	logs, err := st.LoadSessions()
	if err != nil {
		s.cfg.Logger.Warn("session recovery failed", "err", err)
		return
	}
	for _, log := range logs {
		sess, err := store.Replay(log)
		if err != nil {
			// The log survives on disk for forensics; the session does
			// not come back.
			s.recovered.BadReplay++
			s.cfg.Logger.Warn("session replay failed", "session", log.ID, "err", err)
			continue
		}
		if err := s.sessions.Adopt(sess); err != nil {
			sess.Close()
			s.recovered.BadReplay++
			s.cfg.Logger.Warn("session adopt failed", "session", log.ID, "err", err)
			continue
		}
		s.attachSessionJournal(sess, len(log.Records))
		s.recovered.Sessions++
	}
}

// attachSessionJournal installs the write-ahead hook on a durable
// session and registers its compaction bookkeeping. pending is the
// number of journal records already in the WAL since its snapshot.
func (s *Server) attachSessionJournal(sess *session.Session, pending int) {
	d := &sessionDurable{}
	d.pending.Store(int64(pending))
	s.dmu.Lock()
	s.durables[sess.ID] = d
	s.dmu.Unlock()
	st := s.cfg.Store
	id := sess.ID
	sess.SetJournal(func(rec session.JournalRecord) error {
		n, err := st.AppendEdit(id, rec)
		if err == nil {
			d.pending.Store(int64(n))
		}
		return err
	})
}

// dropDurable forgets a session's compaction bookkeeping.
func (s *Server) dropDurable(id string) {
	s.dmu.Lock()
	delete(s.durables, id)
	s.dmu.Unlock()
}

// maybeCompact rewrites a session's WAL as a fresh snapshot once enough
// journal records accumulated. Called after the edit that may have
// crossed the threshold, never under the session lock.
func (s *Server) maybeCompact(sess *session.Session) {
	if s.cfg.Store == nil {
		return
	}
	s.dmu.Lock()
	d := s.durables[sess.ID]
	s.dmu.Unlock()
	if d == nil || d.pending.Load() < int64(s.cfg.CompactEvery) {
		return
	}
	if !d.compacting.CompareAndSwap(false, true) {
		return
	}
	defer d.compacting.Store(false)
	snap, seq, err := sess.Checkpoint()
	if err == nil {
		err = s.cfg.Store.CompactSession(sess.ID, seq, snap)
	}
	if err != nil {
		s.cfg.Logger.Warn("session compaction failed", "session", sess.ID, "err", err)
		return
	}
	d.pending.Store(0)
	s.m.compactions.Add(1)
}

// Submit enqueues an asynchronous job for kind with the given request
// body and pins it: it runs to completion unless explicitly cancelled.
// A byte-identical queued or running request returns the existing job
// (request deduplication); a recently completed identical request returns
// an already-done job answered from the result store.
func (s *Server) Submit(kind Kind, body []byte) (*Job, error) {
	return s.submit(kind, body, true, obs.TraceID{})
}

// SubmitAttached is Submit for a caller that waits on the result: the job
// is not pinned, and the caller must Detach when it stops waiting. When
// the last waiter of an unpinned job detaches before completion the job
// is cancelled — the client-abort path.
func (s *Server) SubmitAttached(kind Kind, body []byte) (*Job, error) {
	return s.submit(kind, body, false, obs.TraceID{})
}

// submit enqueues one job. A non-zero tid is an inbound trace identity
// (parsed from the request's traceparent header): the job's trace
// adopts it, so the replica's spans join the router's request trace.
// Deduplicated submissions keep the first submitter's trace ID — a
// trace records what ran, and the work ran once.
func (s *Server) submit(kind Kind, body []byte, pin bool, tid obs.TraceID) (*Job, error) {
	if _, ok := s.cfg.Runners[kind]; !ok {
		return nil, fmt.Errorf("serve: unknown job kind %q", kind)
	}
	key := hashRequest(kind, body)
	now := s.now()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.m.rejectedDraining.Add(1)
		return nil, ErrDraining
	}
	s.pruneLocked(now)

	// Deduplicate against the in-flight set.
	if j := s.inflight[key]; j != nil {
		s.m.dedupHits.Add(1)
		j.mu.Lock()
		j.deduped++
		if pin {
			j.pinned = true
		} else {
			j.waiters++
		}
		j.mu.Unlock()
		return j, nil
	}

	// Answer from the result store when a byte-identical request
	// completed within the TTL. The hit re-serves the ORIGINAL job ID:
	// minting a fresh alias ID here would acknowledge an ID with no
	// write-ahead record behind it — the original's terminal record is
	// already durable, an alias would evaporate on restart.
	if res, origID := s.store.get(key, now); res != nil {
		s.m.storeHits.Add(1)
		if j := s.jobs[origID]; j != nil {
			return j, nil
		}
		// Original pruned from the job map: resurrect it under its own
		// ID, backed by the stored result.
		j := newJob(origID, kind, key, nil, now)
		j.state = StateDone
		j.result = res
		j.finished = now
		close(j.done)
		j.progress.close()
		s.jobs[j.ID] = j
		s.finished = append(s.finished, finishedRef{id: j.ID, at: now})
		s.m.finishedDone.Add(1)
		return j, nil
	}
	s.m.storeMisses.Add(1)

	j := newJob(s.nextIDLocked(key), kind, key, body, now)
	// The trace starts at submission so its age at run start is the queue
	// wait. The root is named "job", not the job ID — span names feed the
	// phase histogram labels, which must stay low-cardinality.
	j.trace = obs.NewTrace("job")
	j.trace.SetID(tid)
	j.trace.SetLogger(s.cfg.Logger.With("job", j.ID), s.cfg.SlowOp)
	if pin {
		j.pinned = true
	} else {
		j.waiters = 1
	}
	// After start-up every send on s.queue happens under s.mu and the
	// workers only receive, so a free slot seen here is still free below.
	if len(s.queue) == cap(s.queue) {
		s.m.rejectedFull.Add(1)
		return nil, ErrQueueFull
	}
	s.jobs[j.ID] = j
	s.inflight[key] = j
	s.m.submitted.Add(1)
	// Write-ahead before the caller sees the job ID: an acknowledged
	// submission survives a restart (it is requeued, not lost). The
	// record also goes in before a worker can see the job: a worker
	// that finished first would append its terminal record ahead of
	// this one, and recovery, which keeps each job's last record, would
	// run the job again.
	if s.cfg.Store != nil {
		if err := s.cfg.Store.AppendJob(store.JobRecord{
			ID: j.ID, Kind: string(kind), State: store.JobQueued,
			Req: body, Created: now,
		}); err != nil {
			s.cfg.Logger.Warn("job journal append", "job", j.ID, "err", err)
		}
	}
	s.queue <- j
	return j, nil
}

// persistJobFinal appends a job's terminal record, fixing its durable
// state so recovery does not rerun it. Jobs flagged for requeue (drain
// cancelled them, the work is still owed) skip the record on purpose:
// their last durable state stays "queued".
func (s *Server) persistJobFinal(j *Job, final State) {
	if s.cfg.Store == nil {
		return
	}
	j.mu.Lock()
	requeue := j.requeue
	rec := store.JobRecord{
		ID: j.ID, Kind: string(j.Kind), State: string(final),
		Result: j.result, Error: j.errMsg,
		Created: j.Created, Done: j.finished,
		Expires: j.finished.Add(s.cfg.ResultTTL),
	}
	j.mu.Unlock()
	if requeue {
		return
	}
	if err := s.cfg.Store.AppendJob(rec); err != nil {
		s.cfg.Logger.Warn("job journal append", "job", j.ID, "err", err)
	}
}

// nextIDLocked mints a job ID: a sequence number plus the content-hash
// prefix, so identical requests are visibly related in logs.
func (s *Server) nextIDLocked(key engine.Key) string {
	s.seq++
	return fmt.Sprintf("j%06d-%08x", s.seq, uint32(key[0]))
}

// Job returns a job by ID.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, ErrNotFound
	}
	return j, nil
}

// Cancel aborts a job: a queued job never starts, a running job's context
// is cancelled (its runner returns early and the worker is freed).
// Returns false when the job is already terminal.
func (s *Server) Cancel(id string) (bool, error) {
	j, err := s.Job(id)
	if err != nil {
		return false, err
	}
	return s.cancelJob(j, "cancelled", false), nil
}

// Detach releases one waiting submission obtained via SubmitAttached.
// When the last waiter of an unpinned, still-pending job detaches, the
// job is cancelled.
func (s *Server) Detach(j *Job) {
	j.mu.Lock()
	if j.waiters > 0 {
		j.waiters--
	}
	abandon := j.waiters == 0 && !j.pinned && !j.state.terminal()
	j.mu.Unlock()
	if abandon {
		s.cancelJob(j, "cancelled: all clients disconnected", false)
	}
}

// cancelJob moves a job to StateCancelled (queued) or requests
// cancellation (running). Reports whether it acted. requeue marks the
// cancellation as administrative (drain deadline): the job's durable
// state stays "queued" and a restarted server runs it again.
func (s *Server) cancelJob(j *Job, reason string, requeue bool) bool {
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.canceled = true
		j.requeue = requeue
		j.errMsg = reason
		j.finished = s.now()
		j.mu.Unlock()
		s.persistJobFinal(j, StateCancelled)
		s.release(j, StateCancelled)
		return true
	case StateRunning:
		j.canceled = true
		j.requeue = requeue
		j.errMsg = reason
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel() // the worker finishes the bookkeeping
		}
		return true
	default:
		j.mu.Unlock()
		return false
	}
}

// worker drains the queue until it is closed by Drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// run executes one dequeued job under its deadline.
func (s *Server) run(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting in the queue
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.JobTimeout)
	j.state = StateRunning
	j.cancel = cancel
	j.started = s.now()
	runner := s.cfg.Runners[j.Kind]
	req := j.req
	tr := j.trace
	j.mu.Unlock()

	if tr != nil {
		// The trace is as old as the submission: its age is the queue wait.
		tr.RecordSpan("queue.wait", 0, tr.Age())
		ctx = obs.WithTrace(ctx, tr)
	}
	// Intermediate results the runner publishes stream to the job's event
	// subscribers (see progress.go).
	ctx = withPublisher(ctx, func(stage string, v any) {
		if j.progress.publish(stage, v, s.now()) {
			s.m.progressEvents.Add(1)
		}
	})
	s.m.busy.Add(1)
	t0 := time.Now()
	kctx, ksp := obs.Start(ctx, string(j.Kind))
	res, err := runner(kctx, req)
	ksp.End()
	dur := time.Since(t0)
	s.m.busy.Add(-1)
	cancel()

	var timings []obs.PhaseTiming
	if tr != nil {
		tr.Finish()
		timings = tr.Timings()
		for _, t := range timings {
			s.phases.Observe(t.Phase, t.TotalSeconds())
		}
	}
	s.cfg.Logger.Info("job finished",
		"job", j.ID, "kind", j.Kind, "dur_ms", dur.Milliseconds(),
		"err", err != nil)

	j.mu.Lock()
	j.timings = timings
	j.cancel = nil
	j.finished = s.now()
	var final State
	switch {
	case j.canceled:
		final = StateCancelled
		if j.errMsg == "" {
			j.errMsg = "cancelled"
		}
	case errors.Is(err, context.DeadlineExceeded):
		final = StateFailed
		j.errMsg = fmt.Sprintf("deadline exceeded after %v", s.cfg.JobTimeout)
	case err != nil:
		final = StateFailed
		j.errMsg = err.Error()
	default:
		raw, merr := json.Marshal(res)
		if merr != nil {
			final = StateFailed
			j.errMsg = fmt.Sprintf("result marshal: %v", merr)
		} else {
			final = StateDone
			j.result = raw
		}
	}
	j.state = final
	result := j.result
	j.mu.Unlock()

	s.persistJobFinal(j, final)
	if final == StateDone {
		s.mu.Lock()
		s.store.put(j.Key, j.ID, result, s.now())
		s.mu.Unlock()
	}
	s.release(j, final)
}

// release retires a terminal job from the in-flight set, then wakes its
// waiters and event streams. Callers append the terminal record first:
// Wait and ?wait=1 never answer for a job whose outcome a restart could
// still lose.
func (s *Server) release(j *Job, final State) {
	s.finishJob(j, final)
	j.mu.Lock()
	close(j.done)
	j.progress.close()
	j.mu.Unlock()
}

// finishJob records a terminal transition: the job leaves the in-flight
// dedup set and joins the pruning list.
func (s *Server) finishJob(j *Job, final State) {
	switch final {
	case StateDone:
		s.m.finishedDone.Add(1)
	case StateFailed:
		s.m.finishedFailed.Add(1)
	case StateCancelled:
		s.m.finishedCancelled.Add(1)
	}
	s.mu.Lock()
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	s.finished = append(s.finished, finishedRef{id: j.ID, at: s.now()})
	s.mu.Unlock()
}

// pruneLocked drops finished jobs beyond the retention window (ResultTTL)
// or count (ResultCap), so the job map stays bounded under sustained
// traffic. Callers hold s.mu.
func (s *Server) pruneLocked(now time.Time) {
	cutoff := now.Add(-s.cfg.ResultTTL)
	for len(s.finished) > 0 &&
		(s.finished[0].at.Before(cutoff) || len(s.finished) > s.cfg.ResultCap) {
		delete(s.jobs, s.finished[0].id)
		s.finished = s.finished[1:]
	}
}

// QueueDepth returns the number of jobs waiting in the queue.
func (s *Server) QueueDepth() int { return len(s.queue) }

// QueueCap returns the bounded queue's capacity — with QueueDepth, the
// saturation signal the cluster router's admission control keys on.
func (s *Server) QueueCap() int { return s.cfg.QueueDepth }

// Draining reports whether intake has stopped.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops intake and waits for queued and running jobs to finish.
// When ctx expires first, every remaining job is cancelled and the
// workers are awaited before returning ctx's error. Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	// Close the design sessions so any open SSE streams terminate.
	s.sessions.CloseAll()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed: abort whatever is still alive.
	s.mu.Lock()
	var pending []*Job
	for _, j := range s.jobs {
		if !j.State().terminal() {
			pending = append(pending, j)
		}
	}
	s.mu.Unlock()
	for _, j := range pending {
		// Requeue: the work was accepted and is still owed. The durable
		// state stays "queued" and a restarted server picks it up — drain
		// no longer silently discards the backlog.
		s.cancelJob(j, "cancelled: drain deadline exceeded", true)
	}
	<-done
	return ctx.Err()
}
