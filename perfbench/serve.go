package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/emi"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/serve"
	"repro/internal/session"
	"repro/internal/store"
)

const (
	// serveRate is the open-loop offered load in requests/s: about a
	// quarter of the closed-loop capacity on the reference machine (2 vCPU,
	// ≈1400 requests/s). Nearer half, the two-connection loop queues behind
	// place jobs often enough that the median flips between the edits'
	// and the jobs' latency modes from seed to seed.
	serveRate = 350.0
	// serveClients bounds the load threads and their connections (nproc
	// of the reference machine).
	serveClients = 2
	// serveLateBoundMS marks a run invalid when the generator's p99
	// lateness (send time − due time) exceeds it: the offered rate was
	// not actually offered.
	serveLateBoundMS = 500.0

	// openShare is the open-loop phase's share of the measured time; the
	// closed-loop phase gets the rest. The latency tail needs the larger
	// sample.
	openShare = 0.75
	// windowDur is the closed-loop throughput window: ops_per_s is the
	// median of the per-window completion rates, so one stall moves one
	// window, not the figure.
	windowDur = 500 * time.Millisecond

	serveReplicas     = 2    // emiserve replicas behind the router
	serveSessions     = 8    // durable design sessions created at set-up
	serveSessionParts = 10   // parts per session design
	serveCompactEvery = 256  // WAL records between session compactions (emiserve's default)
	servePlaceParts   = 5    // parts per place-job design
	placeExact        = 24   // place jobs per pass re-placed in process
	predictMaxFreq    = 30e6 // predict jobs cover the CISPR band

	// predictRepeat is the share of predict jobs that repeat an earlier
	// body byte for byte (answered from the result store).
	predictRepeat = 0.40
)

// mixDeck is the request mix: every run of len(mixDeck) requests of a
// stream holds exactly these classes, in seeded order — 75% session
// edits (some undo/redo), 22.5% predict jobs, 2.5% place jobs. Fixed
// proportions keep a seed's mix from drifting with the luck of the draw,
// and the edit share keeps the median inside the edits' latency mode
// instead of on the gap between edits and jobs.
var mixDeck = append(append(
	repeat("edit", 30),
	repeat("predict", 9)...),
	"place")

func repeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// sop is one request of the serve stream.
type sop struct {
	class string // "edit" or "job"
	kind  string // move, rotate, undo, redo, predict, place
	sess  int    // edit target
	body  []byte
	edit  session.Edit // move/rotate: what the client-side replay applies
}

// sessHist mirrors one session's undo/redo depth and WAL compaction
// point, so the generator only emits undos and redos the server can
// honour.
type sessHist struct{ undo, redo, pending int }

// mutate records one acknowledged mutation; at the compaction point the
// server checkpoints the session, which drops its history.
func (h *sessHist) mutate() {
	h.pending++
	if h.pending >= serveCompactEvery {
		*h = sessHist{}
	}
}

// streamGen generates one load thread's request stream. Each thread owns
// the sessions with index ≡ thread (mod serveClients), so edits to one
// session are serialized and the acknowledged order is the send order.
type streamGen struct {
	rng       *rand.Rand
	owned     []int
	hist      map[int]*sessHist
	designs   []*layout.Design // session designs, by index
	predicted [][]byte         // distinct predict bodies sent so far
	deck      []string         // classes left in the current mix deck
	n         int
}

func newStreamGen(seed int64, thread int, designs []*layout.Design) *streamGen {
	g := &streamGen{
		rng:     rand.New(rand.NewSource(seed*7919 + int64(thread))),
		hist:    map[int]*sessHist{},
		designs: designs,
	}
	for s := thread; s < len(designs); s += serveClients {
		g.owned = append(g.owned, s)
		g.hist[s] = &sessHist{}
	}
	return g
}

func (g *streamGen) next() sop {
	g.n++
	if len(g.deck) == 0 {
		g.deck = append(g.deck, mixDeck...)
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	class := g.deck[0]
	g.deck = g.deck[1:]
	switch class {
	case "edit":
		s := pick(g.rng, g.owned)
		h := g.hist[s]
		rr := g.rng.Float64()
		var o sop
		switch {
		case rr < 0.10 && h.undo > 0:
			o = sop{class: "edit", kind: "undo", sess: s}
			h.undo--
			h.redo++
		case rr < 0.15 && h.redo > 0:
			o = sop{class: "edit", kind: "redo", sess: s}
			h.redo--
			h.undo++
		default:
			comps := g.designs[s].Comps
			ref := comps[g.rng.Intn(len(comps))].Ref
			deg := float64(90 * g.rng.Intn(4))
			if rr < 0.40 {
				o = sop{class: "edit", kind: "rotate", sess: s,
					edit: session.Edit{Op: session.OpRotate, Ref: ref, Rot: geom.Rad(deg)}}
				o.body, _ = json.Marshal(serve.SessionEditRequest{Op: session.OpRotate, Ref: ref, RotDeg: &deg})
			} else {
				x := 0.5 * float64(20+g.rng.Intn(161)) // 10..90 mm in 0.5 mm steps
				y := 0.5 * float64(20+g.rng.Intn(121)) // 10..70 mm
				o = sop{class: "edit", kind: "move", sess: s,
					edit: session.Edit{Op: session.OpMove, Ref: ref, Center: geom.V2(x*1e-3, y*1e-3), Rot: geom.Rad(deg)}}
				o.body, _ = json.Marshal(serve.SessionEditRequest{Op: session.OpMove, Ref: ref, XMM: &x, YMM: &y, RotDeg: &deg})
			}
			h.undo++
			h.redo = 0
		}
		h.mutate()
		return o
	case "predict":
		if len(g.predicted) > 0 && g.rng.Float64() < predictRepeat {
			recent := g.predicted
			if len(recent) > 64 {
				recent = recent[len(recent)-64:]
			}
			return sop{class: "job", kind: "predict", body: pick(g.rng, recent)}
		}
		body, _ := json.Marshal(serve.PredictRequest{
			Netlist: converterNetlist(g.rng), Sources: []string{"IQ1", "VD1"},
			Measure: "lisn_meas", MaxFreq: predictMaxFreq,
		})
		g.predicted = append(g.predicted, body)
		return sop{class: "job", kind: "predict", body: body}
	default:
		text, _ := designText(smallDesign(g.rng, fmt.Sprintf("place-%d", g.n), servePlaceParts, false))
		body, _ := json.Marshal(serve.PlaceRequest{Design: text})
		return sop{class: "job", kind: "place", body: body}
	}
}

// outcome is one sent request's observation.
type outcome struct {
	op      sop
	reqID   string
	due     time.Time // open loop: scheduled send time; closed loop: send time
	sent    time.Time
	done    time.Time
	status  int
	err     error
	view    *jobView // job responses that carried a view
	rejects bool     // 429 or 503: refused by admission control
}

func (o *outcome) latencyMS() float64 { return float64(o.done.Sub(o.due)) / 1e6 }
func (o *outcome) ok() bool           { return o.err == nil && o.status/100 == 2 }

// jobView is the part of serve's job view the benchmark reads.
type jobView struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
	Timings  []phaseTiming   `json:"timings"`
}

type phaseTiming struct {
	Phase   string  `json:"phase"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
}

// replica is one in-process emiserve: server, durable store and HTTP
// listener.
type replica struct {
	srv *serve.Server
	st  *store.FileStore
	hs  *http.Server
	url string
}

// testbed is the served system under load: two replicas behind a
// router, each on its own loopback listener, plus the load client.
type testbed struct {
	dir      string
	replicas []*replica
	router   *cluster.Router
	rhs      *http.Server
	url      string
	client   *http.Client
	sessIDs  []string
	rec      *recorder  // nil when untraced
	serveErr chan error // one slot per listener, so a failing Serve never blocks
	serving  sync.WaitGroup
}

// listen serves h on a fresh loopback port.
func (tb *testbed) listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	tb.serving.Add(1)
	go func() {
		defer tb.serving.Done()
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			tb.serveErr <- err
		}
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

// startTestbed builds the cluster in a fresh data directory under the
// build directory and creates the seed's durable sessions through the
// router. rec, when non-nil, receives the wrappers' timings.
func startTestbed(root string, designs []string, rec *recorder) (*testbed, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "serve-")
	if err != nil {
		return nil, err
	}
	tb := &testbed{dir: dir, rec: rec, serveErr: make(chan error, serveReplicas+1)}
	var members []cluster.Member
	for i := 0; i < serveReplicas; i++ {
		name := fmt.Sprintf("r%d", i)
		fs, err := store.OpenFile(filepath.Join(dir, name), store.SyncOff)
		if err != nil {
			tb.close()
			return nil, err
		}
		var st store.Store = fs
		if rec != nil {
			st = &timedStore{Store: fs, rec: rec, lane: name}
		}
		srv := serve.New(serve.Config{Store: st, CompactEvery: serveCompactEvery})
		var h http.Handler = srv.Handler()
		if rec != nil {
			h = rec.middleware(name, h)
		}
		rp := &replica{srv: srv, st: fs}
		tb.replicas = append(tb.replicas, rp)
		if rp.hs, rp.url, err = tb.listen(h); err != nil {
			tb.close()
			return nil, err
		}
		members = append(members, cluster.Member{Name: name, URL: rp.url})
	}
	var fwd http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 16}
	if rec != nil {
		fwd = &timedTransport{base: fwd, rec: rec}
	}
	rt, err := cluster.New(cluster.Config{Members: members, Client: &http.Client{Transport: fwd}})
	if err != nil {
		tb.close()
		return nil, err
	}
	rt.Start()
	tb.router = rt
	if tb.rhs, tb.url, err = tb.listen(rt.Handler()); err != nil {
		tb.close()
		return nil, err
	}
	tb.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients,
	}}
	for i, d := range designs {
		body, _ := json.Marshal(serve.SessionCreateRequest{Design: d})
		resp, err := tb.client.Post(tb.url+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			tb.close()
			return nil, err
		}
		var st session.State
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			tb.close()
			return nil, fmt.Errorf("create session %d: status %d: %v", i, resp.StatusCode, err)
		}
		tb.sessIDs = append(tb.sessIDs, st.ID)
	}
	return tb, nil
}

// close stops the router and the replicas, waits for their goroutines
// and removes the data directory.
func (tb *testbed) close() {
	if tb.client != nil {
		tb.client.CloseIdleConnections()
	}
	if tb.rhs != nil {
		_ = tb.rhs.Close()
	}
	if tb.router != nil {
		tb.router.Close()
	}
	for _, rp := range tb.replicas {
		if rp.hs != nil {
			_ = rp.hs.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = rp.srv.Drain(ctx)
		cancel()
		_ = rp.st.Close()
	}
	tb.serving.Wait()
	_ = os.RemoveAll(tb.dir)
}

// send issues one request of the stream through the router.
func (tb *testbed) send(ctx context.Context, o *outcome) {
	var path string
	switch o.op.kind {
	case "move", "rotate":
		path = "/v1/sessions/" + tb.sessIDs[o.op.sess] + "/edits"
	case "undo", "redo":
		path = "/v1/sessions/" + tb.sessIDs[o.op.sess] + "/" + o.op.kind
	default:
		path = "/v1/" + o.op.kind + "?wait=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, tb.url+path, bytes.NewReader(o.op.body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", o.reqID)
	o.sent = time.Now()
	resp, err := tb.client.Do(req)
	if err != nil {
		o.err, o.done = err, time.Now()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.status = resp.StatusCode
	o.rejects = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
	if err != nil {
		o.err = err
		return
	}
	if o.op.class == "job" {
		v := &jobView{}
		if err := json.Unmarshal(body, v); err == nil {
			o.view = v
		} else if o.status == http.StatusOK {
			o.err = fmt.Errorf("job view: %w", err)
		}
	}
	if tb.rec != nil {
		tb.rec.add("loadgen.request", "", o.reqID, o.sent, o.done)
	}
}

// openLoop offers the streams at serveRate for d: each thread sends its
// share of a fixed schedule (request i due at start + i/serveRate) as
// soon as it is due and its connection is free. Latency counts from the
// due time, so a stall charges every request it delays.
func (tb *testbed) openLoop(gens []*streamGen, d time.Duration, tag string) []*outcome {
	n := int(serveRate * d.Seconds())
	start := time.Now().Add(20 * time.Millisecond)
	var mu sync.Mutex
	var out []*outcome
	var wg sync.WaitGroup
	for t := range gens {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			var mine []*outcome
			for i := t; i < n; i += len(gens) {
				o := &outcome{op: gens[t].next(),
					reqID: fmt.Sprintf("%s-%d", tag, i),
					due:   start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))}
				if w := time.Until(o.due); w > 0 {
					time.Sleep(w)
				}
				tb.send(context.Background(), o)
				mine = append(mine, o)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	return out
}

// closedLoop runs each thread as a client that sends its next request
// when the previous one completes, for d.
func (tb *testbed) closedLoop(gens []*streamGen, d time.Duration, tag string) ([]*outcome, time.Duration) {
	var mu sync.Mutex
	var out []*outcome
	var wg sync.WaitGroup
	t0 := time.Now()
	end := t0.Add(d)
	for t := range gens {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			var mine []*outcome
			for i := 0; time.Now().Before(end); i++ {
				o := &outcome{op: gens[t].next(), reqID: fmt.Sprintf("%s-%d-%d", tag, t, i)}
				tb.send(context.Background(), o)
				o.due = o.sent
				mine = append(mine, o)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	return out, time.Since(t0)
}

// tailWindows is how many consecutive slices of the open-loop phase the
// serve-mixed tail is read from: one stall (a GC cycle, a noisy
// neighbour) delays every request due while it lasts and can carry a
// single window's p99, but not the median of three.
const tailWindows = 3

// windowTail is the median over tailWindows consecutive slices of the
// open-loop phase (by due time) of each slice's q-quantile latency.
func windowTail(outs []*outcome, q float64) float64 {
	sorted := append([]*outcome(nil), outs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].due.Before(sorted[j].due) })
	var tails []float64
	for w := 0; w < tailWindows; w++ {
		lo, hi := w*len(sorted)/tailWindows, (w+1)*len(sorted)/tailWindows
		all, _, _, _ := latencies(sorted[lo:hi])
		tails = append(tails, quantile(all, q))
	}
	return median(tails)
}

// windowRate is the median over whole windowDur windows of the
// closed-loop completion rate, in requests/s.
func windowRate(outs []*outcome, start time.Time, wall time.Duration) float64 {
	n := int(wall / windowDur)
	if n < 1 {
		return float64(len(outs)) / wall.Seconds()
	}
	counts := make([]float64, n)
	for _, o := range outs {
		if w := int(o.done.Sub(start) / windowDur); w >= 0 && w < n {
			counts[w]++
		}
	}
	return median(counts) / windowDur.Seconds()
}

// scrape sums one counter or histogram series over the replicas' own
// /metrics expositions.
func (tb *testbed) scrape(series ...string) (map[string]float64, error) {
	sums := map[string]float64{}
	for _, rp := range tb.replicas {
		resp, err := tb.client.Get(rp.url + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			for _, s := range series {
				if rest, ok := strings.CutPrefix(line, s+" "); ok {
					v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
					if err == nil {
						sums[s] += v
					}
				}
			}
		}
		resp.Body.Close()
	}
	return sums, nil
}

// sessionDesigns generates the seed's session designs (text form, as
// sent) and their parsed forms (for the generator and the replay).
func sessionDesigns(seed int64) ([]string, []*layout.Design, error) {
	rng := rand.New(rand.NewSource(seed*104_729 + 17))
	var texts []string
	var parsed []*layout.Design
	for i := 0; i < serveSessions; i++ {
		text, err := designText(smallDesign(rng, fmt.Sprintf("session-%d", i), serveSessionParts, true))
		if err != nil {
			return nil, nil, err
		}
		d, err := layout.ReadString(text)
		if err != nil {
			return nil, nil, err
		}
		texts = append(texts, text)
		parsed = append(parsed, d)
	}
	return texts, parsed, nil
}

// servePass is one measured pass over a fresh testbed: an open-loop
// phase for latency, then a closed-loop phase for throughput, then the
// answer checks.
type servePass struct {
	open, closed []*outcome
	closedWall   time.Duration
	closedStart  time.Time
	metrics      map[string]float64
	engine       engine.Stats // engine counters after the load, before the checks
}

func runServePass(ctx context.Context, opt options, texts []string, designs []*layout.Design, rec *recorder, res *result, tag string) (*servePass, error) {
	tb, err := startTestbed(opt.root, texts, rec)
	if err != nil {
		return nil, err
	}
	defer tb.close()
	gens := make([]*streamGen, serveClients)
	for t := range gens {
		gens[t] = newStreamGen(opt.seed, t, designs)
	}
	secs := func(f float64) time.Duration { return time.Duration(f * opt.seconds * float64(time.Second)) }
	runtime.GC()
	p := &servePass{}
	p.open = tb.openLoop(gens, secs(openShare), tag+"o")
	p.closedStart = time.Now()
	p.closed, p.closedWall = tb.closedLoop(gens, secs(1-openShare), tag+"c")
	p.metrics, err = tb.scrape(
		`emiserve_dedup_hits_total`, `emiserve_result_store_hits_total`,
		`emiserve_phase_seconds_sum{phase="session.edit"}`, `emiserve_phase_seconds_count{phase="session.edit"}`,
		`emiserve_phase_seconds_sum{phase="drc.recheck"}`, `emiserve_phase_seconds_count{phase="drc.recheck"}`)
	if err != nil {
		return nil, err
	}
	p.engine = engine.Snapshot()
	checkServe(ctx, tb, designs, append(append([]*outcome(nil), p.open...), p.closed...), res)
	select {
	case err := <-tb.serveErr:
		return nil, fmt.Errorf("listener: %w", err)
	default:
	}
	return p, nil
}

// checkServe counts every failed, refused or wrong answer: each
// session's final snapshot must equal a client-side replay of exactly
// the acknowledged edits, and every job result must agree with an
// in-process run of the same request (see checkJob).
func checkServe(ctx context.Context, tb *testbed, designs []*layout.Design, outs []*outcome, res *result) {
	res.attempted += len(outs)
	acked := make([][]*outcome, len(designs))
	for _, o := range outs {
		if !o.ok() {
			res.fail("%s %s: status %d err %v %s", o.op.kind, o.reqID, o.status, o.err, o.viewErr())
			continue
		}
		if o.op.class == "edit" {
			acked[o.op.sess] = append(acked[o.op.sess], o)
		}
	}
	for s := range acked {
		// Each session is edited by one thread, whose outcomes are in
		// send order within each phase; order by send time across phases.
		list := acked[s]
		sort.Slice(list, func(i, j int) bool { return list[i].sent.Before(list[j].sent) })
		if err := checkSession(tb, s, designs[s], list); err != nil {
			res.fail("session %d: %v", s, err)
		}
	}
	predictRef := map[string][]float64{}
	placeRef := map[string]string{}
	for _, o := range outs {
		if o.op.class != "job" || !o.ok() {
			continue
		}
		if err := checkJob(ctx, o, predictRef, placeRef); err != nil {
			res.fail("%s %s: %v", o.op.kind, o.reqID, err)
		}
	}
}

// checkSession replays the acknowledged edits on a client-side session
// and compares its snapshot with the server's.
func checkSession(tb *testbed, s int, d *layout.Design, acked []*outcome) error {
	replay := session.New("replay", d)
	mutations := 0
	for _, o := range acked {
		var err error
		switch o.op.kind {
		case "undo":
			_, err = replay.Undo()
		case "redo":
			_, err = replay.Redo()
		default:
			_, err = replay.Apply(o.op.edit)
		}
		if err != nil {
			return fmt.Errorf("replay %s: %w", o.op.kind, err)
		}
		if mutations++; mutations%serveCompactEvery == 0 {
			if _, _, err := replay.Checkpoint(); err != nil {
				return err
			}
		}
	}
	want, err := replay.Snapshot()
	if err != nil {
		return err
	}
	resp, err := tb.client.Get(tb.url + "/v1/sessions/" + tb.sessIDs[s] + "/snapshot")
	if err != nil {
		return err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		return fmt.Errorf("snapshot (status %d, %d bytes) differs from the replay of %d acknowledged edits",
			resp.StatusCode, len(got), len(acked))
	}
	return nil
}

// checkJob compares a job's result with an in-process run of the same
// request, computed once per distinct body.
func checkJob(ctx context.Context, o *outcome, predictRef map[string][]float64, placeRef map[string]string) error {
	v := o.view
	if v == nil || v.State != "done" {
		return fmt.Errorf("job not done: %+v", v)
	}
	key := string(o.op.body)
	switch o.op.kind {
	case "predict":
		var got serve.PredictResponse
		if err := json.Unmarshal(v.Result, &got); err != nil {
			return err
		}
		want, ok := predictRef[key]
		if !ok {
			var req serve.PredictRequest
			if err := json.Unmarshal(o.op.body, &req); err != nil {
				return err
			}
			ckt, err := netlist.ParseString(req.Netlist)
			if err != nil {
				return err
			}
			spec, err := (&emi.Predictor{Circuit: ckt, Sources: req.Sources,
				MeasureNode: req.Measure, MaxFreq: req.MaxFreq}).SpectrumCtx(ctx)
			if err != nil {
				return err
			}
			want = spec.DB
			predictRef[key] = want
		}
		if len(got.LevelsDBuV) != len(want) {
			return fmt.Errorf("%d levels, in-process %d", len(got.LevelsDBuV), len(want))
		}
		for i := range want {
			if got.LevelsDBuV[i] != want[i] {
				return fmt.Errorf("harmonic %d: %v dBµV, in-process %v", i, got.LevelsDBuV[i], want[i])
			}
		}
	case "place":
		var got serve.PlaceResponse
		if err := json.Unmarshal(v.Result, &got); err != nil {
			return err
		}
		d, err := layout.ReadString(got.Design)
		if err != nil {
			return err
		}
		for _, c := range d.Comps {
			if !c.Placed {
				return fmt.Errorf("%s left unplaced", c.Ref)
			}
		}
		if got.Placed != len(d.Comps) || got.Green != (len(got.Violations) == 0) {
			return fmt.Errorf("placed %d of %d, green %v with %d violations",
				got.Placed, len(d.Comps), got.Green, len(got.Violations))
		}
		// Re-placing in process costs as much as the job; the first
		// placeExact distinct designs of a pass must match byte for byte.
		want, ok := placeRef[key]
		if !ok {
			if len(placeRef) >= placeExact {
				return nil
			}
			var req serve.PlaceRequest
			if err := json.Unmarshal(o.op.body, &req); err != nil {
				return err
			}
			ref, err := layout.ReadString(req.Design)
			if err != nil {
				return err
			}
			if _, err := place.AutoPlaceCtx(ctx, ref, place.Options{}); err != nil {
				return err
			}
			if want, err = designText(ref); err != nil {
				return err
			}
			placeRef[key] = want
		}
		if got.Design != want {
			return fmt.Errorf("placed design differs from the in-process placement")
		}
	}
	return nil
}

// latencies splits a phase's outcomes into all/edit/job latency samples
// (ms) and generator lateness (ms).
func latencies(outs []*outcome) (all, edit, job, late []float64) {
	for _, o := range outs {
		if !o.ok() {
			continue
		}
		ms := o.latencyMS()
		all = append(all, ms)
		if o.op.class == "edit" {
			edit = append(edit, ms)
		} else {
			job = append(job, ms)
		}
		late = append(late, float64(o.sent.Sub(o.due))/1e6)
	}
	return
}

func runServe(opt options) (*result, error) {
	res := &result{}
	ctx := context.Background()
	texts, designs, err := sessionDesigns(opt.seed)
	if err != nil {
		return nil, err
	}
	setups := make([]float64, 7)
	for i := range setups {
		t0 := time.Now()
		tb, err := startTestbed(opt.root, texts, nil)
		if err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
		tb.close()
	}
	res.add("setup_s", "s", median(setups), len(setups))

	freshEngine()
	p, err := runServePass(ctx, opt, texts, designs, nil, res, "u")
	if err != nil {
		return nil, err
	}
	q := tailQ[opt.workload]
	all, edit, job, late := latencies(p.open)
	res.add("ops_per_s", "1/s", windowRate(p.closed, p.closedStart, p.closedWall), len(p.closed))
	res.addPct("op_p50_ms", "ms", all, 0.5)
	res.records = append(res.records, record{Name: "op_tail_ms", Unit: "ms",
		Value: windowTail(p.open, q), Samples: len(all), Percentile: 100 * q})
	res.addPct("serve.edit_p50_ms", "ms", edit, 0.5)
	res.addPct("serve.edit_tail_ms", "ms", edit, highestTail(len(edit), []float64{q, 0.95, 0.9}))
	res.addPct("serve.job_p50_ms", "ms", job, 0.5)
	res.addPct("serve.job_tail_ms", "ms", job, highestTail(len(job), []float64{q, 0.95, 0.9}))
	res.addPct("loadgen.late_ms_tail", "ms", late, q)
	res.add("serve.offered_rate", "1/s", serveRate, len(p.open))
	if lt := quantile(late, q); lt > serveLateBoundMS {
		res.invalid = fmt.Sprintf("load generator fell behind: p%.0f lateness %.1f ms > %.0f ms",
			100*q, lt, serveLateBoundMS)
	}

	if opt.trace {
		freshEngine()
		rec := newRecorder()
		tp, err := runServePass(ctx, opt, texts, designs, rec, res, "t")
		if err != nil {
			return nil, err
		}
		addEngineRecords(res, tp.engine)
		serveLayerRecords(res, rec, tp, q)
		untraced := windowRate(p.closed, p.closedStart, p.closedWall)
		traced := windowRate(tp.closed, tp.closedStart, tp.closedWall)
		res.add("trace.overhead_frac", "frac", 1-traced/untraced, len(tp.closed))
	}
	return res, nil
}

// viewErr is the job error a failed job's view carries, if any.
func (o *outcome) viewErr() string {
	if o.view == nil {
		return ""
	}
	return o.view.Error
}
