package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"anyk/internal/core"
	"anyk/internal/engine"
	"anyk/internal/obs"
	"anyk/internal/query"
	"anyk/internal/relation"
)

// service_rw: anykd runs as a child process over 3 uploaded relations of
// svcRows tuples; svcConns closed-loop connections each run sessions of
// svcPages pages of svcPageK rows, and every svcWriteEvery-th op of
// connection 0 re-uploads R1, alternating versions A and B, which purges the
// plan cache so the next session rebuilds cold.
const (
	svcRows       = 20_000
	svcConns      = 2
	svcPageK      = 50
	svcPages      = 2
	svcWriteEvery = 10
	svcDataset    = "bench"
	svcHeapProbes = 3
	// svcSetupReps: a set-up takes ~0.1 s, mostly process start, so more
	// repetitions than in-process keep its median steady.
	svcSetupReps = 7
)

var svcText = pathText(3)

type wireRow struct {
	Vals   []int64 `json:"vals"`
	Weight float64 `json:"weight"`
}

type serviceRun struct {
	seed       int64
	anykd, out string

	cmd       *exec.Cmd
	base, dbg string
	logf      *os.File

	r1   [2][]byte // versions A and B of R1
	rest [][]byte  // R2, R3
	// refs[version][alg] is the in-process top svcPages*svcPageK of the
	// session query over that version of R1.
	refs [2]map[core.Algorithm][]wireRow

	attempted, failed int
	errs              []string
	rejected          int
	setups            samples

	mu sync.Mutex // guards the counters above while connections run
}

func (w *serviceRun) fail(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err.Error())
	}
}

func (w *serviceRun) attempt() {
	w.mu.Lock()
	w.attempted++
	w.mu.Unlock()
}

// freeAddr returns a loopback address with a port free at the time of the
// call.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start boots anykd with its default flags on free loopback ports, plus the
// debug listener that serves its runtime.MemStats, and waits until it is
// healthy.
func (w *serviceRun) start() error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	dbg, err := freeAddr()
	if err != nil {
		return err
	}
	if w.logf == nil {
		w.logf, err = os.Create(filepath.Join(w.out, fmt.Sprintf("anykd-seed%d.log", w.seed)))
		if err != nil {
			return err
		}
	}
	cmd := exec.Command(w.anykd, "-addr", addr, "-debug-addr", dbg)
	cmd.Stdout, cmd.Stderr = w.logf, w.logf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start anykd: %w", err)
	}
	w.cmd, w.base, w.dbg = cmd, "http://"+addr, "http://"+dbg
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(w.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("anykd did not become healthy on %s", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop kills the running server and waits for it to exit.
func (w *serviceRun) stop() {
	if w.cmd != nil {
		_ = w.cmd.Process.Kill() // already exited is fine: Wait reaps it either way
		_ = w.cmd.Wait()
		w.cmd = nil
	}
	if w.logf != nil {
		w.logf.Close()
		w.logf = nil
	}
}

func newClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// call does one HTTP request and returns the response body. Any status
// outside 2xx is an error; 429 also counts as rejected.
func (w *serviceRun) call(c *http.Client, method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		w.mu.Lock()
		w.rejected++
		w.mu.Unlock()
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func (w *serviceRun) upload(c *http.Client, rel string, body []byte) (time.Duration, error) {
	t0 := time.Now()
	_, err := w.call(c, http.MethodPost, fmt.Sprintf("%s/v1/datasets/%s/relations/%s?attrs=x,y", w.base, svcDataset, rel), body)
	return time.Since(t0), err
}

// sessionResult is what one session observed, client side.
type sessionResult struct {
	alg                                       core.Algorithm
	start, created, page1, page2, delete, end time.Time
	pageBytes                                 int
	stats                                     *sessionStats // traced sessions only
}

type sessionStats struct {
	Served             int                `json:"served"`
	CandidatesInserted int                `json:"candidates_inserted"`
	MaxQueueSize       int                `json:"max_queue_size"`
	Phases             []obs.SpanSnapshot `json:"phases"`
	Delay              *struct {
		MeanSeconds float64 `json:"mean_seconds"`
	} `json:"delay"`
}

// session creates a query session, reads svcPages pages, checks them against
// the in-process reference for version A or B of R1, and deletes it. With a
// tracer each HTTP call is a span, and the server's own phase spans (from
// the session's stats endpoint) are imported under the create call.
func (w *serviceRun) session(c *http.Client, alg core.Algorithm, tr *tracer, op int) (*sessionResult, error) {
	r := &sessionResult{alg: alg, start: time.Now()}
	root := tr.begin(op, -1, "bench", "session")
	defer tr.end(root)
	req, _ := json.Marshal(map[string]string{"dataset": svcDataset, "datalog": svcText, "algorithm": alg.String()})
	cs := tr.begin(op, root, "server", "POST /v1/queries")
	b, err := w.call(c, http.MethodPost, w.base+"/v1/queries", req)
	tr.end(cs)
	r.created = time.Now()
	if err != nil {
		return nil, err
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &created); err != nil || created.ID == "" {
		return nil, fmt.Errorf("create response %q: %v", b, err)
	}
	var rows []wireRow
	for p := 0; p < svcPages; p++ {
		ns := tr.begin(op, root, "server", "GET /v1/queries/{id}/next")
		b, err := w.call(c, http.MethodGet, fmt.Sprintf("%s/v1/queries/%s/next?k=%d", w.base, created.ID, svcPageK), nil)
		var page struct {
			Rows []wireRow `json:"rows"`
		}
		if err == nil {
			err = json.Unmarshal(b, &page)
		}
		tr.end(ns)
		if err != nil {
			return nil, err
		}
		r.pageBytes += len(b)
		rows = append(rows, page.Rows...)
		if p == 0 {
			r.page1 = time.Now()
		}
	}
	r.page2 = time.Now()
	if tr != nil {
		ss := tr.begin(op, root, "server", "GET /v1/queries/{id}/stats")
		b, err := w.call(c, http.MethodGet, fmt.Sprintf("%s/v1/queries/%s/stats", w.base, created.ID), nil)
		tr.end(ss)
		if err != nil {
			return nil, err
		}
		r.stats = &sessionStats{}
		if err := json.Unmarshal(b, r.stats); err != nil {
			return nil, fmt.Errorf("stats: %w", err)
		}
		tr.importEngine(op, cs, r.start, r.stats.Phases)
	}
	r.delete = time.Now()
	ds := tr.begin(op, root, "server", "DELETE /v1/queries/{id}")
	_, err = w.call(c, http.MethodDelete, fmt.Sprintf("%s/v1/queries/%s", w.base, created.ID), nil)
	tr.end(ds)
	r.end = time.Now()
	if err != nil {
		return nil, err
	}
	for v := range w.refs {
		if slices.EqualFunc(rows, w.refs[v][alg], func(a, b wireRow) bool {
			return a.Weight == b.Weight && slices.Equal(a.Vals, b.Vals)
		}) {
			return r, nil
		}
	}
	return nil, fmt.Errorf("%v session: pages differ from the reference for both versions of R1", alg)
}

// reference computes the in-process expected pages for both versions of R1
// and both algorithms, from the exact upload bodies.
func (w *serviceRun) reference() error {
	q, err := query.Parse(svcText)
	if err != nil {
		return err
	}
	for v := range w.r1 {
		db := relation.NewDB()
		for i, body := range append([][]byte{w.r1[v]}, w.rest...) {
			rel, _, err := loadCSV(body, fmt.Sprintf("R%d", i+1))
			if err != nil {
				return err
			}
			db.AddRelation(rel)
		}
		w.refs[v] = map[core.Algorithm][]wireRow{}
		for _, alg := range opAlgs {
			it, err := engine.Enumerate[float64](db, q, trop, alg, engine.Options{Parallelism: 1})
			if err != nil {
				return fmt.Errorf("reference: %w", err)
			}
			for _, row := range it.Drain(svcPages * svcPageK) {
				w.refs[v][alg] = append(w.refs[v][alg], wireRow{Vals: slices.Clone(row.Vals), Weight: row.Weight})
			}
		}
	}
	return nil
}

// setup boots the server, uploads the three relations (R1 at version A) and
// runs one warm-up session.
func (w *serviceRun) setup() error {
	t0 := time.Now()
	if err := w.start(); err != nil {
		return err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	for i, body := range append([][]byte{w.r1[0]}, w.rest...) {
		if _, err := w.upload(c, fmt.Sprintf("R%d", i+1), body); err != nil {
			return err
		}
	}
	w.attempted++
	if _, err := w.session(c, opAlgs[0], nil, -1); err != nil {
		w.fail(fmt.Errorf("warm-up session: %w", err))
	}
	w.setups = append(w.setups, time.Since(t0).Seconds())
	return nil
}

// window is what the closed loop observed over one measured interval.
type window struct {
	secs     float64
	sessions []*sessionResult
	uploads  samples
	ops      int
}

// loop runs svcConns closed-loop connections for d.
func (w *serviceRun) loop(d time.Duration, tr *tracer) *window {
	var wg sync.WaitGroup
	per := make([]window, svcConns)
	t0 := time.Now()
	deadline := t0.Add(d)
	version := 0
	var trMu sync.Mutex
	for c := 0; c < svcConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			sessions := 0
			for i := 0; time.Now().Before(deadline); i++ {
				w.attempt()
				per[c].ops++
				if c == 0 && i%svcWriteEvery == svcWriteEvery-1 {
					version = 1 - version // only connection 0 writes
					el, err := w.upload(client, "R1", w.r1[version])
					if err != nil {
						w.fail(fmt.Errorf("write: %w", err))
						continue
					}
					per[c].uploads = append(per[c].uploads, el.Seconds()*1e3)
					continue
				}
				alg := opAlgs[sessions%2]
				sessions++
				var r *sessionResult
				var err error
				if tr != nil {
					// The span recorder is not concurrent: traced sessions
					// record into a private tracer merged afterwards.
					local := &tracer{t0: tr.t0}
					r, err = w.session(client, alg, local, c*1_000_000+i)
					trMu.Lock()
					tr.merge(local)
					trMu.Unlock()
				} else {
					r, err = w.session(client, alg, nil, c*1_000_000+i)
				}
				if err != nil {
					w.fail(err)
					continue
				}
				per[c].sessions = append(per[c].sessions, r)
			}
		}(c)
	}
	wg.Wait()
	out := &window{secs: time.Since(t0).Seconds()}
	for _, p := range per {
		out.sessions = append(out.sessions, p.sessions...)
		out.uploads = append(out.uploads, p.uploads...)
		out.ops += p.ops
	}
	return out
}

// memStats reads the server's runtime.MemStats from its heap profile
// endpoint; gc=1 runs a collection first.
type memStats struct {
	heapAlloc, totalAlloc, numGC uint64
	pauseNs                      []uint64
}

func (w *serviceRun) memStats(gc bool) (*memStats, error) {
	url := w.dbg + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	b, err := w.call(http.DefaultClient, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	ms := &memStats{}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		switch name {
		case "HeapAlloc", "TotalAlloc", "NumGC":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("memstats %s: %w", name, err)
			}
			switch name {
			case "HeapAlloc":
				ms.heapAlloc = n
			case "TotalAlloc":
				ms.totalAlloc = n
			default:
				ms.numGC = n
			}
			found++
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				n, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("memstats PauseNs: %w", err)
				}
				ms.pauseNs = append(ms.pauseNs, n)
			}
			found++
		}
	}
	if found != 4 || len(ms.pauseNs) != 256 {
		return nil, errors.New("heap profile carries no runtime.MemStats")
	}
	return ms, nil
}

// gcBetween returns the GC cycles and their total pause between two
// snapshots (the pause ring holds the last 256 cycles).
func gcBetween(a, b *memStats) (uint64, time.Duration) {
	n := b.numGC - a.numGC
	var pause uint64
	for g := a.numGC + 1; g <= b.numGC && b.numGC-g < 256; g++ {
		pause += b.pauseNs[(g+255)%256]
	}
	return n, time.Duration(pause)
}

type cacheCounters struct {
	Hits   int64 `json:"plan_cache_hits"`
	Misses int64 `json:"plan_cache_misses"`
}

func (w *serviceRun) cacheCounters() (*cacheCounters, error) {
	b, err := w.call(http.DefaultClient, http.MethodGet, w.base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	var cc cacheCounters
	return &cc, json.Unmarshal(b, &cc)
}

// heapLive is the server's live heap after a GC with one session open at
// its last page, median of a few probes. R1 is re-uploaded at version A
// first, so every run probes the same state: one dataset version and the
// plan cache entries of the probe sessions.
func (w *serviceRun) heapLive() (float64, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	if _, err := w.upload(c, "R1", w.r1[0]); err != nil {
		return 0, err
	}
	var live samples
	for i := 0; i < svcHeapProbes; i++ {
		req, _ := json.Marshal(map[string]string{"dataset": svcDataset, "datalog": svcText})
		b, err := w.call(c, http.MethodPost, w.base+"/v1/queries", req)
		if err != nil {
			return 0, err
		}
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(b, &created); err != nil {
			return 0, err
		}
		for p := 0; p < svcPages; p++ {
			if _, err := w.call(c, http.MethodGet, fmt.Sprintf("%s/v1/queries/%s/next?k=%d", w.base, created.ID, svcPageK), nil); err != nil {
				return 0, err
			}
		}
		ms, err := w.memStats(true)
		if err != nil {
			return 0, err
		}
		live = append(live, float64(ms.heapAlloc)/1e6)
		if _, err := w.call(c, http.MethodDelete, fmt.Sprintf("%s/v1/queries/%s", w.base, created.ID), nil); err != nil {
			return 0, err
		}
	}
	return live.median(), nil
}

func (w *serviceRun) run(seconds int, m *metrics, tr *tracer) error {
	w.r1 = [2][]byte{genCSV(w.seed, 1, svcRows), genCSV(w.seed, 101, svcRows)}
	w.rest = [][]byte{genCSV(w.seed, 2, svcRows), genCSV(w.seed, 3, svcRows)}
	if err := w.reference(); err != nil {
		return err
	}
	// relation.LoadCSV on the exact upload bodies, timed before the server
	// runs so the client's own work does not overlap it.
	loads, err := timeLoads(w.r1[:])
	if err != nil {
		return err
	}
	reps := svcSetupReps
	if tr != nil {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.stop()
		}
		if err := w.setup(); err != nil {
			return err
		}
	}
	if tr != nil {
		return w.runTraced(seconds, m, tr, loads)
	}
	ms0, err := w.memStats(false)
	if err != nil {
		return err
	}
	win := w.loop(time.Duration(seconds)*time.Second, nil)
	ms1, err := w.memStats(false)
	if err != nil {
		return err
	}
	live, err := w.heapLive()
	if err != nil {
		return err
	}
	if len(win.sessions) == 0 {
		return errors.New("no session succeeded")
	}
	s := newOpSamples()
	for _, r := range win.sessions {
		s.add(r.alg, "ttf", r.page1.Sub(r.start).Seconds()*1e3)
		s.add(r.alg, "ttk", r.page2.Sub(r.start).Seconds()*1e3)
		s.add(r.alg, "drain", r.page2.Sub(r.start).Seconds())
		s.add(r.alg, "session", r.end.Sub(r.start).Seconds()*1e3)
	}
	alloc := float64(ms1.totalAlloc-ms0.totalAlloc) / 1e6 / float64(win.ops)
	for _, alg := range opAlgs {
		s.add(alg, "alloc", alloc)
		s.add(alg, "live", live)
	}
	setE2E(m, w.setups, s, float64(len(win.sessions))/win.secs, win.uploads, w.attempted, w.failed)
	m.note("service: %d sessions and %d writes over %.1f s on %d connections; server allocation and heap read from its runtime.MemStats",
		len(win.sessions), len(win.uploads), win.secs, svcConns)
	return nil
}

// runTraced spends half the time on untraced sessions and half on traced
// ones, whose HTTP calls and server-side phases become spans.
func (w *serviceRun) runTraced(seconds int, m *metrics, tr *tracer, loads samples) error {
	half := time.Duration(seconds) * time.Second / 2
	plain := w.loop(half, nil)
	cc0, err := w.cacheCounters()
	if err != nil {
		return err
	}
	ms0, err := w.memStats(false)
	if err != nil {
		return err
	}
	win := w.loop(half, tr)
	ms1, err := w.memStats(false)
	if err != nil {
		return err
	}
	cc1, err := w.cacheCounters()
	if err != nil {
		return err
	}
	if len(plain.sessions) == 0 || len(win.sessions) == 0 {
		return errors.New("no session succeeded")
	}
	var sessPlain, sessTraced, create, next, del, pageBytes samples
	for _, r := range plain.sessions {
		sessPlain = append(sessPlain, r.end.Sub(r.start).Seconds()*1e3)
	}
	phase := map[string]samples{}
	perAlg := map[core.Algorithm]map[string]samples{core.Take2: {}, core.Recursive: {}}
	for _, r := range win.sessions {
		sessTraced = append(sessTraced, r.end.Sub(r.start).Seconds()*1e3)
		create = append(create, r.created.Sub(r.start).Seconds()*1e3)
		next = append(next, r.page1.Sub(r.created).Seconds()*1e3, r.page2.Sub(r.page1).Seconds()*1e3)
		del = append(del, r.end.Sub(r.delete).Seconds()*1e3)
		pageBytes = append(pageBytes, float64(r.pageBytes)/svcPages)
		st := r.stats
		got := map[string]float64{}
		for _, sp := range st.Phases {
			got[sp.Name] += sp.DurationSeconds
		}
		for _, p := range []string{"compile", "build", "merge", "first-next"} {
			phase[p] = append(phase[p], got[p]*1e3)
		}
		a := perAlg[r.alg]
		a["first_next_us"] = append(a["first_next_us"], got["first-next"]*1e6)
		if st.Delay != nil {
			a["next_ns"] = append(a["next_ns"], st.Delay.MeanSeconds*1e9)
		}
		a["candidates_per_result"] = append(a["candidates_per_result"], float64(st.CandidatesInserted)/float64(max(1, st.Served)))
		a["max_queue"] = append(a["max_queue"], float64(st.MaxQueueSize))
	}
	// Means, not medians: most sessions hit the plan cache, and the cold
	// rebuilds after writes are what these phases cost the service.
	m.set("engine.compile_ms", "ms", phase["compile"].mean())
	m.set("engine.build_ms", "ms", phase["build"].mean())
	m.set("engine.merge_ms", "ms", phase["merge"].mean())
	m.set("engine.first_next_ms", "ms", phase["first-next"].mean())
	hits, misses := cc1.Hits-cc0.Hits, cc1.Misses-cc0.Misses
	m.set("engine.plan_cache_hit_ratio", "ratio", float64(hits)/float64(max(1, hits+misses)))
	m.set("decomp.decompose_ms", "ms", 0)
	m.set("decomp.trees", "count", 0)
	m.set("decomp.bag_rows", "count", 0)
	for _, n := range []string{"dpgraph.build_ms", "dpgraph.bottomup_ms"} {
		m.set(n, "ms", 0)
	}
	m.set("dpgraph.states", "count", 0)
	m.set("dpgraph.states_per_input_row", "ratio", 0)
	setCore(m, perAlg)
	m.set("relation.load_csv_ms", "ms", loads.median())
	setServer(m, create, next, del, pageBytes, w.rejected)
	gcs, pause := gcBetween(ms0, ms1)
	m.set("go.gc_cycles_per_op", "count", float64(gcs)/float64(win.ops))
	m.set("go.gc_pause_ms_per_op", "ms", pause.Seconds()*1e3/float64(win.ops))
	m.set("trace.overhead_pct", "pct", 100*(sessTraced.median()-sessPlain.median())/sessPlain.median())
	if err := probeParsers(m, svcText); err != nil {
		return err
	}
	sum := tr.report(m)
	if s := sum["session"]; s != nil {
		m.set("trace.coverage_pct", "pct", 100*s.coverage())
		if s.coverage() < minCoverage {
			w.attempted++
			w.fail(fmt.Errorf("layer self times cover %.1f%% of the traced session time, below %.0f%%", 100*s.coverage(), 100*minCoverage))
		}
	}
	m.note("service: the server's DP build is visible only inside its engine build span (dpgraph.* report 0); core.* come from the session stats endpoint, so core.*.first_next_us includes the client turnaround between create and the first page")
	m.note("traced: %d untraced sessions, %d traced sessions; plan cache %d hits, %d misses", len(plain.sessions), len(win.sessions), hits, misses)
	return nil
}

// setServer reports the client-side per-call server metrics (zero for the
// in-process workloads, which make no HTTP calls).
func setServer(m *metrics, create, next, del, pageBytes samples, rejected int) {
	m.set("server.create_ms.p50", "ms", zeroIfNaN(create.median()))
	m.set("server.next_ms.p50", "ms", zeroIfNaN(next.median()))
	m.set("server.delete_ms.p50", "ms", zeroIfNaN(del.median()))
	m.set("server.page_bytes", "bytes", zeroIfNaN(pageBytes.mean()))
	m.set("server.rejected", "count", float64(rejected))
}
