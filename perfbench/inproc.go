package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"anyk/internal/core"
	"anyk/internal/datalog"
	"anyk/internal/decomp"
	"anyk/internal/dioid"
	"anyk/internal/dpgraph"
	"anyk/internal/engine"
	"anyk/internal/obs"
	"anyk/internal/query"
	"anyk/internal/relation"
)

// inprocSpec is one in-process workload: a query over rels generated binary
// relations of rows tuples each. Ops read the top k rows, or drain every
// result when k is 0.
type inprocSpec struct {
	text   string
	rels   int
	rows   int
	k      int
	cyclic bool
	// loadsPerGap is how many upload samples a run takes between two ops
	// (at least 1); draining ops are few and long, so they take more.
	loadsPerGap int
}

var inprocSpecs = map[string]inprocSpec{
	"acyclic_topk": {text: pathText(4), rels: 4, rows: 100_000, k: 1000},
	"cyclic_topk":  {text: cycleText(4), rels: 4, rows: 30_000, k: 1000, cyclic: true},
	"full_drain":   {text: pathText(4), rels: 4, rows: 1000, k: 0, loadsPerGap: 4},
}

// checkK is the rank up to which every op keeps its rows for exact
// comparison, and the k of the TT(k) metric.
const checkK = 1000

// setupReps is how many times a timed run sets up, to report the median.
const setupReps = 3

// opAlgs alternates the two paper algorithms across ops, so every workload
// measures both anyK-part (Take2) and anyK-rec (Recursive).
var opAlgs = [2]core.Algorithm{core.Take2, core.Recursive}

var trop = dioid.Tropical{}

// opResult is what one op observed: its timestamps, the rows it read, and
// the inputs of the checks.
type opResult struct {
	alg                          core.Algorithm
	start, first, kth, last, end time.Time
	rows                         int
	sum, lastW                   float64
	ordered                      bool
	top                          []core.Row[float64]
	stats                        core.Stats
	phases                       map[string]float64 // engine spans in seconds (traced ops)
	cacheHit                     int64
	keep                         any // the open iterator, alive until the heap is measured
	alloc, gcs, live             uint64
	gcPause                      time.Duration
	// pipeline ops only
	firstNext, nextLoop time.Duration
	nextCalls           int
	build, bottomUp     time.Duration
	decompose           time.Duration
	trees, bagRows      int
	states              int
}

func (r *opResult) ms(t time.Time) float64 { return t.Sub(r.start).Seconds() * 1e3 }

func (r *opResult) record(row core.Row[float64]) {
	if r.rows > 0 && row.Weight < r.lastW {
		r.ordered = false
	}
	r.lastW = row.Weight
	r.sum += row.Weight
	if r.rows < checkK {
		r.top = append(r.top, core.Row[float64]{Vals: slices.Clone(row.Vals), Weight: row.Weight, Tree: row.Tree})
	}
	r.rows++
	if r.rows == checkK {
		r.kth = time.Now()
	}
}

// readRows reads up to k rows of it (every row when k is 0). The first Next
// call and the loop of later ones are separate spans.
func readRows(it core.RowIter[float64], k int, r *opResult, tr *tracer, op, parent int, name string) {
	r.ordered = true
	t0 := time.Now()
	fs := tr.begin(op, parent, "core", name+" (first)")
	row, ok := it.Next()
	r.first = time.Now()
	tr.end(fs)
	if ok {
		r.record(row)
	}
	ls := tr.begin(op, parent, "core", name)
	for ok && (k == 0 || r.rows < k) {
		row, ok = it.Next()
		r.nextCalls++
		if ok {
			r.record(row)
		}
	}
	tr.endCalls(ls, r.nextCalls)
	r.last = time.Now()
	r.firstNext, r.nextLoop = r.first.Sub(t0), r.last.Sub(r.first)
	if sr, ok := it.(core.StatsReporter); ok {
		r.stats = sr.Stats()
	}
}

// engineOp is one user-visible op: parse the query text, open a serial,
// uncached ranked stream with engine.Enumerate, read it, close it. With a
// tracer it also asks the engine for its own phase spans.
func engineOp(s inprocSpec, db *relation.DB, alg core.Algorithm, tr *tracer, op int) (*opResult, error) {
	r := &opResult{alg: alg, start: time.Now()}
	root := tr.begin(op, -1, "bench", "op")
	defer tr.end(root)
	ps := tr.begin(op, root, "query", "query.Parse")
	q, err := query.Parse(s.text)
	tr.end(ps)
	if err != nil {
		return nil, err
	}
	opts := engine.Options{Parallelism: 1}
	var base time.Time
	if tr != nil {
		opts.Tracer = obs.NewTrace()
		base = time.Now()
	}
	es := tr.begin(op, root, "engine", "engine.Enumerate")
	it, err := engine.Enumerate[float64](db, q, trop, alg, opts)
	tr.end(es)
	if err != nil {
		return nil, err
	}
	readRows(it, s.k, r, tr, op, root, "engine.Iterator.Next")
	cs := tr.begin(op, root, "engine", "engine.Iterator.Close")
	it.Close()
	tr.end(cs)
	r.end = time.Now()
	r.keep = it
	if tr != nil {
		snap := opts.Tracer.Snapshot()
		tr.importEngine(op, es, base, snap.Spans)
		r.phases = map[string]float64{}
		for _, sp := range snap.Spans {
			r.phases[sp.Name] += sp.DurationSeconds
		}
		r.cacheHit = snap.Counters["plan_cache_hit"]
	}
	return r, nil
}

// pipelineOp rebuilds the engine's serial route from public calls, so each
// layer is timed on its own: query.Parse, then decomp.DetectCycle and
// Decompose (cycles) or query.FullPlan plus the stage inputs (acyclic), then
// per tree dpgraph.Build and BottomUp, core.New/NewGraphIter, core.NewUnion,
// and the Next calls.
func pipelineOp(s inprocSpec, db *relation.DB, alg core.Algorithm, tr *tracer, op int) (*opResult, error) {
	r := &opResult{alg: alg, start: time.Now()}
	root := tr.begin(op, -1, "bench", "pipeline")
	defer tr.end(root)
	ps := tr.begin(op, root, "query", "query.Parse")
	q, err := query.Parse(s.text)
	tr.end(ps)
	if err != nil {
		return nil, err
	}
	var trees [][]dpgraph.StageInput[float64]
	var outVars []string
	if s.cyclic {
		ds := tr.begin(op, root, "decomp", "decomp.DetectCycle")
		shape, err := decomp.DetectCycle(q)
		tr.end(ds)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		dd := tr.begin(op, root, "decomp", "decomp.Decompose")
		dts, err := decomp.Decompose[float64](trop, db, shape)
		tr.end(dd)
		r.decompose = time.Since(t0)
		if err != nil {
			return nil, err
		}
		for _, t := range dts {
			trees = append(trees, t.Inputs)
			for _, in := range t.Inputs {
				r.bagRows += len(in.Rows)
			}
		}
		r.trees = len(dts)
		outVars = q.Vars()
	} else {
		fp := tr.begin(op, root, "query", "query.FullPlan")
		plan, err := query.FullPlan(q)
		tr.end(fp)
		if err != nil {
			return nil, err
		}
		si := tr.begin(op, root, "bench", "stage inputs")
		inputs, err := stageInputs(db, plan)
		tr.end(si)
		if err != nil {
			return nil, err
		}
		trees = [][]dpgraph.StageInput[float64]{inputs}
		outVars = q.FreeVars()
	}
	var iters []core.RowIter[float64]
	for i, in := range trees {
		t0 := time.Now()
		bs := tr.begin(op, root, "dpgraph", "dpgraph.Build")
		g, err := dpgraph.Build[float64](trop, in, outVars)
		tr.end(bs)
		t1 := time.Now()
		r.build += t1.Sub(t0)
		if err != nil {
			return nil, fmt.Errorf("tree %d: %w", i, err)
		}
		us := tr.begin(op, root, "dpgraph", "dpgraph.Graph.BottomUp")
		g.BottomUp()
		tr.end(us)
		r.bottomUp += time.Since(t1)
		r.states += g.NumStates()
		if g.Empty() {
			continue
		}
		ns := tr.begin(op, root, "core", "core.New+NewGraphIter")
		iters = append(iters, core.NewGraphIter[float64](g, core.New[float64](g, alg), i))
		tr.end(ns)
	}
	if len(iters) == 0 {
		return nil, errors.New("every tree is empty")
	}
	it := iters[0]
	if len(iters) > 1 {
		us := tr.begin(op, root, "core", "core.NewUnion")
		it = core.NewUnion[float64](trop, iters...)
		tr.end(us)
	}
	readRows(it, s.k, r, tr, op, root, "core.RowIter.Next")
	r.end = time.Now()
	return r, nil
}

// stageInputs lifts each plan node's relation into a T-DP stage input, the
// step engine.Enumerate performs internally for acyclic queries (its
// stageInputs has no public entry point). It covers full CQs without
// selection predicates, which is every acyclic workload query here.
func stageInputs(db *relation.DB, plan *query.Plan) ([]dpgraph.StageInput[float64], error) {
	posOf := make([]int, len(plan.Nodes))
	for pos, ni := range plan.Order {
		posOf[ni] = pos
	}
	inputs := make([]dpgraph.StageInput[float64], len(plan.Order))
	for pos, ni := range plan.Order {
		node := plan.Nodes[ni]
		atom := plan.Q.Atoms[node.Atom]
		rel := db.Relation(atom.Rel)
		if rel == nil {
			return nil, fmt.Errorf("relation %s not found", atom.Rel)
		}
		if len(atom.Preds) > 0 || len(node.Vars) != len(atom.Vars) {
			return nil, fmt.Errorf("atom %s: only full, unfiltered atoms are supported", atom)
		}
		cols := make([]int, len(node.Vars))
		for i, v := range node.Vars {
			cols[i] = atom.VarCol(slices.Index(atom.Vars, v))
		}
		n := rel.Size()
		flat := make([]relation.Value, n*len(cols))
		rows := make([][]relation.Value, n)
		weights := make([]float64, n)
		for r := 0; r < n; r++ {
			row := flat[r*len(cols) : (r+1)*len(cols) : (r+1)*len(cols)]
			for i, c := range cols {
				row[i] = rel.At(r, c)
			}
			rows[r] = row
			weights[r] = trop.Lift(rel.Weights[r], node.Atom, int64(r))
		}
		parent := -1
		if node.Parent >= 0 {
			parent = posOf[node.Parent]
		}
		inputs[pos] = dpgraph.StageInput[float64]{Name: atom.Rel, Vars: node.Vars, Rows: rows, Weights: weights, Parent: parent, Prune: node.Prune}
	}
	return inputs, nil
}

// measured runs one op and adds its memory figures: bytes allocated, GC
// cycles and pause during the op, and the live heap after a GC with the
// iterator still open (MEM(k) at the last row read). A second GC then clears
// the op's garbage, so every op starts from the same heap.
func measured(f func() (*opResult, error)) (*opResult, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r, err := f()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	r.gcs = uint64(m1.NumGC - m0.NumGC)
	r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.live = m1.HeapAlloc
	runtime.KeepAlive(r.keep)
	r.keep = nil
	runtime.GC()
	return r, nil
}

// inprocRun is one run of an in-process workload.
type inprocRun struct {
	s    inprocSpec
	seed int64
	db   *relation.DB
	// reference: the top-k weight sum from Lazy (top-k workloads), or the
	// result count from engine.CountResults and the weight sum of the first
	// drain (full_drain)
	refCount int
	refSum   float64
	haveSum  bool

	attempted, failed int
	errs              []string
	setups, loads     samples
	bodies            [][]byte // the workload's CSV, for timing relation.LoadCSV
	nextLoad          int
}

func (w *inprocRun) fail(err error) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err.Error())
	}
}

// setup generates and loads the data and runs one warm-up op; the result is
// checked once the reference exists.
func (w *inprocRun) setup() (*opResult, error) {
	t0 := time.Now()
	db := relation.NewDB()
	for i := 1; i <= w.s.rels; i++ {
		rel, _, err := loadCSV(genCSV(w.seed, uint64(i), w.s.rows), fmt.Sprintf("R%d", i))
		if err != nil {
			return nil, err
		}
		db.AddRelation(rel)
	}
	w.db = db
	r, err := engineOp(w.s, db, opAlgs[0], nil, -1)
	if err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	w.setups = append(w.setups, time.Since(t0).Seconds())
	return r, nil
}

// reference computes what every op is checked against, on the loaded data.
func (w *inprocRun) reference() error {
	q, err := query.Parse(w.s.text)
	if err != nil {
		return err
	}
	if w.s.k > 0 {
		it, err := engine.Enumerate[float64](w.db, q, trop, core.Lazy, engine.Options{Parallelism: 1})
		if err != nil {
			return fmt.Errorf("lazy reference: %w", err)
		}
		for _, row := range it.Drain(w.s.k) {
			w.refSum += row.Weight
			w.refCount++
		}
		w.haveSum = true
		return nil
	}
	n, err := engine.CountResults(w.db, q)
	if err != nil {
		return fmt.Errorf("count reference: %w", err)
	}
	w.refCount = int(n)
	return nil
}

// check verifies one op's output against the reference.
func (w *inprocRun) check(r *opResult) error {
	if !r.ordered {
		return fmt.Errorf("%v: rows out of weight order", r.alg)
	}
	if r.rows != w.refCount {
		return fmt.Errorf("%v: %d rows, reference has %d", r.alg, r.rows, w.refCount)
	}
	if !w.haveSum {
		w.refSum, w.haveSum = r.sum, true
	}
	if r.sum != w.refSum {
		return fmt.Errorf("%v: weight sum %v, reference %v", r.alg, r.sum, w.refSum)
	}
	return nil
}

// sameRows reports whether two ops read the same rows in the same order.
func sameRows(a, b *opResult) error {
	if a.rows != b.rows || a.sum != b.sum || len(a.top) != len(b.top) {
		return fmt.Errorf("%v: pipeline read %d rows (sum %v), engine %d (sum %v)", a.alg, a.rows, a.sum, b.rows, b.sum)
	}
	for i := range a.top {
		if a.top[i].Weight != b.top[i].Weight || !slices.Equal(a.top[i].Vals, b.top[i].Vals) {
			return fmt.Errorf("%v: rank %d differs: pipeline %v@%v, engine %v@%v",
				a.alg, i+1, a.top[i].Vals, a.top[i].Weight, b.top[i].Vals, b.top[i].Weight)
		}
	}
	return nil
}

// prepare runs reps set-ups, computes the reference and checks the
// warm-ups.
func (w *inprocRun) prepare(reps int) error {
	w.bodies = nil
	for i := 1; i <= w.s.rels; i++ {
		w.bodies = append(w.bodies, genCSV(w.seed, uint64(i), w.s.rows))
	}
	var warm []*opResult
	for i := 0; i < reps; i++ {
		r, err := w.setup()
		if err != nil {
			return err
		}
		warm = append(warm, r)
	}
	if err := w.reference(); err != nil {
		return err
	}
	for _, r := range warm {
		w.attempted++
		if err := w.check(r); err != nil {
			w.fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	return nil
}

// loadBatch is the least time one upload_ms sample covers: loads of a few
// hundred rows take well under a millisecond, so a sample is the mean over
// as many back-to-back loads as fill it.
const loadBatch = 25 * time.Millisecond

// timeLoad times relation.LoadCSV on the next body (round robin from i) and
// returns one upload_ms sample and the next index.
func timeLoad(bodies [][]byte, i int) (float64, int, error) {
	t0, n := time.Now(), 0
	for ; n == 0 || time.Since(t0) < loadBatch; n++ {
		j := (i + n) % len(bodies)
		if _, _, err := loadCSV(bodies[j], fmt.Sprintf("R%d", j+1)); err != nil {
			return 0, i, err
		}
	}
	return time.Since(t0).Seconds() * 1e3 / float64(n), i + n, nil
}

// timeLoads takes loadMin upload_ms samples back to back.
const loadMin = 10

func timeLoads(bodies [][]byte) (samples, error) {
	var out samples
	for i := 0; len(out) < loadMin; {
		v, next, err := timeLoad(bodies, i)
		if err != nil {
			return nil, err
		}
		out, i = append(out, v), next
	}
	return out, nil
}

// loop runs ops for d (and at least minOps), alternating the algorithms.
// Between ops it takes loadsPerGap relation.LoadCSV samples, so the upload
// samples spread over the whole run like the ops do.
func (w *inprocRun) loop(d time.Duration, minOps int, op func(i int, alg core.Algorithm) (*opResult, error)) []*opResult {
	var out []*opResult
	deadline := time.Now().Add(d)
	// Ops run in Take2/Recursive pairs, so both algorithms get equal counts.
	for i := 0; i < minOps || i%2 == 1 || time.Now().Before(deadline); i++ {
		for j := 0; i > 0 && j < max(1, w.s.loadsPerGap); j++ {
			v, next, err := timeLoad(w.bodies, w.nextLoad)
			if err != nil {
				w.attempted++
				w.fail(err)
			} else {
				w.loads, w.nextLoad = append(w.loads, v), next
			}
		}
		w.attempted++
		r, err := op(i, opAlgs[i%2])
		if err == nil {
			err = w.check(r)
		}
		if err != nil {
			w.fail(err)
			continue
		}
		out = append(out, r)
	}
	return out
}

func (w *inprocRun) untracedOp(i int, alg core.Algorithm) (*opResult, error) {
	return measured(func() (*opResult, error) { return engineOp(w.s, w.db, alg, nil, i) })
}

// runTimed measures the end-to-end metrics with tracing off.
func (w *inprocRun) runTimed(seconds int, m *metrics) error {
	if err := w.prepare(setupReps); err != nil {
		return err
	}
	ops := w.loop(time.Duration(seconds)*time.Second, 2, w.untracedOp)
	if len(ops) == 0 {
		return errors.New("no op succeeded")
	}
	s := newOpSamples()
	busy := 0.0
	for _, r := range ops {
		s.add(r.alg, "ttf", r.ms(r.first))
		if !r.kth.IsZero() {
			s.add(r.alg, "ttk", r.ms(r.kth))
		}
		s.add(r.alg, "drain", r.last.Sub(r.start).Seconds())
		s.add(r.alg, "session", r.ms(r.end))
		s.add(r.alg, "alloc", float64(r.alloc)/1e6)
		s.add(r.alg, "live", float64(r.live)/1e6)
		busy += r.end.Sub(r.start).Seconds()
	}
	setE2E(m, w.setups, s, float64(len(ops))/busy, w.loads, w.attempted, w.failed)
	m.note("ops: %d (%d Take2, %d Recursive), each reads %s; %d set-ups",
		len(ops), len(s.by[core.Take2]["drain"]), len(s.by[core.Recursive]["drain"]), rowsRead(w.s.k), len(w.setups))
	return nil
}

func rowsRead(k int) string {
	if k == 0 {
		return "every result"
	}
	return fmt.Sprintf("the top %d rows", k)
}

// runTraced times each layer: half the time untraced ops, half traced op
// pairs (the engine op with spans, then the public-call pipeline, which must
// read exactly the engine's rows).
func (w *inprocRun) runTraced(seconds int, m *metrics, tr *tracer) error {
	if err := w.prepare(1); err != nil {
		return err
	}
	half := time.Duration(seconds) * time.Second / 2
	plain := w.loop(half, 2, w.untracedOp)
	var traced, pipes []*opResult
	w.loop(half, 2, func(i int, alg core.Algorithm) (*opResult, error) {
		e, err := measured(func() (*opResult, error) { return engineOp(w.s, w.db, alg, tr, i) })
		if err != nil {
			return nil, err
		}
		w.attempted++
		p, err := measured(func() (*opResult, error) { return pipelineOp(w.s, w.db, alg, tr, i) })
		if err == nil {
			err = sameRows(p, e)
		}
		if err != nil {
			w.fail(fmt.Errorf("pipeline: %w", err))
		} else {
			pipes = append(pipes, p)
		}
		traced = append(traced, e)
		return e, nil
	})
	if len(plain) == 0 || len(traced) == 0 {
		return errors.New("no op succeeded")
	}
	var sessPlain, sessTraced, gcs, pause samples
	for _, r := range plain {
		sessPlain = append(sessPlain, r.ms(r.end))
		gcs = append(gcs, float64(r.gcs))
		pause = append(pause, r.gcPause.Seconds()*1e3)
	}
	phase := map[string]samples{}
	var hits samples
	for _, r := range traced {
		sessTraced = append(sessTraced, r.ms(r.end))
		for _, p := range []string{"compile", "build", "merge", "first-next"} {
			phase[p] = append(phase[p], r.phases[p]*1e3)
		}
		hits = append(hits, float64(r.cacheHit))
	}
	m.set("engine.compile_ms", "ms", phase["compile"].median())
	m.set("engine.build_ms", "ms", phase["build"].median())
	m.set("engine.merge_ms", "ms", phase["merge"].median())
	m.set("engine.first_next_ms", "ms", phase["first-next"].median())
	m.set("engine.plan_cache_hit_ratio", "ratio", hits.mean())

	var decompose, trees, bagRows, build, bottomUp, states samples
	perAlg := map[core.Algorithm]map[string]samples{core.Take2: {}, core.Recursive: {}}
	for _, p := range pipes {
		if w.s.cyclic {
			decompose = append(decompose, p.decompose.Seconds()*1e3)
			trees = append(trees, float64(p.trees))
			bagRows = append(bagRows, float64(p.bagRows))
		}
		build = append(build, p.build.Seconds()*1e3)
		bottomUp = append(bottomUp, p.bottomUp.Seconds()*1e3)
		states = append(states, float64(p.states))
		a := perAlg[p.alg]
		a["first_next_us"] = append(a["first_next_us"], p.firstNext.Seconds()*1e6)
		a["next_ns"] = append(a["next_ns"], p.nextLoop.Seconds()*1e9/float64(max(1, p.nextCalls)))
		a["candidates_per_result"] = append(a["candidates_per_result"], float64(p.stats.CandidatesInserted)/float64(max(1, p.rows)))
		a["max_queue"] = append(a["max_queue"], float64(p.stats.MaxQueueSize))
	}
	m.set("decomp.decompose_ms", "ms", zeroIfNaN(decompose.median()))
	m.set("decomp.trees", "count", zeroIfNaN(trees.median()))
	m.set("decomp.bag_rows", "count", zeroIfNaN(bagRows.median()))
	m.set("dpgraph.build_ms", "ms", build.median())
	m.set("dpgraph.bottomup_ms", "ms", bottomUp.median())
	m.set("dpgraph.states", "count", states.median())
	m.set("dpgraph.states_per_input_row", "ratio", states.median()/float64(w.s.rels*w.s.rows))
	setCore(m, perAlg)
	m.set("relation.load_csv_ms", "ms", w.loads.median())
	setServer(m, nil, nil, nil, nil, 0)
	m.set("go.gc_cycles_per_op", "count", gcs.mean())
	m.set("go.gc_pause_ms_per_op", "ms", pause.mean())
	m.set("trace.overhead_pct", "pct", 100*(sessTraced.median()-sessPlain.median())/sessPlain.median())
	if err := probeParsers(m, w.s.text); err != nil {
		return err
	}
	sum := tr.report(m)
	if op := sum["op"]; op != nil {
		m.set("trace.coverage_pct", "pct", 100*op.coverage())
		if op.coverage() < minCoverage {
			w.attempted++
			w.fail(fmt.Errorf("layer self times cover %.1f%% of the traced op time, below %.0f%%", 100*op.coverage(), 100*minCoverage))
		}
	}
	m.note("the acyclic stage-input step has no public entry point: it is read from the engine's own compile span (engine.compile_ms); the pipeline rebuilds it in benchmark code (layer bench)")
	m.note("traced: %d untraced ops, %d traced engine ops, %d pipeline ops matching the engine's rows", len(plain), len(traced), len(pipes))
	return nil
}

// minCoverage is the share of a traced op's time that layer self times must
// account for: the rest is the benchmark's own glue between calls.
const minCoverage = 0.95

func setCore(m *metrics, perAlg map[core.Algorithm]map[string]samples) {
	for alg, name := range map[core.Algorithm]string{core.Take2: "take2", core.Recursive: "rec"} {
		a := perAlg[alg]
		m.set("core."+name+".first_next_us", "us", zeroIfNaN(a["first_next_us"].median()))
		m.set("core."+name+".next_ns", "ns", zeroIfNaN(a["next_ns"].median()))
		m.set("core."+name+".candidates_per_result", "ratio", zeroIfNaN(a["candidates_per_result"].median()))
		m.set("core."+name+".max_queue", "count", zeroIfNaN(a["max_queue"].median()))
	}
}

// probeParsers times the front ends and the cycle detector on the workload
// query text: median of many calls, each too short to time alone reliably
// as a single span.
func probeParsers(m *metrics, text string) error {
	const reps = 500
	q, err := query.Parse(text)
	if err != nil {
		return err
	}
	probes := []struct {
		name string
		f    func() error
	}{
		{"query.parse_us", func() error { _, err := query.Parse(text); return err }},
		{"datalog.parse_us", func() error { _, err := datalog.ParseProgram(text); return err }},
		// DetectCycle's error on an acyclic query is the answer, not a failure.
		{"decomp.detect_us", func() error { _, _ = decomp.DetectCycle(q); return nil }},
	}
	for _, p := range probes {
		var s samples
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if err := p.f(); err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			s = append(s, time.Since(t0).Seconds()*1e6)
		}
		m.set(p.name, "us", s.median())
	}
	return nil
}
