package dpgraph

import (
	"runtime"
	"sync"
)

// parMinChunk is the smallest per-worker slice worth a goroutine: below it the
// spawn/synchronization cost dominates the DP arithmetic it would hide.
const parMinChunk = 2048

// parallelFor runs f over contiguous chunks covering [0, n), using at most
// workers goroutines. With workers <= 1 or a small n it runs inline, so the
// serial path stays allocation- and goroutine-free. Every index is touched by
// exactly one worker, so any f writing only to its own indexes is
// deterministic regardless of the worker count.
func parallelFor(workers, n int, f func(lo, hi int)) {
	if workers > n/parMinChunk {
		workers = n / parMinChunk
	}
	if workers <= 1 {
		f(0, n)
		return
	}
	size := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// BottomUpP is BottomUp with the per-stage work spread over a worker pool.
// Stages form a chain of dependencies (a parent needs its children's group
// minima), so the reverse serialized order is kept; within one stage the
// per-state Opt/EffWeight computations are independent of each other, as are
// the per-group shrink passes, and both parallelize freely. Each group is
// shrunk entirely by one worker, so Members order, Costs and the MinIdx
// tie-break match the serial pass exactly — the worker count never changes
// the graph that enumeration sees. workers <= 0 uses GOMAXPROCS.
func (g *Graph[W]) BottomUpP(workers int) W {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	d := g.D
	zero := d.Zero()
	for idx := len(g.Stages) - 1; idx >= 0; idx-- {
		st := g.Stages[idx]
		parallelFor(workers, len(st.States), func(lo, hi int) {
			for s := lo; s < hi; s++ {
				state := &st.States[s]
				opt := state.Weight
				eff := state.Weight
				for b, cs := range st.ChildStages {
					child := g.Stages[cs]
					m := zero
					if gi := st.ChildGroup(int32(s), b); gi >= 0 {
						m = child.Groups[gi].Min
					}
					opt = d.Times(opt, m)
					if child.Pruned {
						eff = d.Times(eff, m)
					}
				}
				state.Opt = opt
				state.EffWeight = eff
				if idx > 0 {
					st.costs[st.pos[s]] = opt
				}
			}
		})
		if idx == 0 {
			break
		}
		// The pass above left every member's Opt at its members-block
		// position in costs, so each group reads its range sequentially.
		// Members and Costs start empty at the group's own offset with its
		// size as capacity: the appends below never reallocate, never reach
		// a neighbouring group's range, and write Costs no further than they
		// have read it.
		parallelFor(workers, len(st.Groups), func(lo, hi int) {
			for gi := lo; gi < hi; gi++ {
				grp := &st.Groups[gi]
				grp.Members = st.alive[grp.lo:grp.lo:grp.hi]
				grp.Costs = st.costs[grp.lo:grp.lo:grp.hi]
				grp.Min = zero
				grp.MinIdx = -1
				for p := grp.lo; p < grp.hi; p++ {
					m, c := st.members[p], st.costs[p]
					if !d.Less(c, zero) {
						continue // dead state
					}
					grp.Members = append(grp.Members, m)
					grp.Costs = append(grp.Costs, c)
					if grp.MinIdx < 0 || d.Less(c, grp.Min) {
						grp.Min = c
						grp.MinIdx = int32(len(grp.Members) - 1)
					}
				}
			}
		})
	}
	return g.Stages[0].States[0].Opt
}
