// Package dpgraph builds the Tree-based Dynamic Programming (T-DP) state
// space of Section 5.1: one stage per join-tree node, one state per tuple,
// and — crucially — per-(parent,child) *shared join-key groups* realizing the
// equi-join graph transformation of Fig. 3 that keeps the number of edges at
// O(ℓn). Serial DP (path queries, Section 3) is the single-child special
// case.
//
// All any-k enumerators in package core operate on this one structure.
package dpgraph

import (
	"fmt"

	"anyk/internal/dioid"
	"anyk/internal/relation"
)

// Value aliases the relational domain type.
type Value = relation.Value

// StageInput describes one join-tree node to build a stage from: its bound
// variables, rows, already-lifted weights, the index of its parent input
// (-1 = child of the artificial root), and whether the stage is pruned after
// the bottom-up pass (free-connex projections, Section 8.1).
type StageInput[W any] struct {
	Name    string
	Vars    []string
	Rows    [][]Value
	Weights []W
	Parent  int
	Prune   bool
}

// State is one DP state: a tuple of its stage. Its child join-key groups
// live in the stage's flat child-group block (see Stage.ChildGroup).
type State[W any] struct {
	// Weight is the lifted input weight w(s) of entering this state.
	Weight W
	// EffWeight is Weight ⊗ the optimal completions of all *pruned* child
	// branches; enumeration uses it so pruned subtrees cost nothing extra.
	EffWeight W
	// Opt is the weight of the best solution of the subtree rooted here,
	// including Weight itself: Opt = Weight ⊗ ⊗_b Min(group_b) over all
	// child branches (Eq. 7, shifted by one level).
	Opt W
}

// Group is a shared choice set: all states of a stage that agree on the join
// key with the parent stage. Every parent state with that key points to the
// same Group, so per-group data structures (sorted lists, heaps, suffix
// memos) are shared exactly as in the paper's transformed equi-join graph.
type Group[W any] struct {
	// lo and hi bound the group's range in the stage's members block: every
	// member, in ascending state order, set at build time.
	lo, hi int32
	// Members holds the alive members after the bottom-up pass, with
	// Costs[i] = Opt(Members[i]). Both are carved out of per-stage blocks
	// at the group's own offset, so a stage's groups share two allocations.
	Members []int32
	Costs   []W
	// MinIdx is the position in Members of the cheapest member; Min is its
	// cost (Zero for an empty group).
	MinIdx int32
	Min    W
}

// Stage is one join-tree node's slice of the state space, laid out as flat
// per-stage blocks: States, Groups, the members block that Groups index
// into, and the child-group block read through ChildGroup.
type Stage[W any] struct {
	Index  int
	Name   string
	Vars   []string
	Rows   [][]Value
	Parent int // stage index; -1 only for the artificial root
	Branch int // this stage's branch slot in its parent's ChildStages
	Pruned bool

	States []State[W]
	Groups []Group[W]

	// ChildStages lists child stage indices in serialized order;
	// UnprunedBranches the branch slots that participate in enumeration.
	ChildStages      []int
	UnprunedBranches []int

	// JoinCols are this stage's row columns forming the join key with the
	// parent; ParentJoinCols the matching columns in the parent's rows.
	JoinCols       []int
	ParentJoinCols []int

	// members holds every state grouped by join key: Groups[g] owns
	// members[lo:hi]; pos is its inverse (state s sits at members[pos[s]]).
	// alive and costs are the same size; BottomUp scatters each state's Opt
	// to costs[pos[s]], then compacts every group's range in place and
	// carves the group's Members and Costs out of alive and costs.
	members []int32
	pos     []int32
	alive   []int32
	costs   []W
	// childGroups[s*len(ChildStages)+b] is state s's group in child branch
	// b, or -1 (see ChildGroup).
	childGroups []int32
}

// ChildGroup returns the index of state s's join-key group in the group
// table of child branch b (the stage ChildStages[b]), or -1 when no row of
// that stage joins with s.
func (st *Stage[W]) ChildGroup(s int32, b int) int32 {
	return st.childGroups[int(s)*len(st.ChildStages)+b]
}

// Graph is the full T-DP state space. Stages[0] is the artificial root with
// a single state; the remaining stages appear in preorder (parents first).
type Graph[W any] struct {
	D       dioid.Dioid[W]
	Stages  []*Stage[W]
	OutVars []string
	// Serial lists the unpruned stage indices (excluding the root) in
	// preorder: the serialized stage order of Section 5.1.
	Serial []int
	// writeCols[stage] maps row columns to output positions.
	writeCols [][2][]int
}

// Build constructs the state space from stage inputs. Inputs must be in
// preorder: input i's Parent must be < i (or -1). outVars fixes the output
// row layout; pass nil to emit all variables in first-binding order.
//
// Each stage is grouped as soon as it is created: one pass gives every row a
// group id in first-seen order, a counting pass lays the groups out as
// contiguous ranges of one members block, and one probe per parent state
// fills the parent's child-group block for this branch. The key maps are
// then reused for the next stage, so the finished graph holds no maps.
func Build[W any](d dioid.Dioid[W], inputs []StageInput[W], outVars []string) (*Graph[W], error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("dpgraph: no stage inputs")
	}
	// Child counts fix every stage's child-group stride up front.
	nchild := make([]int, len(inputs)+1)
	maxRows := 0
	for i, in := range inputs {
		if in.Parent >= i {
			return nil, fmt.Errorf("dpgraph: input %d (%s) has parent %d out of preorder", i, in.Name, in.Parent)
		}
		if len(in.Rows) != len(in.Weights) {
			return nil, fmt.Errorf("dpgraph: input %s: %d rows but %d weights", in.Name, len(in.Rows), len(in.Weights))
		}
		nchild[in.Parent+1]++
		maxRows = max(maxRows, len(in.Rows))
	}
	g := &Graph[W]{D: d, Stages: make([]*Stage[W], 0, len(inputs)+1)}
	root := &Stage[W]{Index: 0, Name: "⊥root", Parent: -1}
	root.States = []State[W]{{Weight: d.One(), EffWeight: d.One(), Opt: d.One()}}
	root.childGroups = make([]int32, nchild[0])
	g.Stages = append(g.Stages, root)

	var keys keyGroups
	gid := make([]int32, 0, maxRows) // per-row group ids, reused by every stage
	for i, in := range inputs {
		n := len(in.Rows)
		st := &Stage[W]{
			Index:  i + 1,
			Name:   in.Name,
			Vars:   in.Vars,
			Rows:   in.Rows,
			Parent: in.Parent + 1,
			Pruned: in.Prune,
		}
		st.States = make([]State[W], n)
		for r, w := range in.Weights {
			st.States[r].Weight = w
		}
		st.childGroups = make([]int32, n*nchild[st.Index])
		parent := g.Stages[st.Parent]
		st.Branch = len(parent.ChildStages)
		parent.ChildStages = append(parent.ChildStages, st.Index)
		if !st.Pruned {
			parent.UnprunedBranches = append(parent.UnprunedBranches, st.Branch)
		}
		// Join columns with the parent.
		jv := sharedVars(in.Vars, parent.Vars)
		st.JoinCols = colsOf(in.Vars, jv)
		st.ParentJoinCols = colsOf(parent.Vars, jv)

		gid = keys.assign(in.Rows, st.JoinCols, gid[:0])
		st.layoutGroups(gid, keys.n)

		// Wire every parent state to its group in this branch.
		stride := nchild[parent.Index]
		for s := range parent.States {
			var row []Value
			if parent.Index != 0 {
				row = parent.Rows[s]
			}
			parent.childGroups[s*stride+st.Branch] = keys.find(row, st.ParentJoinCols)
		}
		g.Stages = append(g.Stages, st)
	}
	// Serialized order of unpruned stages.
	for _, st := range g.Stages[1:] {
		if !st.Pruned {
			g.Serial = append(g.Serial, st.Index)
		}
	}
	g.buildOutput(outVars)
	return g, nil
}

// layoutGroups lays the groups out by a counting pass: given every row's
// group id, each group's members become one contiguous, ascending range of
// the stage's members block. A group's hi first counts its rows, then serves
// as the fill cursor and ends at the range's end.
func (st *Stage[W]) layoutGroups(gid []int32, ngroups int32) {
	n := len(gid)
	st.Groups = make([]Group[W], ngroups)
	for _, gi := range gid {
		st.Groups[gi].hi++
	}
	off := int32(0)
	for gi := range st.Groups {
		grp := &st.Groups[gi]
		size := grp.hi
		grp.lo, grp.hi = off, off
		off += size
	}
	st.members = make([]int32, n)
	st.pos = make([]int32, n)
	for r, gi := range gid {
		grp := &st.Groups[gi]
		st.members[grp.hi] = int32(r)
		st.pos[r] = grp.hi
		grp.hi++
	}
	st.alive = make([]int32, n)
	st.costs = make([]W, n)
}

// keyGroups assigns join-key group ids in first-seen order, one stage at a
// time. A one-column key probes a map[Value]int32. A wider key probes a
// map[string]int32: assign encodes every row's key into one block and keys
// the map by substrings of it, and find encodes its probe into a reused
// scratch buffer, so neither allocates per key. A zero-column key needs no
// map, since every row falls into the one group. The maps are cleared, not
// reallocated, between stages. They get no size hint: a map sized for the
// rows rather than the groups spreads its probes over a larger table, which
// measured slower at join fan-out 10.
type keyGroups struct {
	one   map[Value]int32
	multi map[string]int32
	buf   []byte
	n     int32 // groups of the current stage
}

// assign starts a new stage: it appends the group id of every row's key over
// cols to gid, numbering new keys in first-seen order.
func (k *keyGroups) assign(rows [][]Value, cols []int, gid []int32) []int32 {
	k.n = 0
	switch len(cols) {
	case 0:
		for range rows {
			gid = append(gid, 0)
		}
		if len(rows) > 0 {
			k.n = 1
		}
	case 1:
		if k.one == nil {
			k.one = make(map[Value]int32)
		}
		clear(k.one)
		c := cols[0]
		for _, row := range rows {
			gi, ok := k.one[row[c]]
			if !ok {
				gi = k.n
				k.one[row[c]] = gi
				k.n++
			}
			gid = append(gid, gi)
		}
	default:
		if k.multi == nil {
			k.multi = make(map[string]int32)
		}
		clear(k.multi)
		if cap(k.buf) < len(rows)*8*len(cols) {
			k.buf = make([]byte, 0, len(rows)*8*len(cols))
		}
		k.buf = k.buf[:0]
		for _, row := range rows {
			k.encode(row, cols)
		}
		block, w := string(k.buf), 8*len(cols)
		for r := range rows {
			key := block[r*w : (r+1)*w]
			gi, ok := k.multi[key]
			if !ok {
				gi = k.n
				k.multi[key] = gi
				k.n++
			}
			gid = append(gid, gi)
		}
	}
	return gid
}

// find returns the group id of row's key over cols in the current stage, or
// -1 when no row of the stage has that key.
func (k *keyGroups) find(row []Value, cols []int) int32 {
	switch len(cols) {
	case 0:
		return k.n - 1 // 0 when the stage has rows, -1 when it is empty
	case 1:
		if gi, ok := k.one[row[cols[0]]]; ok {
			return gi
		}
		return -1
	}
	k.buf = k.buf[:0]
	k.encode(row, cols)
	if gi, ok := k.multi[string(k.buf)]; ok {
		return gi
	}
	return -1
}

// encode appends the key of row over cols to the scratch buffer.
func (k *keyGroups) encode(row []Value, cols []int) {
	for _, c := range cols {
		k.buf = relation.AppendKeyBytes(k.buf, row[c])
	}
}

func (g *Graph[W]) buildOutput(outVars []string) {
	if outVars == nil {
		seen := map[string]bool{}
		for _, si := range g.Serial {
			for _, v := range g.Stages[si].Vars {
				if !seen[v] {
					seen[v] = true
					outVars = append(outVars, v)
				}
			}
		}
	}
	g.OutVars = outVars
	pos := map[string]int{}
	for i, v := range outVars {
		pos[v] = i
	}
	g.writeCols = make([][2][]int, len(g.Stages))
	for _, si := range g.Serial {
		st := g.Stages[si]
		var cols, outs []int
		for c, v := range st.Vars {
			if p, ok := pos[v]; ok {
				cols = append(cols, c)
				outs = append(outs, p)
			}
		}
		g.writeCols[si] = [2][]int{cols, outs}
	}
}

// BottomUp runs the dynamic-programming pass of Eq. (7): in reverse
// serialized order it computes every state's optimal subtree weight, folds
// pruned branches into EffWeight, and shrinks every group to its alive
// members with their costs and minimum. After BottomUp the graph is ready
// for any enumerator. It returns the weight of the overall best solution
// (Zero when the query output is empty). BottomUpP spreads the same pass
// over a worker pool.
func (g *Graph[W]) BottomUp() W {
	return g.BottomUpP(1)
}

// Empty reports whether the query output is empty (only valid after
// BottomUp).
func (g *Graph[W]) Empty() bool {
	opt := g.Stages[0].States[0].Opt
	return !g.D.Less(opt, g.D.Zero())
}

// AssembleRow maps a solution (one state per stage, -1 for the root slot and
// pruned stages) to an output row over OutVars.
func (g *Graph[W]) AssembleRow(sol []int32, out []Value) []Value {
	if cap(out) < len(g.OutVars) {
		out = make([]Value, len(g.OutVars))
	}
	out = out[:len(g.OutVars)]
	for _, si := range g.Serial {
		s := sol[si]
		if s < 0 {
			continue
		}
		row := g.Stages[si].Rows[s]
		wc := g.writeCols[si]
		for i, c := range wc[0] {
			out[wc[1][i]] = row[c]
		}
	}
	return out
}

// NumStates returns the total number of states (diagnostics, size bounds).
func (g *Graph[W]) NumStates() int {
	n := 0
	for _, st := range g.Stages {
		n += len(st.States)
	}
	return n
}

func sharedVars(a, b []string) []string {
	var out []string
	for _, v := range a {
		for _, w := range b {
			if v == w {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

func colsOf(vars []string, want []string) []int {
	cols := make([]int, 0, len(want))
	for _, w := range want {
		for i, v := range vars {
			if v == w {
				cols = append(cols, i)
				break
			}
		}
	}
	return cols
}
