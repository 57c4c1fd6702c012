package dpgraph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"anyk/internal/dioid"
)

// randomTreeInputs builds a random tree of stages over small domains. The
// root's children share no variable with it; below them a stage shares one
// variable with its parent, or two (a multi-column join key), or none (a
// Cartesian product under a zero-column key), and some stages are empty.
// Every stage i binds its own variable vi.
func randomTreeInputs(r *rand.Rand, nstages, rows, dom int) []StageInput[float64] {
	inputs := make([]StageInput[float64], nstages)
	for i := 0; i < nstages; i++ {
		parent := -1
		if i > 0 {
			parent = r.Intn(i)
		}
		vi := fmt.Sprintf("v%d", i)
		vars := []string{vi, vi + "b"}
		n := rows
		if parent >= 0 {
			switch pv := inputs[parent].Vars; r.Intn(5) {
			case 0:
				vars = []string{pv[0], pv[1], vi}
			case 1:
				// vars stay {vi, vib}: no shared variable
			case 2:
				vars = []string{fmt.Sprintf("v%d", parent), vi}
				n = 0
			default:
				vars = []string{fmt.Sprintf("v%d", parent), vi}
			}
		}
		in := StageInput[float64]{Name: fmt.Sprintf("S%d", i), Vars: vars, Parent: parent}
		for k := 0; k < n; k++ {
			row := make([]Value, len(vars))
			for c := range row {
				row[c] = int64(r.Intn(dom))
			}
			in.Rows = append(in.Rows, row)
			in.Weights = append(in.Weights, float64(r.Intn(40)))
		}
		inputs[i] = in
	}
	return inputs
}

// bruteOpt computes, for a state, the true minimum subtree weight by
// exhaustive recursion over raw rows (no group machinery).
func bruteOpt(g *Graph[float64], stage int, state int32) float64 {
	st := g.Stages[stage]
	w := st.States[state].Weight
	for _, cs := range st.ChildStages {
		child := g.Stages[cs]
		best := math.Inf(1)
		for r := range child.Rows {
			ok := true
			for i, c := range child.JoinCols {
				if child.Rows[r][c] != st.Rows[state][child.ParentJoinCols[i]] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if v := bruteOpt(g, cs, int32(r)); v < best {
				best = v
			}
		}
		w += best
	}
	return w
}

// TestBottomUpOptMatchesBruteForce is the DP-correctness property (Eq. 7 /
// Theorem 14): every state's Opt equals the exhaustive minimum.
func TestBottomUpOptMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		inputs := randomTreeInputs(r, 2+r.Intn(3), 1+r.Intn(8), 1+r.Intn(4))
		g, err := Build[float64](dioid.Tropical{}, inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.BottomUp()
		for si := 1; si < len(g.Stages); si++ {
			st := g.Stages[si]
			for s := range st.States {
				want := bruteOpt(g, si, int32(s))
				got := st.States[s].Opt
				if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
					t.Fatalf("trial %d stage %d state %d: Opt=%v brute=%v", trial, si, s, got, want)
				}
			}
		}
	}
}

// TestGroupInvariants checks that after BottomUp every group's Members are
// exactly its alive members, Costs match their Opt, and Min/MinIdx are
// consistent.
func TestGroupInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	d := dioid.Tropical{}
	for trial := 0; trial < 40; trial++ {
		inputs := randomTreeInputs(r, 2+r.Intn(4), 1+r.Intn(10), 1+r.Intn(4))
		g, err := Build[float64](d, inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.BottomUp()
		for si := 1; si < len(g.Stages); si++ {
			st := g.Stages[si]
			for gi := range st.Groups {
				grp := &st.Groups[gi]
				min := math.Inf(1)
				for i, m := range grp.Members {
					opt := st.States[m].Opt
					if math.IsInf(opt, 1) {
						t.Fatalf("dead member %d in group", m)
					}
					if grp.Costs[i] != opt {
						t.Fatalf("cost mismatch")
					}
					if opt < min {
						min = opt
					}
				}
				if len(grp.Members) == 0 {
					if !math.IsInf(grp.Min, 1) {
						t.Fatalf("empty group with finite Min %v", grp.Min)
					}
					continue
				}
				if grp.Min != min || grp.Costs[grp.MinIdx] != min {
					t.Fatalf("Min inconsistent: %v vs %v", grp.Min, min)
				}
			}
		}
	}
}

// TestGraphIsReadOnlyDuringEnumeration: building the graph once and running
// several consumers must be safe — BottomUp is the only mutation.
func TestGraphSharedAcrossReaders(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	inputs := randomTreeInputs(r, 4, 10, 3)
	g, err := Build[float64](dioid.Tropical{}, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := g.BottomUp()
	// Re-running BottomUp must be idempotent.
	after := g.BottomUp()
	if before != after && !(math.IsInf(before, 1) && math.IsInf(after, 1)) {
		t.Fatalf("BottomUp not idempotent: %v vs %v", before, after)
	}
}

// keyOf renders row's values over cols as a comparable string.
func keyOf(row []Value, cols []int) string {
	vals := make([]Value, len(cols))
	for i, c := range cols {
		vals[i] = row[c]
	}
	return fmt.Sprint(vals)
}

// TestGroupLayout checks the flat layout against a brute-force grouping:
// group ids follow first-seen key order, each group's members are one
// contiguous, ascending range of the members block (the ranges tiling it in
// group order), and ChildGroup is -1 exactly when no child row joins with the
// parent state, and otherwise names the group of the rows that do.
func TestGroupLayout(t *testing.T) {
	r := rand.New(rand.NewSource(58))
	shapes := map[int]int{} // join-key width → stages seen
	for trial := 0; trial < 200; trial++ {
		inputs := randomTreeInputs(r, 2+r.Intn(4), 1+r.Intn(12), 1+r.Intn(4))
		g, err := Build[float64](dioid.Tropical{}, inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.BottomUp()
		for si := 1; si < len(g.Stages); si++ {
			st := g.Stages[si]
			if len(st.Rows) > 0 {
				shapes[len(st.JoinCols)]++
			}
			want := map[string]int32{} // key → group id, first seen first
			wantGid := make([]int32, len(st.Rows))
			for row := range st.Rows {
				k := keyOf(st.Rows[row], st.JoinCols)
				gi, ok := want[k]
				if !ok {
					gi = int32(len(want))
					want[k] = gi
				}
				wantGid[row] = gi
			}
			if len(st.Groups) != len(want) {
				t.Fatalf("trial %d stage %d: %d groups, want %d", trial, si, len(st.Groups), len(want))
			}
			next := int32(0)
			for gi, grp := range st.Groups {
				if grp.lo != next || grp.hi <= grp.lo {
					t.Fatalf("trial %d stage %d group %d: range [%d,%d) after %d", trial, si, gi, grp.lo, grp.hi, next)
				}
				next = grp.hi
				var rows []int32
				for row, w := range wantGid {
					if w == int32(gi) {
						rows = append(rows, int32(row))
					}
				}
				if fmt.Sprint(st.members[grp.lo:grp.hi]) != fmt.Sprint(rows) {
					t.Fatalf("trial %d stage %d group %d: members %v, want %v", trial, si, gi, st.members[grp.lo:grp.hi], rows)
				}
			}
			if int(next) != len(st.Rows) {
				t.Fatalf("trial %d stage %d: ranges cover %d of %d rows", trial, si, next, len(st.Rows))
			}
			parent := g.Stages[st.Parent]
			for s := range parent.States {
				var prow []Value
				if st.Parent != 0 {
					prow = parent.Rows[s]
				}
				wantG := int32(-1)
				if gi, ok := want[keyOf(prow, st.ParentJoinCols)]; ok {
					wantG = gi
				}
				if got := parent.ChildGroup(int32(s), st.Branch); got != wantG {
					t.Fatalf("trial %d stage %d parent state %d: ChildGroup %d, want %d", trial, si, s, got, wantG)
				}
			}
		}
	}
	for w := 0; w <= 2; w++ {
		if shapes[w] == 0 {
			t.Fatalf("no non-empty stage with a %d-column join key: %v", w, shapes)
		}
	}
}

// flatInputs is a fixed 4-stage tree with n rows per stage and keys drawn
// from dom values: R2 joins R1 on one column, R3 joins R2 on two, and R4 is
// a Cartesian factor of R1 (zero-column key), as is R1 of the root.
func flatInputs(n, dom int) []StageInput[float64] {
	mk := func(name string, vars []string, parent int) StageInput[float64] {
		in := StageInput[float64]{Name: name, Vars: vars, Parent: parent}
		flat := make([]Value, n*len(vars))
		for r := 0; r < n; r++ {
			row := flat[r*len(vars) : (r+1)*len(vars)]
			for c := range row {
				row[c] = Value((r*(2*c+3) + c) % dom)
			}
			in.Rows = append(in.Rows, row)
			in.Weights = append(in.Weights, float64(r%97))
		}
		return in
	}
	return []StageInput[float64]{
		mk("R1", []string{"a", "b"}, -1),
		mk("R2", []string{"b", "c"}, 0),
		mk("R3", []string{"b", "c", "d"}, 1),
		mk("R4", []string{"e"}, 0),
	}
}

func buildAllocs(n, dom int) float64 {
	in := flatInputs(n, dom)
	return testing.AllocsPerRun(5, func() {
		g, err := Build[float64](dioid.Tropical{}, in, nil)
		if err != nil {
			panic(err)
		}
		g.BottomUp()
	})
}

// TestBuildAllocsFlat: Build+BottomUp allocate a fixed number of blocks per
// stage, so the count does not grow with the rows or the groups. The one
// exception is the key maps' own storage, which the runtime grows by
// doubling and, past 1024 slots, one table at a time; the second half bounds
// that growth far below one allocation per group.
func TestBuildAllocsFlat(t *testing.T) {
	small := buildAllocs(256, 64)
	for _, n := range []int{1024, 16384} {
		if got := buildAllocs(n, 64); got != small {
			t.Fatalf("rows 256 → %d at 64 keys: allocations %v → %v", n, small, got)
		}
	}
	const n = 65536
	many := buildAllocs(n, n/4)
	if grew := many - small; grew > n/4/32 {
		t.Fatalf("keys 64 → %d: allocations grew by %v, want fewer than one per 32 new groups", n/4, grew)
	}
}

// TestBottomUpPMatchesSerial runs the bottom-up pass over a worker pool on
// stages large enough to split into chunks: the carved Members/Costs, the
// minima and every state's weights must equal the serial pass exactly (run
// it under -race: the workers share each stage's blocks).
func TestBottomUpPMatchesSerial(t *testing.T) {
	in := flatInputs(5*parMinChunk, 5*parMinChunk/2)
	serial, err := Build[float64](dioid.Tropical{}, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build[float64](dioid.Tropical{}, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := serial.BottomUp(), par.BottomUpP(4); a != b {
		t.Fatalf("optimum %v serial, %v parallel", a, b)
	}
	for si, st := range serial.Stages {
		pst := par.Stages[si]
		if fmt.Sprint(st.States) != fmt.Sprint(pst.States) {
			t.Fatalf("stage %d: states differ", si)
		}
		for gi := range st.Groups {
			a, b := &st.Groups[gi], &pst.Groups[gi]
			if fmt.Sprint(a.Members, a.Costs, a.MinIdx, a.Min) != fmt.Sprint(b.Members, b.Costs, b.MinIdx, b.Min) {
				t.Fatalf("stage %d group %d: serial %v/%v, parallel %v/%v", si, gi, a.Members, a.Costs, b.Members, b.Costs)
			}
		}
	}
}
