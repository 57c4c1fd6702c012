package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"

	"anyk/internal/relation"
)

// genCSV returns one binary relation of n rows as "x,y,w" CSV text. Each
// column holds every value of [0, n/10) exactly 10 times, in a seeded random
// order, so a value matches exactly 10 tuples of the next relation: path
// queries then have exactly n*10^(l-1) results whatever the seed, and the
// work per op does not change from seed to seed. Weights are integers
// uniform in [0, 10000), so every sum the checks compare (up to ~10^6
// results of four weights) is exact in float64. stream separates the
// relations drawn from one seed.
func genCSV(seed int64, stream uint64, n int) []byte {
	rng := rand.New(rand.NewPCG(uint64(seed), stream))
	cols := [2][]int64{}
	for c := range cols {
		cols[c] = make([]int64, n)
		for i := range cols[c] {
			cols[c][i] = int64(i / fanOut)
		}
		rng.Shuffle(n, func(i, j int) { cols[c][i], cols[c][j] = cols[c][j], cols[c][i] })
	}
	buf := make([]byte, 0, n*16)
	for i := 0; i < n; i++ {
		buf = strconv.AppendInt(buf, cols[0][i], 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, cols[1][i], 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, rng.Int64N(10000), 10)
		buf = append(buf, '\n')
	}
	return buf
}

// fanOut is how many tuples share each join value.
const fanOut = 10

// loadCSV parses body through relation.LoadCSV, the loader anykd uses for
// schema-qualified uploads, and reports how long it took.
func loadCSV(body []byte, name string) (*relation.Relation, time.Duration, error) {
	t0 := time.Now()
	r, err := relation.LoadCSV(bytes.NewReader(body), name, "x", "y")
	d := time.Since(t0)
	if err != nil {
		return nil, d, fmt.Errorf("load %s: %w", name, err)
	}
	return r, d, nil
}

// pathText and cycleText are the workload queries as users write them. The
// head lists every variable so the same text also parses as a Datalog program.
func pathText(l int) string  { return queryText(l, false) }
func cycleText(l int) string { return queryText(l, true) }

func queryText(l int, cycle bool) string {
	vars := "abcdefghij"
	head, body := "", ""
	for i := 0; i < l; i++ {
		next := vars[i+1]
		if cycle && i == l-1 {
			next = vars[0]
		}
		if i > 0 {
			body += ","
		}
		body += fmt.Sprintf("R%d(%c,%c)", i+1, vars[i], next)
	}
	nvars := l + 1
	if cycle {
		nvars = l
	}
	for i := 0; i < nvars; i++ {
		if i > 0 {
			head += ","
		}
		head += string(vars[i])
	}
	return fmt.Sprintf("Q(%s) :- %s", head, body)
}
