// Command loadgen measures an anykd instance under load: a closed-loop mode
// (-workers looping jobs back-to-back) for throughput and an open-loop mode
// (-rate arrivals/sec, coordinated-omission-corrected latency measured from
// each arrival's scheduled send time) for latency at a fixed offered load.
//
//	anykd -addr :8080 &
//	loadgen -addr http://127.0.0.1:8080 -setup -duration 10s -workers 8
//	loadgen -addr http://127.0.0.1:8080 -mode open -rate 50 -duration 30s \
//	    -mix session=8,stats=1,upload=1 -bench-json BENCH_load.json
//
// Admission-control 429s are reported as rejections, separately from hard
// errors; -fail-on-error exits nonzero only on the latter. -bench-json
// appends the run to the same {meta, records} envelope cmd/experiments
// writes, so cmd/benchdiff can gate load latency like any other benchmark.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"anyk/internal/bench"
	"anyk/internal/loadgen"
	"anyk/internal/query"
	"anyk/internal/server"
)

var (
	addrFlag     = flag.String("addr", "http://127.0.0.1:8080", "anykd base URL")
	modeFlag     = flag.String("mode", "closed", "closed (workers loop back-to-back) or open (fixed arrival rate)")
	workersFlag  = flag.Int("workers", 4, "concurrent workers")
	rateFlag     = flag.Float64("rate", 0, "open-loop arrivals per second")
	durationFlag = flag.Duration("duration", 5*time.Second, "run length")
	datasetFlag  = flag.String("dataset", "bench", "dataset queried by session jobs")
	queryFlag    = flag.String("query", "path3", "query family for session jobs")
	algoFlag     = flag.String("algorithm", "", "any-k algorithm (server default when empty)")
	parFlag      = flag.Int("parallelism", 0, "per-session parallelism request")
	kFlag        = flag.Int("k", 20, "rows fetched per session")
	pageFlag     = flag.Int("page", 10, "page size for next calls")
	mixFlag      = flag.String("mix", "session=1", "job mix weights, e.g. session=8,stats=1,upload=1")
	seedFlag     = flag.Int64("seed", 1, "per-worker job-choice seed")
	jsonFlag     = flag.String("bench-json", "", "write bench records to this file")
	figureFlag   = flag.String("figure", "load1", "figure id for bench records")
	setupFlag    = flag.Bool("setup", false, "create the dataset before the run")
	setupNFlag   = flag.Int("setup-n", 1000, "rows per relation for -setup")
	failFlag     = flag.Bool("fail-on-error", false, "exit 1 if any job ended in a hard error (429s do not count)")
)

func main() {
	flag.Parse()
	mix, err := parseMix(*mixFlag)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *setupFlag {
		rels, err := setupRelations(*queryFlag)
		if err != nil {
			fatal(err)
		}
		if err := loadgen.Setup(*addrFlag, nil, server.DatasetRequest{
			Name: *datasetFlag, Kind: "uniform", Relations: rels, N: *setupNFlag, Seed: 7,
		}); err != nil {
			fatal(err)
		}
	}

	res, err := loadgen.Run(ctx, loadgen.Config{
		Base:        *addrFlag,
		Mode:        *modeFlag,
		Workers:     *workersFlag,
		Rate:        *rateFlag,
		Duration:    *durationFlag,
		Dataset:     *datasetFlag,
		Query:       *queryFlag,
		Algorithm:   *algoFlag,
		Parallelism: *parFlag,
		K:           *kFlag,
		PageK:       *pageFlag,
		Mix:         mix,
		Seed:        *seedFlag,
	})
	if err != nil {
		fatal(err)
	}

	printResult(res)

	if *jsonFlag != "" {
		if err := bench.WriteRecords(*jsonFlag, loadgen.Records(*figureFlag, res)); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *jsonFlag)
	}
	if *failFlag && res.Errors > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d hard errors\n", res.Errors)
		os.Exit(1)
	}
}

// setupRelations is the number of relations -setup generates for the query
// family: the distinct relation names of its atoms (R1..Rn).
func setupRelations(family string) (int, error) {
	q, err := query.ParseFamily(family)
	if err != nil {
		return 0, err
	}
	names := map[string]bool{}
	for _, a := range q.Atoms {
		names[a.Rel] = true
	}
	return len(names), nil
}

// parseMix parses "session=8,stats=1,upload=1".
func parseMix(s string) (loadgen.Mix, error) {
	var m loadgen.Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("bad mix entry %q (want name=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad mix weight %q", part)
		}
		switch name {
		case "session":
			m.Session = w
		case "stats":
			m.Stats = w
		case "upload":
			m.Upload = w
		default:
			return m, fmt.Errorf("unknown mix job %q (want session, stats, upload)", name)
		}
	}
	if m.Session+m.Stats+m.Upload == 0 {
		return m, fmt.Errorf("mix %q has zero total weight", s)
	}
	return m, nil
}

func printResult(res loadgen.Result) {
	fmt.Printf("mode=%s duration=%s sessions=%d rows=%d sessions/sec=%.1f errors=%d rejected(429)=%d\n",
		res.Mode, res.Duration.Round(time.Millisecond), res.Sessions, res.RowsFetched,
		res.SessionsPerSec, res.Errors, res.Rejected)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "op\tcount\tp50\tp90\tp99\tmax\terrors\t429s\t")
	for _, op := range res.Ops {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\t%d\t%d\t\n",
			op.Name, op.Hist.Count,
			ms(op.Hist.Quantile(0.50)), ms(op.Hist.Quantile(0.90)),
			ms(op.Hist.Quantile(0.99)), ms(op.Hist.Max),
			op.Errors, op.Rejected)
		if op.Uncorrected != nil {
			u := op.Uncorrected
			fmt.Fprintf(tw, "%s/uncorrected\t%d\t%s\t%s\t%s\t%s\t-\t-\t\n",
				op.Name, u.Count,
				ms(u.Quantile(0.50)), ms(u.Quantile(0.90)), ms(u.Quantile(0.99)), ms(u.Max))
		}
	}
	tw.Flush()
}

// ms renders seconds as fixed-point milliseconds.
func ms(secs float64) string { return fmt.Sprintf("%.2fms", secs*1e3) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
