// Command perfbench is the repository benchmark: it runs one named workload
// against the code of the checkout it is started from, checks every op's
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output. Run it through
// run.sh, which builds it and cmd/anykd first:
//
//	bash perfbench/run.sh --workload acyclic_topk --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"anyk/internal/core"
)

func main() {
	workload := flag.String("workload", "", "acyclic_topk, cyclic_topk, full_drain or service_rw")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	anykd := flag.String("anykd", ".bench_build/anykd", "anykd binary built from this checkout")
	out := flag.String("out", ".bench_build", "directory for span files and server logs")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *trace == 1, *anykd, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(workload string, seed int64, seconds int, traced bool, anykd, out string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	m := newMetrics()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var attempted, failed int
	var errs []string
	if s, ok := inprocSpecs[workload]; ok {
		w := &inprocRun{s: s, seed: seed}
		var err error
		if traced {
			err = w.runTraced(seconds, m, tr)
		} else {
			err = w.runTimed(seconds, m)
		}
		if err != nil {
			return err
		}
		attempted, failed, errs = w.attempted, w.failed, w.errs
	} else if workload == "service_rw" {
		w := &serviceRun{seed: seed, anykd: anykd, out: out}
		err := w.run(seconds, m, tr)
		w.stop()
		if err != nil {
			return err
		}
		attempted, failed, errs = w.attempted, w.failed, w.errs
	} else {
		return fmt.Errorf("unknown --workload %q", workload)
	}
	if tr != nil {
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		m.note("spans written to %s", path)
	}
	m.note("env: go=%s nproc=%d GOMAXPROCS=%d commit=%s workload=%s seed=%d seconds=%d trace=%v",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit(), workload, seed, seconds, traced)
	for _, e := range errs {
		m.note("FAILED: %s", e)
	}
	for _, n := range m.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(m.m))
	for n := range m.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-36s %v %s\n", n, m.m[n].Value, m.m[n].Unit)
	}
	b, err := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m.m})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// setE2E reports the end-to-end metrics shared by every workload from the
// per-op samples; perSec is completed ops (sessions) per second.
func setE2E(m *metrics, setups samples, s *opSamples, perSec float64, uploads samples, attempted, failed int) {
	m.set("setup_s", "s", setups.median())
	m.set("ttf_ms.p50", "ms", s.median("ttf"))
	tail, pct := s.pooled("ttf").tail()
	m.set("ttf_ms.tail", "ms", tail)
	m.note("ttf_ms.tail is p%.1f of %d samples (highest percentile with at least 10 samples beyond it, else the median)", pct, len(s.pooled("ttf")))
	m.set("ttk_ms.p50", "ms", s.median("ttk"))
	m.set("drain_s.take2", "s", s.by[core.Take2]["drain"].median())
	m.set("drain_s.rec", "s", s.by[core.Recursive]["drain"].median())
	m.set("alloc_mb_per_op", "MB", s.median("alloc"))
	m.set("heap_live_mb", "MB", s.median("live"))
	m.set("sessions_per_s", "1/s", perSec)
	m.set("session_ms.p50", "ms", s.median("session"))
	m.set("session_ms.p99", "ms", s.pooled("session").quantile(0.99))
	m.note("session_ms.p99 is interpolated between the two nearest of %d sorted samples", len(s.pooled("session")))
	m.set("upload_ms.p50", "ms", uploads.median())
	m.set("ok_ratio", "ratio", 1-float64(failed)/float64(max(1, attempted)))
}

// commit names the checked-out commit when the checkout is a git work tree.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", name))
		if err != nil {
			return name
		}
		return strings.TrimSpace(string(b))
	}
	return ref
}
