// Command bench is the repository's benchmark: it generates a city, an
// archive and traffic from a seed, launches cmd/hris -http as a subprocess
// per workload, drives it over the wire and reports end-to-end metrics; a
// traced run adds a per-layer ledger timed from outside each layer. See
// README.md for the workloads, the metric glossary and how the metrics
// should move together.
//
// Usage (from the repository root):
//
//	go run -C bench repro/bench                  # every workload, untraced then traced
//	go run -C bench repro/bench -seed 11         # the same on another seed
//	go run -C bench repro/bench -aa              # two sets of runs of the same build, compared
//	go run -C bench repro/bench --workload infer-fresh --seed 7 --seconds 15 --trace 0
//
// With --workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, holding the end-to-end
// metrics for --trace 0 and the per-layer metrics for --trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	cfg := defaultConfig()
	var (
		workload = flag.String("workload", "", "run only this workload and end with the one-line JSON result (default: all, untraced then traced)")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		aa       = flag.Bool("aa", false, "run every workload in two sets of 10 seeds on the same build and compare the sets against BENCHMARK.json's bounds")
	)
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the traffic: which trips become queries, sessions and ingest batches, and the replay order")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of each measured interval")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds <= 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	root, err := findRoot()
	if err != nil {
		log.Fatal(err)
	}
	cfg.root, cfg.outDir = root, filepath.Join(root, "bench", "out")

	// An interrupt cancels ctx, which kills whatever server is running; the
	// run then fails on its next request and its deferred clean-up runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *aa:
		ok, err := runAA(ctx, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			stop()
			os.Exit(1)
		}
	case *workload != "":
		if !slices.Contains(workloads, *workload) {
			log.Fatalf("unknown workload %q (have %v)", *workload, workloads)
		}
		out, err := runWorkload(ctx, cfg, *workload, *trace == 1)
		if err != nil {
			log.Fatal(err)
		}
		out.print()
		line, err := json.Marshal(out.result())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !out.correct() {
			stop()
			os.Exit(1)
		}
	default:
		if err := runAll(ctx, cfg); err != nil {
			log.Fatal(err)
		}
	}
}

// findRoot locates the repository root: the parent of the working directory
// under `go run -C bench`, or the working directory itself.
func findRoot() (string, error) {
	for _, dir := range []string{"..", "."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "hris", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("cmd/hris not found: run from the repository root or from bench/")
}

// result is the contract's one-line report.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) defs() []metricDef {
	if o.traced {
		return perLayer
	}
	return endToEnd
}

func (o *outcome) result() result {
	r := result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	for _, def := range o.defs() {
		m, ok := o.vals[def.name]
		if !ok || math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			// A metric the run did not produce is a bug in the benchmark,
			// not a measurement.
			log.Fatalf("%s: metric %s was not measured", o.workload, def.name)
		}
		r.Metrics[def.name] = metricJSON{m.v, def.unit}
	}
	return r
}

// print lists every metric of the run by name, with unit and sample count.
func (o *outcome) print() {
	mode := "untraced"
	if o.traced {
		mode = "traced"
	}
	fmt.Printf("== %s (%s): %d attempted, %d failed, fail_rate %.4f\n", o.workload, mode, o.attempted, o.failed,
		float64(o.failed)/float64(max(o.attempted, 1)))
	defs := endToEnd
	if o.traced {
		defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	for _, def := range defs {
		m := o.vals[def.name]
		fmt.Printf("%-28s %14.4f %-5s n=%d", def.name, m.v, def.unit, m.n)
		if def.name == "latency_p50_ms" {
			fmt.Printf("  spread over fifths %.1f%%", 100*o.p50Spread)
		}
		fmt.Println()
	}
	for _, p := range o.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
}

// runAll is the whole benchmark in one command: each workload untraced for
// the end-to-end numbers, then traced for the ledger; everything is printed,
// kept in out/result.json, and a failed output check fails the command.
func runAll(ctx context.Context, cfg config) error {
	type entry struct {
		Untraced result `json:"end_to_end"`
		Traced   result `json:"per_layer"`
	}
	report := struct {
		Seed      int64            `json:"seed"`
		Seconds   float64          `json:"seconds"`
		Workloads map[string]entry `json:"workloads"`
	}{cfg.seed, cfg.seconds, map[string]entry{}}
	ok := true
	for _, w := range workloads {
		var e entry
		for _, traced := range []bool{false, true} {
			out, err := runWorkload(ctx, cfg, w, traced)
			if err != nil {
				return err
			}
			out.print()
			ok = ok && out.correct() && out.failed == 0
			if traced {
				e.Traced = out.result()
			} else {
				e.Untraced = out.result()
			}
		}
		report.Workloads[w] = e
	}
	js, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "result.json"), append(js, '\n'), 0o644); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("an output check failed or an operation failed")
	}
	return nil
}

// aaRuns is the number of runs, each on its own seed, per set and workload of
// an A/A comparison: what the acceptance rule takes its quartiles over.
const aaRuns = 10

// runAA measures the benchmark's own noise the way its acceptance rule does:
// two sets of runs of the same build, each workload on aaRuns seeds per set.
// Per workload and end-to-end metric it prints both medians, how much worse
// the second is, the spread (interquartile range over median) of each set,
// and the bound; it reports false when a difference or a spread exceeds the
// bound.
func runAA(ctx context.Context, cfg config) (bool, error) {
	raw, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	// sets[set][workload][metric] = one value per run
	var sets [2]map[string]map[string][]float64
	for s := range sets {
		sets[s] = map[string]map[string][]float64{}
		for _, w := range workloads {
			sets[s][w] = map[string][]float64{}
			for i := 0; i < aaRuns; i++ {
				c := cfg
				c.seed = cfg.seed + int64(i)
				out, err := runWorkload(ctx, c, w, false)
				if err != nil {
					return false, err
				}
				if !out.correct() || out.failed > 0 {
					return false, fmt.Errorf("%s seed %d: %d failed operations, problems %v", w, c.seed, out.failed, out.problems)
				}
				for _, def := range endToEnd {
					sets[s][w][def.name] = append(sets[s][w][def.name], out.vals[def.name].v)
				}
				log.Printf("set %d %s seed %d done", s+1, w, c.seed)
			}
		}
	}
	ok := true
	fmt.Printf("| workload | metric | median A | median B | B worse by | spread A | spread B | bound |\n|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][w][m.Name])
			b1, b2, b3 := quartiles(sets[1][w][m.Name])
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := (a3-a1)/a2, (b3-b1)/b2
			verdict := ""
			if worse > m.Bound || sa > m.Bound || sb > m.Bound {
				ok = false
				verdict = " EXCEEDED"
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %+.1f%% | %.1f%% | %.1f%% | %.0f%%%s |\n",
				w, m.Name, a2, b2, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
