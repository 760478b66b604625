// Command experiments regenerates every figure of the paper's evaluation
// section (Figures 8a–14b) on the simulated substrate and prints the same
// rows/series the paper plots, plus the repo's own profiles beyond the paper
// (ablations, extensions, stage breakdown, deadlines, oracle modes, live and
// sharded archives, streaming sessions). The figures table below is the one
// list of what exists; -h prints its names.
//
// Usage:
//
//	experiments [-quick] [-fig 8a,9,14b] [-seed 7]
//
// -quick runs a scaled-down sweep suitable for a laptop minute; the default
// (full) run takes several minutes. An unknown -fig name exits 2.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/eval"
)

// sweep is the x-axis of every figure, full-size or -quick.
type sweep struct {
	rates, lengths, phis, phiRates []float64
	tripCounts, lambdas            []int
	k1s, k2s, k3s, pairCounts      []int
	freshCounts, shardCounts       []int
	sessionWindows                 []int
	deadlines                      []time.Duration
}

var fullSweep = sweep{
	rates:          []float64{3, 6, 9, 12, 15},
	lengths:        []float64{6, 9, 12, 15, 18},
	phis:           []float64{50, 100, 200, 400, 600, 900},
	phiRates:       []float64{3, 9, 15},
	tripCounts:     []int{15, 50, 150, 400, 1200},
	lambdas:        []int{1, 2, 3, 4, 5, 6, 7, 8},
	k1s:            []int{1, 2, 4, 6, 8, 10},
	k2s:            []int{1, 2, 3, 4, 5, 6, 7, 8},
	k3s:            []int{1, 2, 3, 4, 5, 6, 8, 10},
	pairCounts:     []int{2, 3, 4, 5, 6, 7},
	freshCounts:    []int{100, 300, 600, 1000, 1500},
	shardCounts:    []int{1, 2, 4, 9, 16},
	sessionWindows: []int{1, 2, 4, 8, 16},
	deadlines: []time.Duration{0, time.Millisecond, 5 * time.Millisecond,
		20 * time.Millisecond, 100 * time.Millisecond, 500 * time.Millisecond},
}

var quickSweep = sweep{
	rates:          []float64{3, 9, 15},
	lengths:        []float64{4, 6, 8},
	phis:           []float64{50, 200, 800},
	phiRates:       []float64{3, 9},
	tripCounts:     []int{50, 200, 800},
	lambdas:        []int{2, 4, 6},
	k1s:            []int{1, 4, 8},
	k2s:            []int{2, 4, 6},
	k3s:            []int{1, 3, 5, 8},
	pairCounts:     []int{2, 3, 4, 5},
	freshCounts:    []int{50, 150, 400},
	shardCounts:    []int{1, 2, 4, 9},
	sessionWindows: []int{1, 4, 8},
	deadlines:      []time.Duration{0, time.Millisecond, 20 * time.Millisecond},
}

// env is what a figure runs against. The shared world is built lazily:
// figures that construct their own worlds (10, temporal, accel, freshness,
// shards) skip its cost entirely.
type env struct {
	cfg    eval.WorldConfig
	sw     sweep
	csvDir string
	w      *eval.World
}

func (e *env) world() *eval.World {
	if e.w == nil {
		t0 := time.Now()
		fmt.Printf("building world (seed %d, %dx%d city, %d trips)...\n",
			e.cfg.Seed, e.cfg.CityRows, e.cfg.CityCols, e.cfg.Trips)
		e.w = eval.NewWorld(e.cfg)
		fmt.Printf("world ready in %v\n\n", time.Since(t0).Round(time.Millisecond))
	}
	return e.w
}

// figure is one -fig target: names[0] is the canonical name, the rest are
// accepted aliases; title labels the timing line.
type figure struct {
	names []string
	title string
	run   func(e *env)
}

// figures is every -fig target, in the order "all" runs them. The -fig help
// string, name validation and dispatch all read this table.
var figures = []figure{
	{[]string{"8a"}, "8a", func(e *env) { e.emit(e.world().Figure8a(e.sw.rates)) }},
	{[]string{"8b"}, "8b", func(e *env) { e.emit(e.world().Figure8b(e.sw.lengths)) }},
	{[]string{"9", "9a", "9b"}, "9", func(e *env) { e.emit(e.world().Figure9(e.sw.phis, e.sw.phiRates)) }},
	{[]string{"10", "10a", "10b"}, "10", func(e *env) { e.emit(eval.Figure10(e.cfg, e.sw.tripCounts)) }},
	{[]string{"11", "11a", "11b"}, "11", func(e *env) { e.emit(e.world().Figure11(e.sw.lambdas, e.sw.phiRates)) }},
	{[]string{"12", "12a", "12b"}, "12", func(e *env) { e.emit(e.world().Figure12(e.sw.k1s, e.sw.phiRates)) }},
	{[]string{"13", "13a", "13b"}, "13", func(e *env) { e.emit(e.world().Figure13(e.sw.k2s, e.sw.phiRates)) }},
	{[]string{"14a"}, "14a", func(e *env) { e.emit(e.world().Figure14a(e.sw.k3s)) }},
	{[]string{"14b"}, "14b", func(e *env) { e.emit(e.world().Figure14b(e.sw.pairCounts)) }},
	{[]string{"ablation", "A1"}, "A1 (ablations)", func(e *env) { e.emit(e.world().Ablations(e.sw.phiRates)) }},
	{[]string{"temporal", "E1"}, "E1 (temporal extension)", func(e *env) { e.emit(eval.TemporalExtension(e.cfg, e.sw.phiRates)) }},
	{[]string{"networkfree", "E2"}, "E2 (network-free extension)", func(e *env) { e.emit(e.world().NetworkFreeExtension(e.sw.phiRates)) }},
	{[]string{"stages"}, "stages (per-stage cost breakdown)", func(e *env) {
		e.world().WriteStageBreakdowns(os.Stdout, e.sw.phiRates, e.cfg.Seed)
	}},
	{[]string{"deadline"}, "deadline (graceful degradation)", func(e *env) { e.emit(e.world().DeadlineProfile(e.sw.deadlines)) }},
	{[]string{"accel"}, "accel (CH oracle vs Dijkstra)", func(e *env) { e.emit(eval.AccelProfile(e.cfg, e.sw.phiRates)) }},
	{[]string{"freshness"}, "freshness (live archive warm-up)", func(e *env) { e.emit(eval.FreshnessProfile(e.cfg, e.sw.freshCounts)) }},
	{[]string{"shards"}, "shards (sharded archive scaling)", func(e *env) { e.emit(eval.ShardProfile(e.cfg, e.sw.shardCounts)) }},
	{[]string{"sessions"}, "sessions (streaming session profile)", func(e *env) { e.emit(e.world().SessionProfile(e.sw.sessionWindows)) }},
}

// figureNames lists the canonical names in table order.
func figureNames() string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.names[0]
	}
	return strings.Join(names, ",")
}

// parseFigs resolves a -fig value to one selected flag per figures entry.
// "all" selects everything; an alias selects its figure; an empty element
// or a name the table does not hold is an error.
func parseFigs(spec string) ([]bool, error) {
	sel := make([]bool, len(figures))
next:
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "all" {
			for i := range sel {
				sel[i] = true
			}
			continue
		}
		for i, f := range figures {
			for _, n := range f.names {
				if n == name {
					sel[i] = true
					continue next
				}
			}
		}
		return nil, fmt.Errorf("unknown figure %q (valid: %s, all)", name, figureNames())
	}
	return sel, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		quick = flag.Bool("quick", false, "scaled-down sweep")
		figs  = flag.String("fig", "all", "comma-separated figure list ("+figureNames()+") or all")
		seed  = flag.Int64("seed", 7, "world seed")
		csvD  = flag.String("csv", "", "also write each figure as CSV into this directory")
	)
	flag.Parse()
	sel, err := parseFigs(*figs)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	e := &env{cfg: eval.FullConfig(), sw: fullSweep, csvDir: *csvD}
	if *quick {
		e.cfg, e.sw = eval.QuickConfig(), quickSweep
	}
	e.cfg.Seed = *seed

	start := time.Now()
	for i, f := range figures {
		if !sel[i] {
			continue
		}
		t0 := time.Now()
		f.run(e)
		fmt.Printf("[figure %s took %v]\n\n", f.title, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
}

// emit prints each table and, when -csv is set, writes it to
// <dir>/fig<id>.csv.
func (e *env) emit(tables ...*eval.Table) {
	for _, t := range tables {
		t.Print(os.Stdout)
		if e.csvDir == "" {
			continue
		}
		if err := os.MkdirAll(e.csvDir, 0o755); err != nil {
			log.Fatalf("mkdir %s: %v", e.csvDir, err)
		}
		path := filepath.Join(e.csvDir, "fig"+t.Figure+".csv")
		f, err := os.Create(path)
		if err != nil {
			log.Fatalf("create %s: %v", path, err)
		}
		err = t.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatalf("write %s: %v", path, err)
		}
	}
}
