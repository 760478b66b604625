// Command experiments regenerates every figure of the paper's evaluation
// section (Figures 8a–14b) on the simulated substrate and prints the same
// rows/series the paper plots, plus the repo's own profiles beyond the paper
// (ablations, extensions, deadlines, the live archive, streaming sessions).
// The figures table below is the one list of what exists; -h prints its
// names. The shapes EXPERIMENTS.md claims for these tables are checked, on
// the same world and through the same functions, by internal/eval's tests.
//
// Usage:
//
//	experiments [-fig 8a,9,14b] [-seed 7] [-csv dir]
//
// A full run takes a few seconds. An unknown -fig name exits 2.
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

// env is what a figure runs against. The shared world is built lazily:
// figures that construct their own worlds (10, temporal, freshness) skip
// its cost entirely.
type env struct {
	cfg    eval.WorldConfig
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
	{[]string{"8a"}, "8a", func(e *env) { e.emit(e.world().Figure8a()) }},
	{[]string{"8b"}, "8b", func(e *env) { e.emit(e.world().Figure8b()) }},
	{[]string{"9", "9a", "9b"}, "9", func(e *env) { e.emit(e.world().Figure9()) }},
	{[]string{"10", "10a", "10b"}, "10", func(e *env) { e.emit(eval.Figure10(e.cfg)) }},
	{[]string{"11", "11a", "11b"}, "11", func(e *env) { e.emit(e.world().Figure11()) }},
	{[]string{"12", "12a", "12b"}, "12", func(e *env) { e.emit(e.world().Figure12()) }},
	{[]string{"13", "13a", "13b"}, "13", func(e *env) { e.emit(e.world().Figure13()) }},
	{[]string{"14a"}, "14a", func(e *env) { e.emit(e.world().Figure14a()) }},
	{[]string{"14b"}, "14b", func(e *env) { e.emit(e.world().Figure14b()) }},
	{[]string{"ablation", "A1"}, "A1 (ablations)", func(e *env) { e.emit(e.world().Ablations()) }},
	{[]string{"temporal", "E1"}, "E1 (temporal extension)", func(e *env) { e.emit(eval.TemporalExtension(e.cfg)) }},
	{[]string{"networkfree", "E2"}, "E2 (network-free extension)", func(e *env) { e.emit(e.world().NetworkFreeExtension()) }},
	{[]string{"deadline"}, "deadline (graceful degradation)", func(e *env) { e.emit(e.world().DeadlineProfile()) }},
	{[]string{"freshness"}, "freshness (live archive warm-up)", func(e *env) { e.emit(eval.FreshnessProfile(e.cfg)) }},
	{[]string{"sessions"}, "sessions (streaming session profile)", func(e *env) { e.emit(e.world().SessionProfile()) }},
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
		figs = flag.String("fig", "all", "comma-separated figure list ("+figureNames()+") or all")
		seed = flag.Int64("seed", 7, "world seed")
		csvD = flag.String("csv", "", "also write each figure as CSV into this directory")
	)
	flag.Parse()
	sel, err := parseFigs(*figs)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	e := &env{cfg: eval.FullConfig(), csvDir: *csvD}
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
