package main

import (
	"strings"
	"sync"
	"testing"
)

var (
	treeOnce sync.Once
	treeCite *citeChecker
	treeErr  error
)

// checker loads this repository once for every test in the file.
func checker(t *testing.T) *citeChecker {
	t.Helper()
	treeOnce.Do(func() {
		root := "../../.."
		var l *loader
		if l, treeErr = load(root); treeErr == nil {
			treeCite, treeErr = newCiteChecker(root, l)
		}
	})
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return treeCite
}

// staleNames are the names deleted code left behind: the stale-name
// denylist verify.sh once grepped for, each as the name it stood for, plus
// the citations that list never caught. md is the name as a Markdown
// span cites it; comment is its qualified, test or flag form in a Go
// comment, empty where it has none.
var staleNames = []struct{ md, comment string }{
	{"BENCH_4.json", ""},
	{"cmd/loadgen", ""},
	{"-bench-json", "-bench-json"},
	{"BenchJSON", "eval.BenchJSON"},
	{"LoadProfile", "eval.LoadProfile"},
	{"CompactPoints", "hist.CompactPoints"},
	{"NearestIter", "hist.NearestIter"},
	{"internal/rtree", ""},
	{"rtree.Bulk", "rtree.Bulk"},
	{"rtree.Tree", "rtree.Tree"},
	{"rtree.Entry", "rtree.Entry"},
	{"TableSession", "graphalg.TableSession"},
	{"tableQuery", "graphalg.tableQuery"},
	{"sessionTable", "graphalg.sessionTable"},
	{"upwardSearch", "graphalg.upwardSearch"},
	{"DistCtx", "graphalg.CH.DistCtx"},
	{"TableCtx", "graphalg.CH.TableCtx"},
	{"MaxRefs", "core.Params.MaxRefs"},
	{"FuzzReadSegment", "FuzzReadSegment"},
	{"writeSegment", "hist.writeSegment"},
	{"readSegment", "hist.readSegment"},
	{"listSegments", "hist.listSegments"},
	{"newestValidSegment", "hist.newestValidSegment"},
	{"SegmentBytes", "hist.StoreConfig.SegmentBytes"},
	{"SegmentTrips", "hist.StoreConfig.SegmentTrips"},
	{"segment_bytes", ""},
	{"WALSyncEvery", "hist.StoreConfig.WALSyncEvery"},
	{"dropWALThrough", "hist.dropWALThrough"},
	{"listWALFiles", "hist.listWALFiles"},
	{"seg-*.seg", ""},
	{"StageBreakdown", "eval.StageBreakdown"},
	{"AccelProfile", "eval.World.AccelProfile"},
	{"ShardProfile", "eval.World.ShardProfile"},
	{"quickSweep", "main.quickSweep"},
	{"BenchmarkFig8a", "BenchmarkFig8a"},
	{"SessionManager", "core.SessionManager"},
	{"VehicleSession", "core.VehicleSession"},
	{"ErrSessionEvicted", "core.ErrSessionEvicted"},
	{"SweepEvery", "core.SessionConfig.SweepEvery"},
	{"ParseAccelMode", "roadnet.ParseAccelMode"},
	{"resolveStreamLimits", "main.resolveStreamLimits"},
	{"-metrics-json", "-metrics-json"},
	{"-session-window", "-session-window"},
	{"-drain-grace", "-drain-grace"},
	{"-bbox-split", "-bbox-split"},
	{"-bbox-cell", "-bbox-cell"},
	{"-accel", "-accel"},
	{"EpochFingerprint", "hist.Snapshot.EpochFingerprint"},
	{"epochFingerprint", "hist.epochFingerprint"},
	{"flightKey", "core.flightKey"},
	{"hashQuery", "core.hashQuery"},
	{"CounterServerCoalesced", "core.CounterServerCoalesced"},
	{"InferBatchCtx", "core.Engine.InferBatchCtx"},
	{"BatchResult", "core.BatchResult"},
	{"StageBatch", "core.StageBatch"},
	{"CacheStats", "core.Engine.CacheStats"},
	{"PairWorkers", "core.Params.PairWorkers"},
	{"stitchLocations", "mapmatch.stitchLocations"},
	{"kgriDone", "core.kgriDone"},
	{"TestGraphReductionPreservesResults", "TestGraphReductionPreservesResults"},
	{"EdgeHops", "roadnet.Graph.EdgeHops"},
	{"EdgeHopsCtx", "roadnet.Graph.EdgeHopsCtx"},
	{"BFSHopsCtx", "graphalg.BFSHopsCtx"},
	{"-quick", "-quick"},
	{"sortByX", "hist.Searcher.sortByX"},
	{"xKey", "hist.xKey"},
	{"sideKey", "hist.sideKey"},
	{"Searcher.spare", "hist.Searcher.spare"},
	{"SearchCache", "hist.SearchCache"},
	{"NewSearchCache", "hist.NewSearchCache"},
	{"ReferencesOn", "hist.SearchCache.ReferencesOn"},
	{"searchKey", "hist.searchKey"},
	{"pairMemo", "core.pairMemo"},
	{"pairKey", "core.pairKey"},
	{"newPairMemo", "core.newPairMemo"},
	{"pairMemoBytes", "core.pairMemoBytes"},
	{"inferPair", "core.exec.inferPair"},
}

func TestStaleNamesReported(t *testing.T) {
	c := checker(t)
	for _, s := range staleNames {
		if out := c.markdown("fixture.md", "Cites `"+s.md+"` here.\n"); len(out) == 0 {
			t.Errorf("Markdown span `%s`: not reported", s.md)
		}
		if s.comment == "" {
			continue
		}
		if out := c.comment("fixture.go:1", "See "+s.comment+" for the details."); len(out) == 0 {
			t.Errorf("Go comment %q: not reported", s.comment)
		}
	}
}

func TestStaleNamesInCommandsReported(t *testing.T) {
	c := checker(t)
	for _, md := range []string{
		"go run ./cmd/hris -data d -accel ch",
		"GOMAXPROCS=4 go run ./cmd/experiments -quick",
		"go test -run '^$' -fuzz FuzzReadSegment ./internal/hist/",
		"go test ./internal/rtree/",
		"`View.VisitBox` over `rtree.Bulk`",
	} {
		if out := c.markdown("fixture.md", "```sh\n"+md+"\n```\n"); len(out) == 0 {
			t.Errorf("fenced %q: not reported", md)
		}
	}
}

func TestDesignPointers(t *testing.T) {
	c := checker(t)
	for _, tc := range []struct {
		text string
		ok   bool
	}{
		{"See DESIGN.md §1.", true},
		{"See DESIGN.md §6b.10.", true},
		{`See DESIGN.md "Memory discipline".`, true},
		{"See DESIGN.md §99.", false},
		{"See DESIGN.md §6b.11.", false},
		{"See DESIGN.md §6c.", false},
		{`See DESIGN.md "Memory management".`, false},
	} {
		if out := c.comment("fixture.go:1", tc.text); (len(out) == 0) != tc.ok {
			t.Errorf("comment %q: got %q, want ok=%v", tc.text, out, tc.ok)
		}
		if out := c.markdown("fixture.md", tc.text+"\n"); (len(out) == 0) != tc.ok {
			t.Errorf("Markdown %q: got %q, want ok=%v", tc.text, out, tc.ok)
		}
	}
	if out := c.markdown("DESIGN.md", "As §6b.2 and §11 say, and §III-A of the paper.\n"); len(out) != 0 {
		t.Errorf("DESIGN.md's own pointers: %q", out)
	}
	if out := c.markdown("DESIGN.md", "As §42 says.\n"); len(out) == 0 {
		t.Error("DESIGN.md's own pointer to a missing section: not reported")
	}
}

func TestLiveNamesPass(t *testing.T) {
	c := checker(t)
	md := strings.Join([]string{
		"`InferRoutesCtx`, `core.Engine.InferRoutesCtx`, `Engine.Metrics()`, `Session.commit`,",
		"`hist.Snapshot.WithinRadius`, `graphalg.HopSearch.Hops`, `roadnet.Graph.EdgeHopsFrom`,",
		"`sync.Pool`, `math.Hypot`, `Reference.Runs(view)`, `hs.Hops(int(c.Edge))`,",
		"`TestMatcherGoldenDigests`, `FuzzReadArchive`, `TestFigure*Smoke`, `TestOpenShardedStoreCrash/off`,",
		"`-max-sessions`, `-race -count=2`, `hris -http`, `--workload`, `-deadline -1s`,",
		"`internal/core/golden_test.go`, `core/scratch.go`, `bench/README.md`, `./internal/...`,",
		"`MANIFEST.json`, `wal.log`, `deadline_ms`, `cache.refsearch.bytes`, `wal.*`, `graphalg.*`,",
		"`hash/fnv`, `/metrics`, `q_{i+1}.T ≤ q_i.T`, `Connection: close`, `A_L`, `T_q`.",
		"```sh",
		"go test -timeout 120s -race -count=2 -run Stream ./cmd/hris/",
		"go run -C bench repro/bench --workload infer-fresh --seed 7 --seconds 15",
		"kill -9 %1",
		"```",
	}, "\n")
	if out := c.markdown("fixture.md", md); len(out) != 0 {
		t.Errorf("live names reported:\n%s", strings.Join(out, "\n"))
	}
	for _, text := range []string{
		"hs.Hops(s) is h(r, s) until hs runs again; see graphalg.KShortest.Paths and t.Fatal.",
		"Run it with -race -count=2, as TestStreamIdleTimeout does; e.g. core.go and i.e. hist.",
		`See DESIGN.md "Cancellation & deadlines" and http.Handler.`,
	} {
		if out := c.comment("fixture.go:1", text); len(out) != 0 {
			t.Errorf("comment %q reported: %q", text, out)
		}
	}
}
