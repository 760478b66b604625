#!/bin/sh
# Repo verification: formatting, vet, build, full tests, and the race
# detector over every package. ROADMAP.md's tier-1 line is the vet/build/test
# steps; the repo-wide -race pass guards the Engine's concurrency contract
# and the lock-free obs instruments.
#
# -timeout caps each package's test binary: with cancellation checkpoints
# threaded through every search loop, a hang now means a broken checkpoint,
# and the cap turns it into a fast failure instead of a stuck CI job.
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go build ./...

# Reachability and citations: every package-level declaration in internal/
# is on a call path from some main (cmd/, examples/, bench/) or is listed,
# with a reason, in internal/tools/reach/allow.txt — and nothing listed there
# is stale. The same run resolves what README.md, DESIGN.md and the verify
# skill cite in backticks (Go names and chains, Test/Benchmark/Fuzz names,
# flags, repo paths, DESIGN.md section and heading pointers) and what Go
# comments cite (qualified names, test names, flags, DESIGN.md pointers)
# against the type-checked tree, so a deleted name cannot linger in the docs.
go run ./internal/tools/reach

go test -timeout 120s ./...
go test -timeout 300s -race ./...

# Order independence: tests must not rely on each other's side effects or on
# package-level iteration order — shuffle execution order (also defeats the
# test cache, so everything actually reruns).
go test -timeout 120s -shuffle=on ./...

# Examples: README quotes what each program under examples/ prints, so each
# is built and run twice, the second time on one CPU, and the two outputs
# must match byte for byte: an answer that depends on map iteration order or
# on scheduling shows up here.
exdir=$(mktemp -d)
trap 'rm -rf "$exdir"' EXIT
for ex in examples/*/; do
    name=$(basename "$ex")
    go build -o "$exdir/$name" "./$ex"
    "$exdir/$name" > "$exdir/$name.1"
    GOMAXPROCS=1 "$exdir/$name" > "$exdir/$name.2"
    diff "$exdir/$name.1" "$exdir/$name.2"
done
rm -rf "$exdir"

# Sharded-archive smoke: hist's scatter-gather, boundary-dedup and
# concurrent ingest/search suites plus the durability tables (torn-tail
# sweep, sticky WAL failure, the refusal of older layouts) under the race
# detector, twice in one binary (-count=2 defeats caching and catches store,
# epoch or shard-epoch state that leaks between runs). Every merge runs
# under the store's one writer mutex, inside the write that fills a stack or
# in Compact, so the write-path locking is pinned by
# TestStoreConcurrentIngestAndSearch and TestStoreConcurrentCompaction
# (writers, Compact calls and readers racing) here too. Beside them, core's
# model harness in both modes: sequential (any shard count, halo and sync
# policy; crashes reopened at another shard count) and concurrent (one
# writer, three readers, goroutines back at baseline), with its sharded and
# durable cases by name; the second run draws the next block of seeds. The
# canonical ranks are published under the writer lock and read lock-free by
# every range walk, so their merge (TestCanonRankOrder) and the radius test
# the walk applies run here too.
go test -timeout 300s -race -count=2 -run 'Sharded|Durable|WAL|Manifest|Canon|Radius|Model|StoreConcurrent' ./internal/hist/ ./internal/core/

# Stream lifecycle: the /stream handler's id set, point cap, idle timer and
# drain under the race detector, twice in one binary, so admission or timer
# state that leaks from one run into the next shows up on a warm process.
# Beside them, a server that answered /infer and /ingest over a durable
# store must be back at its starting goroutine count after shutdown.
go test -timeout 120s -race -count=2 -run 'Stream|ShutdownReturnsGoroutines' ./cmd/hris/

# Bridges: the per-pair bridge memo lives in pooled scratch, so its
# equivalence to EdgePathBetweenVertices, its one search per distinct
# (from, to) pair and its refusal to cache a cancelled failure run twice in
# one binary under the race detector, with the model harness (pooled or
# unpooled engines against an unpooled model, cancellations at the n-th range
# walk; its pooled ≡ unpooled cases by name too) and cmd/hris serving /infer
# and /stream without a CH, byte-equal to a CH graph.
# Beside them, the K-GRI posterior's per-push allocation must not grow with
# the trip (pushes 700-799 within twice the bytes of pushes 0-99), and the
# query memo's answers, shared by every hit, must stay unwritten while
# concurrent offline queries are served from them and sessions stream the
# same queries, every answer JSON-encoded (QueryMemoReadOnly).
go test -timeout 120s -race -count=2 -run 'Bridges|HopSearch|Model|PooledMatchesUnpooled|ServesWithoutCH|PosteriorPushDoesNotGrow|QueryMemoReadOnly' ./internal/roadnet/ ./internal/graphalg/ ./internal/core/ ./cmd/hris/

# Hostile bytes: the batch decoder, the log scan, the dataset's trajectory
# and road-network loaders and the trip format's wire readers (/infer,
# -query, -follow, /ingest, /stream) read bytes this process did not write.
# Each fuzz target runs for 10 s past its seed corpus: no panic, nothing
# accepted that ingest never writes, recovery idempotent, accepted
# trajectories time-ordered and reproduced exactly through a rewrite, every
# accepted trip, trip list or point decoded as encoding/json decodes it, and
# an accepted road network valid, byte-identical through a rewrite and
# answering candidate-edge queries exactly as a scan of every segment does.
# Minimizing a new interesting input may take at most 1 s (the default is
# 60 s, longer than the leg), so a leg spends its 10 s fuzzing — and a leg
# must show it: its output is kept, and every "fuzz: elapsed" report after
# the first must count more execs than the one before, or the leg fails.
fuzzlog=$(mktemp -d)
trap 'rm -rf "$fuzzlog"' EXIT
fuzz_leg() {
    go test -timeout 120s -run '^$' -fuzz "^$1\$" -fuzztime 10s -fuzzminimizetime 1s "$2" > "$fuzzlog/$1" 2>&1 ||
        { cat "$fuzzlog/$1"; return 1; }
    cat "$fuzzlog/$1"
    awk -v leg="$1" '/^fuzz: elapsed: .*, execs: / {
        n = $0; sub(/.*, execs: /, "", n); sub(/ .*/, "", n); n += 0
        if (seen && n <= last) { print leg ": no new execs: " $0; stalled = 1 }
        last = n; seen = 1
    }
    END { exit stalled }' "$fuzzlog/$1"
}
fuzz_leg FuzzDecodeBatch ./internal/hist/
fuzz_leg FuzzScanWAL ./internal/hist/
fuzz_leg FuzzReadArchive ./internal/traj/
fuzz_leg FuzzReadWire ./internal/traj/
fuzz_leg FuzzReadJSON ./internal/roadnet/
rm -rf "$fuzzlog"

# The wire-level benchmark is its own module (bench/go.mod, replace repro =>
# ../), so `./...` above never compiles it. Vet it against this tree's
# internal/hist and core, and run its smoke test: wire answers served by
# cmd/hris's store must equal those of an in-process engine over a store of
# the same dataset, and a SIGKILLed four-shard durable store must reopen at
# or past every acknowledged epoch.
go vet -C bench ./...
go test -C bench -timeout 300s ./...

# Determinism: the Yen equal-weight tie-break, the K-GRI oracle suites (the
# firmness oracle among them: FirmPairs against the parts' common prefix), the
# three golden digests (InferRoutes, network-free, PairLocalRoutes — which
# pin candidate edges in their total (distance, EdgeID) order, so no index
# can reorder them), the reference search's equivalence to its map-based
# oracle, the trace projector's to its float-keyed one (synthetic batches in
# mapmatch, real ones in core), the traverse-graph reduction's to its
# map-based one, the K-shortest-path solver's to the plain-Dijkstra Yen
# (synthetic graphs in graphalg, recorded real traverse graphs in core), the
# transit-trace table scan's to the sorted kNN stream, and the cell grid's
# to its brute-force scans must give identical verdicts run-to-run
# (-count=2 defeats test caching and runs each twice in one binary, the
# second time on warm pools, memos, solver and searcher scratch). The
# matchers' golden digests (TestMatcherGoldenDigests) pin ST-Matching, IVMM,
# HMM and the incremental matcher on the same terms, and the figures' digests
# (TestFigureGoldenDigests) every deterministic table cmd/experiments prints. So do the pair-context
# assembly's per-point oracle (MatchTable: per-run spliced contexts on a
# warm pool, where stale run state would show) and the query memo's admission
# and epoch contract (QueryMemo), and the near set's two integer shortcuts: the
# canonical ranks against the key they replace (Canon) and the squared-
# distance radius test against math.Hypot (Radius). The per-pair path orders
# by dense tables, not sorts, so the ties those tables must break as the
# sorts did run here on warm pools too: the reference oracle's tie world
# (equal X at different fill positions, -0 against +0, trips sharing a
# canonical rank) and the splice join's cell cases (score ties the cell scan
# meets out of order, a flat and a wide side, e from 1e-300 to +Inf), the
# K-GRI column against its fully sorted candidates, the route chain against
# the mergeRoutes fold it replaced (KGRI)
# (PosteriorSelection), the tables' stamp wraps, warm reuse and growth under
# an ingest (SurvivesWrap), and the comparisons a K-GRI push makes
# (PosteriorPushWork: at most K per candidate, flat over a long trip).
go test -timeout 120s -count=2 -run 'Yen|KGRI|Golden|ReferenceOracle|ProjectorOracle|ReduceTraverseGraph|KShortest|TransitTraces|MatchTable|QueryMemo|Canon|Radius|SurvivesWrap|PosteriorSelection|PosteriorPushWork' ./internal/graphalg/ ./internal/hist/ ./internal/core/ ./internal/mapmatch/ ./internal/eval/
go test -timeout 120s -count=2 ./internal/grid/

# Bench smoke: the acceleration-layer benchmarks (the end-to-end HRIS query
# in both oracle modes, computed and served from the query memo
# (HRISQueryMemoHit), ST-Matching, the CH build, the bridge replay), the
# warm pair-context assembly benchmark, the warm NNI, TGI and most-spliced
# pairs, the cold
# reference search, the live-archive ingest benchmarks (Ingest matches both
# the in-memory BenchmarkIngest and the WAL-on BenchmarkIngestDurable) and
# graphalg's K-shortest-path benchmark must run one iteration without failing.
# Real numbers come from `go run -C bench repro/bench` (BENCHMARK.json).
go test -timeout 300s -run '^$' -bench 'HRISQuery|PairContext|NNIConvert|TGIPair|SplicedPair|YenK5|ReferenceSearch|STMatch|CH|Bridges|Ingest|SessionStep' -benchtime 1x . ./internal/graphalg/

# Alloc-regression gate: the steady-state query hot path must stay within
# the checked-in budget (bench_budget.json). BenchmarkHRISQuery warms the
# pools and match tables before the timer starts and asks each timed query
# with fresh parameters, so every pair is computed, not served from the query
# memo; allocs/op here is the steady-state number — stable to ±1 across runs. The benchmark line format
# is "BenchmarkHRISQuery <N> <ns/op> ns/op <B/op> B/op <allocs/op> allocs/op";
# allocs/op is field NF-1 and B/op is field NF-3.
bench_line=$(go test -timeout 300s -run '^$' -bench '^BenchmarkHRISQuery$' \
    -benchmem -benchtime 20x . | grep '^BenchmarkHRISQuery')
echo "$bench_line"
allocs=$(echo "$bench_line" | awk '{print $(NF-1)}')
bytes=$(echo "$bench_line" | awk '{print $(NF-3)}')
max_allocs=$(sed -n 's/.*"max_allocs_per_op": *\([0-9][0-9]*\).*/\1/p' bench_budget.json)
max_bytes=$(sed -n 's/.*"max_bytes_per_op": *\([0-9][0-9]*\).*/\1/p' bench_budget.json)
test -n "$max_allocs" && test -n "$max_bytes"
test "$allocs" -le "$max_allocs"
test "$bytes" -le "$max_bytes"

# Same gate for the streaming hot path: one session push (one pair's
# inference plus the incremental K-GRI column and the provisional merge)
# must stay within its own budget — the streaming substrate's value is the
# per-point cost staying a small constant, so a regression here silently
# erodes the whole feature.
session_line=$(go test -timeout 300s -run '^$' -bench '^BenchmarkSessionStep$' \
    -benchmem -benchtime 50x . | grep '^BenchmarkSessionStep')
echo "$session_line"
allocs=$(echo "$session_line" | awk '{print $(NF-1)}')
bytes=$(echo "$session_line" | awk '{print $(NF-3)}')
max_allocs=$(sed -n 's/.*"session_max_allocs_per_op": *\([0-9][0-9]*\).*/\1/p' bench_budget.json)
max_bytes=$(sed -n 's/.*"session_max_bytes_per_op": *\([0-9][0-9]*\).*/\1/p' bench_budget.json)
test -n "$max_allocs" && test -n "$max_bytes"
test "$allocs" -le "$max_allocs"
test "$bytes" -le "$max_bytes"

# And for the cold reference search alone, which the two gates above run
# inside each pair: one search allocates the run list it returns and nothing
# per reference, per candidate or per range hit.
refsearch_line=$(go test -timeout 300s -run '^$' -bench '^BenchmarkReferenceSearchRoot$' \
    -benchmem -benchtime 200x . | grep '^BenchmarkReferenceSearchRoot')
echo "$refsearch_line"
allocs=$(echo "$refsearch_line" | awk '{print $(NF-1)}')
bytes=$(echo "$refsearch_line" | awk '{print $(NF-3)}')
max_allocs=$(sed -n 's/.*"refsearch_max_allocs_per_op": *\([0-9][0-9]*\).*/\1/p' bench_budget.json)
max_bytes=$(sed -n 's/.*"refsearch_max_bytes_per_op": *\([0-9][0-9]*\).*/\1/p' bench_budget.json)
test -n "$max_allocs" && test -n "$max_bytes"
test "$allocs" -le "$max_allocs"
test "$bytes" -le "$max_bytes"

# The same search with splicing always on, so the splice join runs (94 of
# the pair's 108 references are spliced): it too allocates only the list it
# returns, not the join's cells or tables, and is held to the allocs budget
# read above and a bytes budget of its own.
spliced_line=$(go test -timeout 300s -run '^$' -bench '^BenchmarkReferenceSearchSpliced$' \
    -benchmem -benchtime 200x . | grep '^BenchmarkReferenceSearchSpliced')
echo "$spliced_line"
allocs=$(echo "$spliced_line" | awk '{print $(NF-1)}')
bytes=$(echo "$spliced_line" | awk '{print $(NF-3)}')
max_bytes=$(sed -n 's/.*"refsearch_spliced_max_bytes_per_op": *\([0-9][0-9]*\).*/\1/p' bench_budget.json)
test -n "$max_bytes"
test "$allocs" -le "$max_allocs"
test "$bytes" -le "$max_bytes"

# Crash-recovery smoke, end to end: feed a live NDJSON stream into a durable
# store through a fifo (so stdin stays open and the process cannot exit
# cleanly), SIGKILL the process mid-stream, then reopen the same data
# directory and assert recovery restored at least every batch the killed
# process acknowledged (-wal-sync always: an acknowledged batch is fsynced).
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/gendata" ./cmd/gendata
go build -o "$tmp/hris" ./cmd/hris
"$tmp/gendata" -out "$tmp/data" -rows 10 -cols 10 -trips 60 -hotspots 4 -stream 40 > "$tmp/stream.ndjson"
mkfifo "$tmp/pipe"
"$tmp/hris" -data "$tmp/data" -data-dir "$tmp/store" -wal-sync always -follow \
    < "$tmp/pipe" > "$tmp/follow.log" 2>&1 &
pid=$!
( cat "$tmp/stream.ndjson"; sleep 60 ) > "$tmp/pipe" &
writer=$!
i=0
until grep -q '^follow: +[1-9]' "$tmp/follow.log"; do
    i=$((i + 1)); test "$i" -le 300; sleep 0.1
done
kill -9 "$pid"
wait "$pid" || true
kill "$writer" 2>/dev/null || true
wait "$writer" || true
# Every "follow: +N trips" line with N > 0 is one fsynced epoch the killed
# process acknowledged; the reopened store must be at or past all of them.
acked=$(grep -c '^follow: +[1-9]' "$tmp/follow.log")
"$tmp/hris" -data "$tmp/data" -data-dir "$tmp/store" -wal-sync always -follow \
    < /dev/null > "$tmp/reopen.log" 2>&1
grep -q 'recovered epoch' "$tmp/reopen.log"
recovered=$(sed -n 's/.*recovered epoch \([0-9][0-9]*\).*/\1/p' "$tmp/reopen.log")
test "$recovered" -ge "$acked"
# A second clean reopen must land on the exact same epoch (recovery is
# idempotent once the torn tail is gone).
"$tmp/hris" -data "$tmp/data" -data-dir "$tmp/store" -wal-sync always -follow \
    < /dev/null > "$tmp/reopen2.log" 2>&1
grep -q "recovered epoch $recovered " "$tmp/reopen2.log"

# The gate and stream flags on the built binary (-max-inflight, -queue-depth,
# -stream-ingest reaching the gate and the store, no 5xx, SIGTERM exits 0)
# are cmd/hris's TestBinaryWiring, already run above with and without -race;
# every workload against the real process is bench/'s TestSmoke.
