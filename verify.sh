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

# Reachability: every package-level declaration in internal/ is on a call
# path from some main (cmd/, examples/, bench/) or is listed, with a reason,
# in internal/tools/reach/allow.txt — and nothing listed there is stale.
go run ./internal/tools/reach

# One measurement protocol: bench/ (go run -C bench repro/bench) is the only
# thing that produces a performance number. The protocol it replaced must
# not come back by name, nor the archive's R-tree knob and kNN stream the
# cell grids replaced, nor the R-tree package internal/grid replaced (the
# ledger row rtree.range_us keeps its name until the benchmark renames it),
# nor the contraction hierarchy's table engines and the oracle methods
# graphalg.DistanceTable made redundant, nor the reference-count cap, nor
# the segment checkpoints, WAL rotation and sync knob the one-file log
# replaced, nor cmd/experiments' timing-only figures, its -quick sweep and
# the root per-figure benchmarks (internal/eval's shape checks replaced
# them), nor the streaming-session manager, its per-vehicle wrapper, its
# eviction error and its janitor's sweep knob (the /stream handler owns its
# session now), nor the gate's single-flight coalescing, the engine's batch
# entry point and memo-stats accessor, and the shard-epoch fingerprint (one
# store's epoch already names one generation), nor the knobs nothing set —
# the accelerator flag and its parser, the session window, drain grace and
# metrics-JSON flags, the zero-means-default stream limits, gendata's bbox
# skew filter and the per-pair worker param. Those last names are matched
# as whole words, so the floor tests that keep them inside a longer name
# (TestShardedEpochFingerprint, TestEngineCacheStats,
# TestPairWorkersResolution) do not trip it.
# CHANGES.md, ROADMAP.md and bench/README.md are history and exempt.
stale='BENCH_[0-9]|loadgen|bench-json|BenchJSON|LoadProfile|CompactPoints|NearestIter|internal/rtree|rtree\.(Bulk|Tree|Entry)|TableSession|tableQuery|sessionTable|upwardSearch|DistCtx|TableCtx|MaxRefs|FuzzReadSegment|writeSegment|readSegment|listSegments|newestValidSegment|SegmentBytes|SegmentTrips|segment_bytes|WALSyncEvery|dropWALThrough|listWALFiles|seg-\*|StageBreakdown|AccelProfile|ShardProfile|quickSweep|BenchmarkFig|SessionManager|VehicleSession|ErrSessionEvicted|SweepEvery|ParseAccelMode|resolveStreamLimits|metrics-json|session-window|drain-grace|bbox-split|bbox-cell|(^|[^[:alnum:]_-])-accel\b|\b(EpochFingerprint|epochFingerprint|flightKey|hashQuery|CounterServerCoalesced|InferBatchCtx|BatchResult|StageBatch|CacheStats|PairWorkers)\b'
if grep -nE "$stale" README.md DESIGN.md bench_test.go bench_budget.json \
    $(find cmd internal examples -name '*.go'); then
    exit 1
fi
if grep -v '^stale=' verify.sh | grep -nE "$stale"; then
    exit 1
fi
go test -timeout 120s ./...
go test -timeout 300s -race ./...

# Order independence: tests must not rely on each other's side effects or on
# package-level iteration order — shuffle execution order (also defeats the
# test cache, so everything actually reruns).
go test -timeout 120s -shuffle=on ./...

# Sharded-archive smoke: the scatter-gather equivalence, boundary-dedup and
# concurrent ingest/inference suites plus the durability tables (crash
# recovery, reshard-on-reopen, torn-tail sweep, sticky WAL failure — each at
# shards {1, 4} — and the refusal of older layouts) under the race detector,
# twice in one binary (-count=2 defeats caching and catches store, epoch or
# shard-epoch state that leaks between runs). The canonical ranks are
# published under the writer lock and read lock-free by every range walk, so
# their merge (TestCanonRankOrder) and the radius test the walk applies run
# here too.
go test -timeout 300s -race -count=2 -run 'Sharded|Durable|WAL|Manifest|Canon|Radius' ./internal/hist/ ./internal/core/

# Stream lifecycle: the /stream handler's id set, point cap, idle timer and
# drain under the race detector, twice in one binary, so admission or timer
# state that leaks from one run into the next shows up on a warm process.
go test -timeout 120s -race -count=2 -run Stream ./cmd/hris/

# Bridges: the per-pair bridge memo lives in pooled scratch, so its
# equivalence to EdgePathBetweenVertices, its one search per distinct
# (from, to) pair and its refusal to cache a cancelled failure run twice in
# one binary under the race detector, with the pooled ≡ unpooled suites and
# cmd/hris serving /infer and /stream without a CH, byte-equal to a CH graph.
# Beside them, the K-GRI posterior's per-push allocation must not grow with
# the trip (pushes 700-799 within twice the bytes of pushes 0-99).
go test -timeout 120s -race -count=2 -run 'Bridges|HopSearch|PooledMatchesUnpooled|ServesWithoutCH|PosteriorPushDoesNotGrow' ./internal/roadnet/ ./internal/graphalg/ ./internal/core/ ./cmd/hris/

# Hostile bytes: the batch decoder, the log scan, the dataset's trajectory
# and road-network loaders and the trip format's wire readers (/infer,
# -query, -follow, /ingest, /stream) read bytes this process did not write.
# Each fuzz target runs for 10 s past its seed corpus: no panic, nothing
# accepted that ingest never writes, recovery idempotent, accepted
# trajectories time-ordered and reproduced exactly through a rewrite, every
# accepted trip, trip list or point decoded as encoding/json decodes it, and
# an accepted road network valid, byte-identical through a rewrite and
# answering candidate-edge queries exactly as a scan of every segment does.
go test -timeout 120s -run '^$' -fuzz '^FuzzDecodeBatch$' -fuzztime 10s ./internal/hist/
go test -timeout 120s -run '^$' -fuzz '^FuzzScanWAL$' -fuzztime 10s ./internal/hist/
go test -timeout 120s -run '^$' -fuzz '^FuzzReadArchive$' -fuzztime 10s ./internal/traj/
go test -timeout 120s -run '^$' -fuzz '^FuzzReadWire$' -fuzztime 10s ./internal/traj/
go test -timeout 120s -run '^$' -fuzz '^FuzzReadJSON$' -fuzztime 10s ./internal/roadnet/

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
# HMM and the incremental matcher on the same terms. So do the pair-context
# assembly's per-point oracle (MatchTable: per-run spliced contexts on a
# warm pool, where stale run state would show) and the memo's admission
# contract (SearchCache), and the near set's two integer shortcuts: the
# canonical ranks against the key they replace (Canon) and the squared-
# distance radius test against math.Hypot (Radius).
go test -timeout 120s -count=2 -run 'Yen|KGRI|Golden|ReferenceOracle|ProjectorOracle|ReduceTraverseGraph|KShortest|TransitTraces|MatchTable|SearchCache|Canon|Radius' ./internal/graphalg/ ./internal/hist/ ./internal/core/ ./internal/mapmatch/ ./internal/eval/
go test -timeout 120s -count=2 ./internal/grid/

# Bench smoke: the acceleration-layer benchmarks (the end-to-end HRIS query
# in both oracle modes, ST-Matching, the CH build, the bridge replay), the
# warm pair-context assembly benchmark, the warm NNI, TGI and most-spliced
# pairs, the cold
# reference search, the live-archive ingest benchmarks (Ingest matches both
# the in-memory BenchmarkIngest and the WAL-on BenchmarkIngestDurable) and
# graphalg's K-shortest-path benchmark must run one iteration without failing.
# Real numbers come from `go run -C bench repro/bench` (BENCHMARK.json).
go test -timeout 300s -run '^$' -bench 'HRISQuery|PairContext|NNIConvert|TGIPair|SplicedPair|YenK5|ReferenceSearch|STMatch|CH|Bridges|Ingest|SessionStep' -benchtime 1x . ./internal/graphalg/

# Alloc-regression gate: the steady-state query hot path must stay within
# the checked-in budget (bench_budget.json). BenchmarkHRISQuery warms the
# pools and memos before the timer starts, so allocs/op here is the
# steady-state number — stable to ±1 across runs. The benchmark line format
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

# And for the cold reference search, which the two gates above do not see
# (their queries are memo-resident): one search allocates the run list it
# returns and nothing per reference, per candidate or per range hit.
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
