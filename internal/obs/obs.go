// Package obs is the pipeline observability layer: atomic counters,
// lock-cheap latency histograms and per-query traces, built on the standard
// library only.
//
// The paper's efficiency study (§IV-D, Figure 9) attributes inference cost
// to specific stages — reference search dominates at large φ, local-route
// inference at large λ — and this package is what lets the reproduction
// report the same breakdown: core.Engine times each pipeline stage into a
// Registry histogram and, per traced query, into a Trace span.
//
// Everything is safe for concurrent use and nil-safe: every method on a nil
// *Registry, *Counter, *Histogram or *Trace is a no-op, so instrumented
// code needs no "is observability on?" branches at call sites.
package obs

// Names of the pipeline-stage histograms core.Engine maintains. One span is
// recorded per stage occurrence; per-pair stages carry the pair index.
const (
	// StageQuery is one whole InferRoutes invocation, wall clock.
	StageQuery = "query"
	// StageReferenceSearch is the Definition 6/7 reference search of one
	// query pair (served through hist.SearchCache).
	StageReferenceSearch = "reference_search"
	// StageCandidateSearch is the pair-context assembly: the candidate-edge
	// support (Definition 5, read off the per-trajectory match tables) of
	// every reference point of one pair.
	StageCandidateSearch = "candidate_search"
	// StageConnectionCulling is TGI's traverse-graph connectivity work:
	// strong-connectivity augmentation plus transitive link reduction.
	StageConnectionCulling = "connection_culling"
	// StageLocalTGI / StageLocalNNI is the local route inference of one
	// pair, keyed by the algorithm actually used (§III-B).
	StageLocalTGI = "local_tgi"
	StageLocalNNI = "local_nni"
	// StageKGRI is the global K-GRI dynamic program plus route trimming —
	// the serial tail joining the per-pair results (§III-C).
	StageKGRI = "kgri_global"
)

// Names of the live-archive instrumentation hist.Store maintains (ingest is
// the hot online path, so its latency distribution — p95 especially — is the
// service-level number; compaction is the amortizer, run inside the write
// that fills a segment stack or by Store.Compact).
const (
	// StageIngest is one Store.Ingest call end to end: preprocessing, the
	// batch's grid segments and snapshot publication.
	StageIngest = "ingest"
	// StageCompaction is one compaction pass (inside the ingest that fills a
	// stack, or Compact) over every shard it merges.
	StageCompaction = "compaction"
	// CounterIngestTrips counts trips admitted into the archive (post
	// preprocessing; rejected fragments don't count).
	CounterIngestTrips = "ingest.trips"
	// CounterIngestPoints counts GPS points admitted into the archive.
	CounterIngestPoints = "ingest.points"
	// CounterIngestBatches counts Ingest/IngestTrips calls that published a
	// new snapshot.
	CounterIngestBatches = "ingest.batches"
	// CounterCompactions counts completed compaction passes.
	CounterCompactions = "compactions"
	// CounterIngestRejected counts ingest inputs dropped before admission
	// (malformed or oversized NDJSON lines in cmd/hris -follow, bad request
	// bodies); rejected inputs never reach the archive or the WAL.
	CounterIngestRejected = "ingest.rejected"
)

// Names of the durability instrumentation a persistent hist.Store maintains
// (stores opened with OpenShardedStore; in-memory stores record
// none of these).
const (
	// CounterWALRecords counts batch records appended to the write-ahead log.
	CounterWALRecords = "wal.records"
	// CounterWALBytes counts bytes appended to the write-ahead log.
	CounterWALBytes = "wal.bytes"
	// CounterWALFsyncs counts fsyncs of the write-ahead log (one per record
	// under the "always" sync policy, one per tick under "interval", and one
	// per compaction pass that finds unsynced records).
	CounterWALFsyncs = "wal.fsyncs"
	// CounterWALErrors counts failed WAL appends or syncs — batches that
	// stayed visible in memory but did not become durable.
	CounterWALErrors = "wal.errors"
	// CounterRecoveryBatches counts WAL batch records replayed at OpenShardedStore.
	CounterRecoveryBatches = "recovery.batches"
	// CounterRecoveryTrips counts trips recovered at OpenShardedStore (the
	// WAL replay).
	CounterRecoveryTrips = "recovery.trips"
	// CounterRecoveryTornBytes counts WAL bytes discarded at OpenShardedStore —
	// the torn tail of a crashed append plus anything after it.
	CounterRecoveryTornBytes = "recovery.torn_bytes"
)

// Names of the shard instrumentation a hist.Store maintains, at any shard
// count (one shard answers every range query on the fast path).
// Per-shard ingest counters are namespaced ShardPrefix + index + "." + name
// (e.g. "shard.3.ingest.trips"); they count replicas, so their sum exceeds
// the store-wide counters by the halo replication factor.
const (
	// CounterQueryFastPath counts range queries answered from a single
	// shard because the search box fit inside one halo cell.
	CounterQueryFastPath = "scatter.fastpath"
	// CounterQueryScatter counts range queries that scattered across the
	// shards overlapping the search box and gathered with ownership dedup.
	CounterQueryScatter = "scatter.queries"
	// HistScatterFanout is the shards-contacted-per-range-query
	// distribution, recorded as a pseudo-duration of 1µs per shard so the
	// log-spaced buckets resolve fan-outs of 1, 2, ≤4, ≤8, … shards.
	HistScatterFanout = "scatter.fanout"
	// ShardPrefix namespaces per-shard counters.
	ShardPrefix = "shard."
)

// Names of the serving-path instruments core.Gate maintains — the admission
// control and load-shedding layer cmd/hris puts in front of /infer. Under
// sustained traffic these are the numbers the load generator's report and
// the sustained-throughput figure are built from.
const (
	// HistServerInflight is the concurrent-inference distribution, recorded
	// as a pseudo-duration of 1µs per occupied worker slot at admission (the
	// same encoding as HistScatterFanout), so its max bounds the worst
	// concurrency the gate ever allowed: max ≤ MaxInflight µs by
	// construction.
	HistServerInflight = "server.inflight"
	// HistServerQueueWait is the time a request spent waiting for a worker
	// slot between admission and inference start (or shed).
	HistServerQueueWait = "server.queue_wait"
	// CounterServerShed counts every request the gate refused to serve —
	// the sum of the .queue and .expired breakdowns below.
	CounterServerShed = "server.shed"
	// CounterServerShedQueue counts requests rejected at admission because
	// the queue was full (HTTP 429).
	CounterServerShedQueue = "server.shed.queue"
	// CounterServerShedExpired counts requests shed because their deadline
	// expired — or would expire, per the gate's running estimate — before
	// inference could start (HTTP 503): the worker is spent on a request
	// that can still answer in time instead.
	CounterServerShedExpired = "server.shed.expired"
)

// Names of the streaming-session instruments cmd/hris's /stream handler
// maintains — the per-vehicle incremental inference surface.
const (
	// HistSessionStep is the per-point incremental inference latency: one
	// Push end to end (pair inference + one K-GRI DP column + the
	// provisional-tail materialization).
	HistSessionStep = "session.step"
	// HistSessionFinalize is the Finalize latency: the terminal K-GRI
	// ranking plus result assembly over the whole accumulated trace.
	HistSessionFinalize = "session.finalize"
	// HistSessionLag is the update-lag distribution, recorded as a
	// pseudo-duration of 1µs per unfirmed pair at each update (the
	// HistScatterFanout encoding): how far the firm prefix trails the
	// newest point.
	HistSessionLag = "session.lag"
	// CounterSessionCreated counts sessions admitted on /stream.
	CounterSessionCreated = "session.created"
	// CounterSessionRejected counts session opens refused at admission
	// because -max-sessions streams were open.
	CounterSessionRejected = "session.rejected"
	// CounterSessionDuplicate counts session opens refused because the
	// vehicle id already had an active session (one vehicle, one stream) —
	// kept separate from session.rejected so capacity rejections stay a
	// clean overload signal.
	CounterSessionDuplicate = "session.duplicate"
	// CounterSessionEvicted counts streams closed after -session-idle
	// without a point.
	CounterSessionEvicted = "session.evicted"
	// CounterSessionFinalized counts sessions that completed via Finalize.
	CounterSessionFinalized = "session.finalized"
	// CounterSessionAborted counts sessions closed without finalizing
	// (client vanished, fatal pair error, malformed point).
	CounterSessionAborted = "session.aborted"
	// CounterSessionPoints counts GPS points accepted across all sessions —
	// with a timestamp delta this is the fleet's points/sec.
	CounterSessionPoints = "session.points"
)

// Names of the deadline/cancellation counters core.Engine maintains for
// context-aware inference (the ...Ctx entry points and Params.Deadline).
const (
	// CounterQueryCancelled counts queries aborted with an error because
	// the caller's context was cancelled outright.
	CounterQueryCancelled = "query.cancelled"
	// CounterQueryDegraded counts queries that hit their deadline and
	// returned a best-effort Degraded result instead of an error.
	CounterQueryDegraded = "query.degraded"
	// DeadlineCounterPrefix prefixes per-stage deadline-hit counters: a
	// counter named DeadlineCounterPrefix + stage (e.g. "deadline.local_tgi")
	// increments when budget expiry is first detected in that stage.
	DeadlineCounterPrefix = "deadline."
)
