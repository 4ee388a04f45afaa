#ifndef CHAINSFORMER_UTIL_METRIC_NAMES_H_
#define CHAINSFORMER_UTIL_METRIC_NAMES_H_

namespace chainsformer {
namespace metrics {
namespace names {

/// Central registry of every metric/histogram/gauge name in the library.
///
/// Instrumented code must spell names through these constants instead of
/// repeating dotted string literals at the call site — a typo in a literal
/// silently creates a brand-new (and forever-empty) series, which no test
/// can catch. The cf_lint rule `metric-name-literal` rejects string-literal
/// arguments to MetricsRegistry::Get{Counter,Gauge,Histogram} anywhere under
/// src/, windowed registrations included.
///
/// Grouping mirrors the subsystem prefixes (`pipeline.`, `serve.`, ...).
/// Keep the list sorted within each group when adding names.

// --- thread pool -----------------------------------------------------------
inline constexpr char kThreadpoolInlineRuns[] = "threadpool.inline_runs";
inline constexpr char kThreadpoolRangeTasks[] = "threadpool.range_tasks";
inline constexpr char kThreadpoolTasksScheduled[] = "threadpool.tasks_scheduled";

// --- dense kernel layer ----------------------------------------------------
inline constexpr char kKernelsDispatchInline[] = "kernels.dispatch_inline";
inline constexpr char kKernelsDispatchPooled[] = "kernels.dispatch_pooled";
inline constexpr char kKernelsRowsPerDispatch[] = "kernels.rows_per_dispatch";
inline constexpr char kKernelsTasksDispatched[] = "kernels.tasks_dispatched";

// --- tape sanitizer --------------------------------------------------------
inline constexpr char kTapeLeakedRoots[] = "tape.leaked_roots";
inline constexpr char kTapePoisonEvents[] = "tape.poison_events";
inline constexpr char kTapeVersionViolations[] = "tape.version_violations";

// --- KG loading ------------------------------------------------------------
inline constexpr char kKgLoadCalls[] = "kg.load.calls";
inline constexpr char kKgLoadMicros[] = "kg.load.micros";
inline constexpr char kKgLoadNumericalTriples[] = "kg.load.numerical_triples";
inline constexpr char kKgLoadRelationalTriples[] = "kg.load.relational_triples";

// --- pipeline stages -------------------------------------------------------
inline constexpr char kPipelineAggregateCalls[] = "pipeline.aggregate.calls";
inline constexpr char kPipelineAggregateMicros[] = "pipeline.aggregate.micros";
inline constexpr char kPipelineEncodeCalls[] = "pipeline.encode.calls";
inline constexpr char kPipelineEncodeMicros[] = "pipeline.encode.micros";
inline constexpr char kPipelineFilterCalls[] = "pipeline.filter.calls";
inline constexpr char kPipelineFilterMicros[] = "pipeline.filter.micros";
inline constexpr char kPipelineProjectCalls[] = "pipeline.project.calls";
inline constexpr char kPipelineProjectMicros[] = "pipeline.project.micros";
inline constexpr char kPipelineRetrievalCalls[] = "pipeline.retrieval.calls";
inline constexpr char kPipelineRetrievalMicros[] = "pipeline.retrieval.micros";

inline constexpr char kRetrievalChainsGenerated[] = "retrieval.chains_generated";
inline constexpr char kRetrievalDuplicatesSuppressed[] =
    "retrieval.duplicates_suppressed";
inline constexpr char kRetrievalTocSize[] = "retrieval.toc_size";
inline constexpr char kRetrievalWalksEmpty[] = "retrieval.walks_empty";
inline constexpr char kRetrievalWalksTaken[] = "retrieval.walks_taken";

inline constexpr char kFilterChainsDropped[] = "filter.chains_dropped";
inline constexpr char kFilterChainsIn[] = "filter.chains_in";
inline constexpr char kFilterChainsKept[] = "filter.chains_kept";
inline constexpr char kFilterDistanceDropped[] = "filter.distance_dropped";
inline constexpr char kFilterDistanceKept[] = "filter.distance_kept";

inline constexpr char kEncodeBatchedPasses[] = "encode.batched_passes";
inline constexpr char kEncodeBatchPadFractionPct[] =
    "encode.batch_pad_fraction_pct";
inline constexpr char kEncodeChainLength[] = "encode.chain_length";
inline constexpr char kEncodeChainsEncoded[] = "encode.chains_encoded";

inline constexpr char kReasonerChainsPerForward[] =
    "reasoner.chains_per_forward";
inline constexpr char kReasonerForwards[] = "reasoner.forwards";

// --- training / evaluation -------------------------------------------------
inline constexpr char kEvalFallbacks[] = "eval.fallbacks";
inline constexpr char kEvalQueries[] = "eval.queries";
inline constexpr char kTrainEpochMillis[] = "train.epoch_millis";
inline constexpr char kTrainEpochs[] = "train.epochs";
inline constexpr char kTrainLastLoss[] = "train.last_loss";
inline constexpr char kTrainLastValidNmae[] = "train.last_valid_nmae";
inline constexpr char kTrainQueries[] = "train.queries";
inline constexpr char kTrainQueriesSkipped[] = "train.queries_skipped";

// --- static-graph runtime --------------------------------------------------
inline constexpr char kPlanArenaBytes[] = "plan.arena_bytes";
inline constexpr char kPlanCacheHits[] = "plan.cache_hits";
inline constexpr char kPlanCacheMisses[] = "plan.cache_misses";
inline constexpr char kPlanPatternBytes[] = "plan.pattern_bytes";
inline constexpr char kPlanPatternHits[] = "plan.pattern_hits";
inline constexpr char kPlanPatternMisses[] = "plan.pattern_misses";
inline constexpr char kPlanQuantFallbacks[] = "plan.quant_fallbacks";
inline constexpr char kPlanVerifyFailures[] = "plan.verify_failures";
inline constexpr char kPlanVerifyMicros[] = "plan.verify_micros";

// --- router (entity-sharded fan-out front-end) -----------------------------
inline constexpr char kRouterDegraded[] = "router.degraded";
inline constexpr char kRouterHealthProbes[] = "router.health_probes";
inline constexpr char kRouterRequests[] = "router.requests";
inline constexpr char kRouterRerouted[] = "router.rerouted";
inline constexpr char kRouterShardErrors[] = "router.shard_errors";

// --- serving ---------------------------------------------------------------
inline constexpr char kServeBatchDedup[] = "serve.batch_dedup";
inline constexpr char kServeBatchSize[] = "serve.batch_size";
inline constexpr char kServeCacheHits[] = "serve.cache_hits";
inline constexpr char kServeCacheMisses[] = "serve.cache_misses";
inline constexpr char kServeConnsAccepted[] = "serve.conns_accepted";
inline constexpr char kServeDegraded[] = "serve.degraded";
inline constexpr char kServeDegradedDeadline[] = "serve.degraded.deadline";
inline constexpr char kServeDegradedEmptyToc[] = "serve.degraded.empty_toc";
inline constexpr char kServeDegradedShutdown[] = "serve.degraded.shutdown";
inline constexpr char kServeImmediateDispatch[] = "serve.immediate_dispatch";
inline constexpr char kServeMisrouted[] = "serve.misrouted";
inline constexpr char kServeQuantRejected[] = "serve.quant_rejected";
inline constexpr char kServeRequests[] = "serve.requests";

// --- per-request phase latencies (windowed histograms: /metrics reports
// --- them since start, /statusz their live p50/p90/p99) -------------------
inline constexpr char kServePhaseCacheUs[] = "serve.phase.cache_us";
inline constexpr char kServePhaseComputeUs[] = "serve.phase.compute_us";
inline constexpr char kServePhaseQueueUs[] = "serve.phase.queue_us";
inline constexpr char kServePhaseSerializeUs[] = "serve.phase.serialize_us";
inline constexpr char kServePhaseTotalUs[] = "serve.phase.total_us";
inline constexpr char kServePhaseVerifyUs[] = "serve.phase.verify_us";
inline constexpr char kServePhaseWindowUs[] = "serve.phase.window_us";

}  // namespace names
}  // namespace metrics
}  // namespace chainsformer

#endif  // CHAINSFORMER_UTIL_METRIC_NAMES_H_
