// Tests for src/graph: the eager-forward tracer, compiled-plan parity with
// the eager tape (the DESIGN §6f bitwise gate), zero-allocation steady-state
// execution, plan-cache bucketing, the service's immediate-dispatch fix, and
// serving a model whose encoder does not compile.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/chainsformer.h"
#include "graph/executor.h"
#include "graph/plan.h"
#include "graph/quant.h"
#include "graph/runtime.h"
#include "graph/trace.h"
#include "kg/synthetic.h"
#include "serve/service.h"
#include "tensor/op_observer.h"
#include "util/metrics.h"

// --- operator-new counting hook ----------------------------------------------
// Counts every scalar/array heap allocation in the process while armed. The
// zero-allocation test arms it around warmed PlanExecutor runs; everything
// else in the binary sees an unchanged (malloc-backed) allocator.

namespace {
std::atomic<int64_t> g_alloc_count{0};
std::atomic<bool> g_alloc_counting{false};

void* CountedAlloc(std::size_t n) {
  if (g_alloc_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
// The nothrow variants must be overridden too: libstdc++ temporary buffers
// (std::stable_sort) allocate through them, and mixing the default nothrow
// new with the free()-backed deletes below is an alloc-dealloc mismatch
// under AddressSanitizer.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  if (g_alloc_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  if (g_alloc_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace chainsformer {
namespace graph {
namespace {

using core::ChainsFormerConfig;
using core::ChainsFormerModel;
using core::Query;
using core::TreeOfChains;

ChainsFormerConfig SmallConfig() {
  ChainsFormerConfig config;
  config.num_walks = 32;
  config.top_k = 8;
  config.hidden_dim = 16;
  config.filter_dim = 8;
  config.encoder_layers = 1;
  config.reasoner_layers = 1;
  config.num_heads = 2;
  config.epochs = 2;
  config.max_train_queries = 120;
  config.filter_pretrain_queries = 60;
  config.filter_pretrain_epochs = 1;
  config.seed = 13;
  config.verbose = false;
  return config;
}

/// One trained model per test binary (training costs seconds); read-only
/// after construction — the serving surface is const.
struct Trained {
  kg::Dataset dataset = kg::MakeYago15kLike({.scale = 0.08});
  ChainsFormerConfig config = SmallConfig();
  std::unique_ptr<ChainsFormerModel> model;

  explicit Trained(bool batched_encoder = true,
                   core::EncoderType encoder =
                       core::EncoderType::kTransformer) {
    config.batched_encoder = batched_encoder;
    config.encoder_type = encoder;
    model = std::make_unique<ChainsFormerModel>(dataset, config);
    model->Train();
  }
};

Trained& Shared() {
  static Trained* trained = new Trained();
  return *trained;
}

std::vector<Query> HeldOutQueries(const kg::Dataset& ds, size_t at_least) {
  std::vector<Query> queries;
  for (const auto& t : ds.split.test) queries.push_back({t.entity, t.attribute});
  for (const auto& t : ds.split.valid) queries.push_back({t.entity, t.attribute});
  EXPECT_GE(queries.size(), at_least)
      << "synthetic split too small for the acceptance criterion";
  return queries;
}

int64_t CounterValue(const std::string& name) {
  return metrics::MetricsRegistry::Global().Snapshot().CounterValue(name);
}

Query FirstQueryWithChains(const Trained& t) {
  for (const Query& q : HeldOutQueries(t.dataset, 8)) {
    if (!t.model->RetrieveChains(q).empty()) return q;
  }
  ADD_FAILURE() << "no held-out query retrieved any chains";
  return Query{};
}

// --- Tracer ------------------------------------------------------------------

TEST(GraphTraceTest, TracerRecordsTheEagerForward) {
  Trained& t = Shared();
  const Query q = FirstQueryWithChains(t);
  const TreeOfChains chains = t.model->RetrieveChains(q);

  Tracer tracer;
  {
    tensor::ScopedOpObserver scope(&tracer);
    t.model->PredictOnChainSets({q}, {&chains});
  }
  ASSERT_FALSE(tracer.events().empty());
  // The batched encoder starts with the two embedding gathers.
  EXPECT_EQ(tracer.events()[0].op, "Gather");
  EXPECT_EQ(tracer.events()[1].op, "Gather");
  EXPECT_EQ(tracer.events()[2].op, "Add");
  // The reasoner finishes with the weighted reduction (Dot = Mul + Sum).
  const auto& events = tracer.events();
  EXPECT_EQ(events.back().op, "Sum");
  EXPECT_EQ(events[events.size() - 2].op, "Mul");
  EXPECT_EQ(FormatTraceEvent(events.back()), "Sum[1]");

  tracer.Clear();
  EXPECT_TRUE(tracer.events().empty());
  // Uninstalled: nothing records.
  t.model->PredictOnChainSets({q}, {&chains});
  EXPECT_TRUE(tracer.events().empty());
}

// The compiler's op skeleton must equal the trace of the eager forward at
// the same geometry — this is the cross-check the runtime applies before
// trusting a plan.
TEST(GraphPlanTest, CompiledSkeletonMatchesEagerTrace) {
  Trained& t = Shared();
  const Query q = FirstQueryWithChains(t);
  const TreeOfChains chains = t.model->RetrieveChains(q);
  int64_t max_tokens = 0;
  for (const auto& c : chains) {
    max_tokens = std::max<int64_t>(max_tokens, c.length() + 3);
  }

  Tracer tracer;
  {
    tensor::ScopedOpObserver scope(&tracer);
    t.model->PredictOnChainSets({q}, {&chains});
  }
  const Plan plan = CompilePlan(
      *t.model, static_cast<int64_t>(chains.size()), max_tokens);
  ASSERT_FALSE(plan.steps.empty());
  EXPECT_GT(plan.arena_floats, 0);
  ASSERT_EQ(plan.expected_events.size(), tracer.events().size());
  for (size_t i = 0; i < plan.expected_events.size(); ++i) {
    EXPECT_EQ(plan.expected_events[i], tracer.events()[i])
        << "op " << i << ": compiled "
        << FormatTraceEvent(plan.expected_events[i]) << " vs traced "
        << FormatTraceEvent(tracer.events()[i]);
  }
}

// --- Bitwise parity ----------------------------------------------------------

TEST(GraphRuntimeTest, CompiledMatchesEagerOnHeldOutQueries) {
  Trained& t = Shared();
  StaticGraphRuntime runtime(*t.model);
  const std::vector<Query> queries = HeldOutQueries(t.dataset, 100);
  size_t with_evidence = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const TreeOfChains chains = t.model->RetrieveChains(queries[i]);
    const core::BatchPrediction eager =
        t.model->PredictOnChainSets({queries[i]}, {&chains})[0];
    const core::BatchPrediction compiled =
        runtime.Predict(queries[i], chains);
    ASSERT_EQ(compiled.value, eager.value) << "held-out query " << i;
    ASSERT_EQ(compiled.has_evidence, eager.has_evidence);
    if (compiled.has_evidence) ++with_evidence;
  }
  EXPECT_GT(with_evidence, 0u);
  // Every mismatch would have pinned its bucket to the eager path.
  EXPECT_EQ(CounterValue("plan.verify_failures"), 0);
}

// Same gate with the per-chain (non-batched) encoder: the trace skeleton
// differs from the batched plan, so the runtime skips the skeleton check and
// relies on the bitwise value gate (sound because batched == per-chain
// bitwise, the PR-4 invariant).
TEST(GraphRuntimeTest, CompiledMatchesPerChainEncoderEager) {
  Trained t(/*batched_encoder=*/false);
  StaticGraphRuntime runtime(*t.model);
  const std::vector<Query> queries = HeldOutQueries(t.dataset, 100);
  for (size_t i = 0; i < queries.size(); ++i) {
    const TreeOfChains chains = t.model->RetrieveChains(queries[i]);
    const core::BatchPrediction eager =
        t.model->PredictOnChainSets({queries[i]}, {&chains})[0];
    const core::BatchPrediction compiled =
        runtime.Predict(queries[i], chains);
    ASSERT_EQ(compiled.value, eager.value) << "held-out query " << i;
    ASSERT_EQ(compiled.has_evidence, eager.has_evidence);
  }
  EXPECT_EQ(CounterValue("plan.verify_failures"), 0);
}

// --- Zero allocations in steady state ----------------------------------------

TEST(GraphExecutorTest, WarmedExecutorRunsWithoutAllocating) {
  Trained& t = Shared();
  const Query q = FirstQueryWithChains(t);
  const TreeOfChains chains = t.model->RetrieveChains(q);
  int64_t max_tokens = 0;
  for (const auto& c : chains) {
    max_tokens = std::max<int64_t>(max_tokens, c.length() + 3);
  }
  auto plan = std::make_shared<const Plan>(CompilePlan(
      *t.model, static_cast<int64_t>(chains.size()), max_tokens));
  PlanExecutor executor(plan);
  // Warm up: first run may fault in lazily-allocated thread-local kernel
  // scratch; afterwards the executor owns all its working memory.
  const float warm = executor.RunNormalized(chains);

  g_alloc_count.store(0);
  g_alloc_counting.store(true);
  float v = 0.0f;
  for (int i = 0; i < 16; ++i) v = executor.RunNormalized(chains);
  g_alloc_counting.store(false);

  EXPECT_EQ(v, warm) << "executor is not deterministic";
  EXPECT_EQ(g_alloc_count.load(), 0)
      << "steady-state RunNormalized performed heap allocations";
}

TEST(GraphRuntimeTest, WarmedRuntimePredictRunsWithoutAllocating) {
  Trained& t = Shared();
  StaticGraphRuntime runtime(*t.model);
  const Query q = FirstQueryWithChains(t);
  const TreeOfChains chains = t.model->RetrieveChains(q);
  // First call compiles + verifies the bucket; second call warms the pool.
  const core::BatchPrediction first = runtime.Predict(q, chains);
  runtime.Predict(q, chains);

  g_alloc_count.store(0);
  g_alloc_counting.store(true);
  core::BatchPrediction r;
  for (int i = 0; i < 16; ++i) r = runtime.Predict(q, chains);
  g_alloc_counting.store(false);

  EXPECT_EQ(r.value, first.value);
  EXPECT_EQ(g_alloc_count.load(), 0)
      << "steady-state Predict performed heap allocations";
}

// --- Plan cache --------------------------------------------------------------

TEST(GraphRuntimeTest, BucketMissRetracesAndHitReuses) {
  Trained& t = Shared();
  StaticGraphRuntime runtime(*t.model);

  // Two chain sets with different chain counts occupy different buckets
  // (k is exact in the bucket key). top_k retrieval makes most queries the
  // same size, so the second geometry is the first minus its last chain.
  const Query a = FirstQueryWithChains(t);
  const TreeOfChains chains_a = t.model->RetrieveChains(a);
  ASSERT_GE(chains_a.size(), 2u);
  const Query b = a;
  TreeOfChains chains_b(chains_a.begin(), chains_a.end() - 1);

  const int64_t misses0 = CounterValue("plan.cache_misses");
  const int64_t hits0 = CounterValue("plan.cache_hits");
  const double arena0 =
      metrics::MetricsRegistry::Global().GetGauge("plan.arena_bytes")->Value();

  runtime.Predict(a, chains_a);  // miss: trace + compile + verify
  EXPECT_EQ(CounterValue("plan.cache_misses") - misses0, 1);
  EXPECT_EQ(CounterValue("plan.cache_hits") - hits0, 0);

  runtime.Predict(a, chains_a);  // hit: warmed plan
  runtime.Predict(a, chains_a);
  EXPECT_EQ(CounterValue("plan.cache_misses") - misses0, 1);
  EXPECT_EQ(CounterValue("plan.cache_hits") - hits0, 2);

  runtime.Predict(b, chains_b);  // different k: bucket miss, retrace
  EXPECT_EQ(CounterValue("plan.cache_misses") - misses0, 2);
  EXPECT_EQ(CounterValue("plan.cache_hits") - hits0, 2);

  const double arena1 =
      metrics::MetricsRegistry::Global().GetGauge("plan.arena_bytes")->Value();
  EXPECT_GT(arena1, arena0) << "compiled plans did not report arena bytes";
}

// --- Service integration -----------------------------------------------------

// With a wide coalescing window but no other request arriving, the
// dispatcher must answer immediately instead of sleeping out the window
// (the uniform-workload regression; counted by serve.immediate_dispatch).
TEST(GraphServiceTest, IdleQueueDispatchesImmediately) {
  Trained& t = Shared();
  serve::ServeOptions options;
  options.batch_window_us = 300000;  // 300 ms — unmissable if waited out
  options.deadline_ms = 0;
  serve::InferenceService service(*t.model, options);
  const Query q = FirstQueryWithChains(t);

  const int64_t immediate0 = CounterValue("serve.immediate_dispatch");
  const serve::ServeResponse r = service.Predict(q);
  EXPECT_EQ(r.source, "model");
  EXPECT_EQ(r.value, t.model->Predict(q));
  EXPECT_LT(r.latency_us, 150000) << "dispatcher slept out the batch window";
  EXPECT_GE(CounterValue("serve.immediate_dispatch") - immediate0, 1);
}

// A model whose encoder does not compile (the mean-pooling ablation) is
// still served through the runtime: every answer is the eager tape's, no plan
// bucket is created, fp64 is reported, and an int8 request is refused by the
// service's accuracy gate.
TEST(GraphServiceTest, NonCompilingEncoderServesEagerBits) {
  Trained t(/*batched_encoder=*/true, core::EncoderType::kMean);
  ASSERT_FALSE(StaticGraphRuntime::Supports(*t.model));

  serve::ServeOptions options;
  options.batch_window_us = 0;
  options.deadline_ms = 0;
  serve::InferenceService service(*t.model, options);
  ASSERT_NE(service.static_runtime(), nullptr);
  int answered = 0;
  Query answered_query;
  for (const Query& q : HeldOutQueries(t.dataset, 16)) {
    const serve::ServeResponse r = service.Predict(q);
    if (r.degraded) {
      EXPECT_EQ(r.source, "empty_toc");
      continue;
    }
    EXPECT_EQ(r.source, "model");
    EXPECT_EQ(r.value, t.model->Predict(q)) << "query " << answered;
    EXPECT_STREQ(r.precision, "fp64");
    if (answered == 0) answered_query = q;
    if (++answered == 16) break;
  }
  EXPECT_EQ(answered, 16);
  EXPECT_TRUE(service.static_runtime()->Stats().empty());
  EXPECT_EQ(service.static_runtime()->precision(), Precision::kFp64);

  // Quantized weights within budget (borrowed from a compiling model) do not
  // help: the gate refuses int8 because there is no plan to run them in.
  serve::ServeOptions int8 = options;
  int8.precision = Precision::kInt8;
  int8.quant =
      std::make_shared<const QuantStore>(BuildQuantStore(*Shared().model));
  const int64_t rejected0 = CounterValue("serve.quant_rejected");
  serve::InferenceService gated(*t.model, int8);
  EXPECT_TRUE(gated.quant_rejected());
  EXPECT_EQ(CounterValue("serve.quant_rejected") - rejected0, 1);
  EXPECT_EQ(gated.static_runtime()->precision(), Precision::kFp64);
  const serve::ServeResponse r = gated.Predict(answered_query);
  EXPECT_EQ(r.source, "model");
  EXPECT_STREQ(r.precision, "fp64");
}

}  // namespace
}  // namespace graph
}  // namespace chainsformer
