// Tests for src/graph: the eager-forward tracer, compiled-plan parity with
// the eager tape (the DESIGN §6f bitwise gate), one executor running any
// plan, int8 plans sharing one pack set, the pattern table, zero-allocation
// steady-state execution, plan-cache bucketing, the service's
// immediate-dispatch fix, and serving a model whose encoder does not compile.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/chainsformer.h"
#include "graph/executor.h"
#include "graph/pattern_table.h"
#include "graph/plan.h"
#include "graph/quant.h"
#include "graph/runtime.h"
#include "graph/trace.h"
#include "kg/synthetic.h"
#include "serve/service.h"
#include "tensor/op_observer.h"
#include "util/metrics.h"
#include "util/rng.h"

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

// The encoder skeleton at (k, len) followed by the reasoner skeleton at k
// must equal the trace of the eager forward — the cross-check the runtime
// applies before trusting a reasoner bucket. The encoder skeleton alone must
// equal the trace of ChainEncoder::EndTokenRows, which the encoder gate
// checks.
TEST(GraphPlanTest, CompiledSkeletonMatchesEagerTrace) {
  Trained& t = Shared();
  const Query q = FirstQueryWithChains(t);
  const TreeOfChains chains = t.model->RetrieveChains(q);
  const int64_t k = static_cast<int64_t>(chains.size());

  Tracer tracer;
  {
    tensor::ScopedOpObserver scope(&tracer);
    t.model->PredictOnChainSets({q}, {&chains});
  }
  const Plan encoder = CompileEncoderPlan(*t.model, k, MaxTokens(chains));
  const Plan reasoner = CompileReasonerPlan(*t.model, k);
  EXPECT_EQ(encoder.program, Program::kEncoder);
  EXPECT_EQ(reasoner.program, Program::kReasoner);
  for (const Plan* plan : {&encoder, &reasoner}) {
    ASSERT_FALSE(plan->steps.empty());
    EXPECT_GT(plan->arena_floats, 0);
  }
  std::vector<TraceEvent> expected = encoder.expected_events;
  expected.insert(expected.end(), reasoner.expected_events.begin(),
                  reasoner.expected_events.end());
  ASSERT_EQ(expected.size(), tracer.events().size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], tracer.events()[i])
        << "op " << i << ": compiled " << FormatTraceEvent(expected[i])
        << " vs traced " << FormatTraceEvent(tracer.events()[i]);
  }

  tracer.Clear();
  {
    tensor::NoGradGuard no_grad;
    tensor::ScopedOpObserver scope(&tracer);
    t.model->encoder().EndTokenRows(chains);
  }
  EXPECT_EQ(encoder.expected_events, tracer.events());
}

// The encoder program's rows are the eager end-token rows bit for bit, also
// when the bucket pads the chain count to a power of two and the length to
// a multiple of two.
TEST(GraphPlanTest, EncoderRowsMatchEagerEndTokenRows) {
  Trained& t = Shared();
  const Query q = FirstQueryWithChains(t);
  const TreeOfChains chains = t.model->RetrieveChains(q);
  const int64_t k = static_cast<int64_t>(chains.size());
  const int64_t d = t.model->encoder().hidden_dim();
  tensor::Tensor eager;
  {
    tensor::NoGradGuard no_grad;
    eager = t.model->encoder().EndTokenRows(chains);
  }
  for (const auto& [rows, len] :
       {std::pair<int64_t, int64_t>{k, MaxTokens(chains)},
        {2 * k + 1, MaxTokens(chains) + 2}}) {
    PlanExecutor encoder;
    const float* got =
        encoder.RunEncoder(CompileEncoderPlan(*t.model, rows, len), chains);
    for (int64_t i = 0; i < k * d; ++i) {
      ASSERT_EQ(got[i], eager.data()[static_cast<size_t>(i)])
          << "element " << i << " at (" << rows << ", " << len << ")";
    }
  }
}

/// The first `n` chains retrieved over the held-out queries, in order.
TreeOfChains ChainPool(const Trained& t, size_t n) {
  TreeOfChains pool;
  for (const Query& q : HeldOutQueries(t.dataset, 8)) {
    for (core::RAChain& c : t.model->RetrieveChains(q)) {
      pool.push_back(std::move(c));
      if (pool.size() == n) return pool;
    }
  }
  ADD_FAILURE() << "held-out queries retrieved fewer than " << n << " chains";
  return pool;
}

// Two int8 plans compiled from one pack set, as a runtime compiles every
// plan, point into the same packed weights: every quantized step of every
// plan addresses a pack of the set, and each plan pins the set once.
TEST(GraphPlanTest, Int8PlansPointIntoOnePackSet) {
  Trained& t = Shared();
  const std::shared_ptr<const Int8PackSet> int8 =
      PackQuantStore(*t.model, BuildQuantStore(*t.model));
  std::set<const tensor::kernels::Int8Pack*> in_set;
  for (const auto& [linear, pack] : int8->packs) in_set.insert(&pack);
  const Plan plans[] = {CompileEncoderPlan(*t.model, 16, 6, int8),
                        CompileEncoderPlan(*t.model, 4, 6, int8),
                        CompileReasonerPlan(*t.model, 16, int8),
                        CompileReasonerPlan(*t.model, 3, int8)};
  std::set<const tensor::kernels::Int8Pack*> used;
  for (const Plan& plan : plans) {
    EXPECT_EQ(plan.precision, Precision::kInt8);
    int64_t quantized = 0;
    for (const Step& st : plan.steps) {
      if (st.kind == StepKind::kGemmInt8 || st.kind == StepKind::kDequantBias ||
          st.kind == StepKind::kDequantBiasGelu) {
        ASSERT_EQ(in_set.count(st.pack), 1u) << "a step packs its own weights";
        used.insert(st.pack);
        ++quantized;
      } else {
        EXPECT_EQ(st.pack, nullptr);
      }
    }
    EXPECT_GT(quantized, 0);
  }
  EXPECT_EQ(used, in_set) << "some packed Linear serves no plan";
  EXPECT_EQ(int8.use_count(), 1 + static_cast<long>(std::size(plans)));
}

// One executor runs any plan. Its arena, index arrays and int8 scratch grow
// to the largest plan it has run and keep whatever an earlier run left, so
// each output of encoder and reasoner plans of several sizes, interleaved on
// one executor, must equal a fresh executor's run of the same plan bit for
// bit, at fp64 and at int8.
TEST(GraphExecutorTest, OneExecutorRunsInterleavedPlansBitwise) {
  Trained& t = Shared();
  const TreeOfChains pool = ChainPool(t, 16);
  ASSERT_EQ(pool.size(), 16u);
  TreeOfChains one = {pool[0]};
  one[0].relations.resize(1);  // 4 tokens
  const auto first = [&](size_t n) {
    return TreeOfChains(pool.begin(),
                        pool.begin() + static_cast<std::ptrdiff_t>(n));
  };
  const int64_t d = t.model->encoder().hidden_dim();
  Rng rng(22);
  std::vector<float> rows(static_cast<size_t>(16 * d));
  for (float& x : rows) x = static_cast<float>(rng.Normal());

  struct Run {
    Plan plan;
    TreeOfChains chains;
  };
  const auto output = [&](PlanExecutor& executor, const Run& r) {
    if (r.plan.program == Program::kEncoder) {
      const float* out = executor.RunEncoder(r.plan, r.chains);
      return std::vector<float>(out, out + r.plan.chains * d);
    }
    std::copy(rows.begin(), rows.begin() + r.plan.chains * d,
              executor.Rows(r.plan));
    return std::vector<float>{executor.RunReasoner(r.plan, r.chains)};
  };
  const std::shared_ptr<const Int8PackSet> packs =
      PackQuantStore(*t.model, BuildQuantStore(*t.model));
  for (const std::shared_ptr<const Int8PackSet>& int8 :
       {std::shared_ptr<const Int8PackSet>(), packs}) {
    std::vector<Run> runs;
    runs.push_back({CompileEncoderPlan(*t.model, 16, 6, int8), pool});
    runs.push_back({CompileReasonerPlan(*t.model, 16, int8), pool});
    runs.push_back({CompileEncoderPlan(*t.model, 1, 4, int8), one});
    runs.push_back({CompileReasonerPlan(*t.model, 3, int8), first(3)});
    runs.push_back({CompileEncoderPlan(*t.model, 4, 6, int8), first(4)});
    runs.push_back({CompileReasonerPlan(*t.model, 16, int8), pool});
    PlanExecutor shared;
    for (size_t i = 0; i < runs.size(); ++i) {
      PlanExecutor fresh;
      const std::vector<float> want = output(fresh, runs[i]);
      const std::vector<float> got = output(shared, runs[i]);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(
          std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
          << PrecisionName(runs[i].plan.precision) << " run " << i;
    }
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
  const int64_t k = static_cast<int64_t>(chains.size());
  const Plan encoder = CompileEncoderPlan(*t.model, k, MaxTokens(chains));
  const Plan reasoner = CompileReasonerPlan(*t.model, k);
  ExecutorPair executors;
  // Warm up: the first run grows the executors' working memory and may
  // fault in lazily-allocated thread-local kernel scratch; afterwards the
  // executors own all the memory these plans need.
  const float warm = RunNormalized(executors, encoder, reasoner, chains);
  const core::BatchPrediction eager =
      t.model->PredictOnChainSets({q}, {&chains})[0];
  const auto& stats =
      t.model->train_stats()[static_cast<size_t>(q.attribute)];
  EXPECT_EQ(stats.Denormalize(std::clamp(static_cast<double>(warm), -0.1, 1.1)),
            eager.value);

  g_alloc_count.store(0);
  g_alloc_counting.store(true);
  float v = 0.0f;
  for (int i = 0; i < 16; ++i) {
    v = RunNormalized(executors, encoder, reasoner, chains);
  }
  const int64_t both = g_alloc_count.load();
  const float* rows = nullptr;
  for (int i = 0; i < 16; ++i) {
    rows = executors.encoder.RunEncoder(encoder, chains);
  }
  const int64_t encoder_only = g_alloc_count.load() - both;
  for (int i = 0; i < 16; ++i) {
    // The program reuses its input rows' space: write them before each run.
    std::copy(rows, rows + k * reasoner.dim, executors.reasoner.Rows(reasoner));
    v = executors.reasoner.RunReasoner(reasoner, chains);
  }
  const int64_t reasoner_only = g_alloc_count.load() - both - encoder_only;
  g_alloc_counting.store(false);

  EXPECT_EQ(v, warm) << "executors are not deterministic";
  EXPECT_EQ(both, 0) << "steady-state table-miss path allocated";
  EXPECT_EQ(encoder_only, 0) << "steady-state RunEncoder allocated";
  EXPECT_EQ(reasoner_only, 0) << "steady-state RunReasoner allocated";
}

// Both sizes run in this thread's executors: a smaller k served after a
// larger one fits in the memory the larger one grew.
TEST(GraphRuntimeTest, WarmedRuntimePredictRunsWithoutAllocating) {
  Trained& t = Shared();
  StaticGraphRuntime runtime(*t.model);
  const Query q = FirstQueryWithChains(t);
  const TreeOfChains chains = t.model->RetrieveChains(q);
  ASSERT_GE(chains.size(), 2u);
  const TreeOfChains fewer(
      chains.begin(),
      chains.begin() + static_cast<std::ptrdiff_t>(chains.size() / 2));
  // The first call at each k compiles + verifies its programs, and the
  // first fills the pattern table. From then on every pattern hits.
  const core::BatchPrediction first = runtime.Predict(q, chains);
  const core::BatchPrediction first_fewer = runtime.Predict(q, fewer);
  const int64_t pattern_misses0 = CounterValue("plan.pattern_misses");

  g_alloc_count.store(0);
  g_alloc_counting.store(true);
  core::BatchPrediction r, r_fewer;
  for (int i = 0; i < 16; ++i) {
    r = runtime.Predict(q, chains);
    r_fewer = runtime.Predict(q, fewer);
  }
  g_alloc_counting.store(false);

  EXPECT_EQ(r.value, first.value);
  EXPECT_EQ(r_fewer.value, first_fewer.value);
  EXPECT_EQ(g_alloc_count.load(), 0)
      << "steady-state Predict performed heap allocations";
  EXPECT_EQ(CounterValue("plan.pattern_misses"), pattern_misses0)
      << "a warm-table Predict encoded a pattern";
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

  // The gauge is a process total: it grew by exactly this runtime's plans.
  int64_t own_arena_bytes = 0;
  for (const StaticGraphRuntime::BucketStats& s : runtime.Stats()) {
    own_arena_bytes += s.arena_bytes;
  }
  EXPECT_GT(own_arena_bytes, 0) << "compiled plans did not report arena bytes";
  const double arena1 =
      metrics::MetricsRegistry::Global().GetGauge("plan.arena_bytes")->Value();
  EXPECT_EQ(arena1 - arena0, static_cast<double>(own_arena_bytes));
}

// --- Pattern table -----------------------------------------------------------

/// Held-out queries followed by `uniform` keys drawn uniformly over every
/// (entity, attribute) pair, the way a cold serving stream looks.
std::vector<Query> HeldOutAndUniformQueries(const kg::Dataset& ds,
                                            size_t uniform) {
  std::vector<Query> queries = HeldOutQueries(ds, 100);
  Rng rng(2504);
  for (size_t i = 0; i < uniform; ++i) {
    queries.push_back(
        {static_cast<kg::EntityId>(rng.UniformInt(
             static_cast<uint64_t>(ds.graph.num_entities()))),
         static_cast<kg::AttributeId>(rng.UniformInt(
             static_cast<uint64_t>(ds.graph.num_attributes())))});
  }
  return queries;
}

std::vector<int32_t> PatternOf(const core::RAChain& c) {
  const PatternKey key(c);
  return {key.ids().begin(), key.ids().end()};
}

// A pattern's row is encoded once, inside whichever Tree of Chains first
// holds it, and then served to every later chain with that pattern. Those
// answers must still equal PredictOnChainSets bitwise — including chains
// whose pattern was first encoded in a different ToC, at another padded
// length and at another k (counted below, so the test cannot pass
// vacuously). Retrieval keeps top_k chains for nearly every query, so each
// query is also served with a rotating prefix of its chains dropped, the
// way a chain-quality-pruned ToC arrives.
TEST(GraphRuntimeTest, TableRowsServeOtherTreesLengthsAndK) {
  Trained& t = Shared();
  StaticGraphRuntime runtime(*t.model);
  const std::vector<Query> queries = HeldOutAndUniformQueries(t.dataset, 240);
  ASSERT_GE(queries.size(), 300u);

  // Where each pattern was first encoded: the encoder program ran over that
  // request's distinct missed patterns, padded to a multiple of two tokens.
  struct FirstUse {
    size_t request;
    int64_t k;
    int64_t padded_len;
  };
  std::map<std::vector<int32_t>, FirstUse> first;
  const int64_t hits0 = CounterValue("plan.pattern_hits");
  const int64_t misses0 = CounterValue("plan.pattern_misses");
  int64_t expected_hits = 0, expected_misses = 0;
  size_t served = 0, request = 0;
  int64_t cross_context = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const TreeOfChains full = t.model->RetrieveChains(queries[i]);
    const size_t drop = full.empty() ? 0 : i % full.size();
    const TreeOfChains tail(full.begin() + static_cast<std::ptrdiff_t>(drop),
                            full.end());
    for (const TreeOfChains* chains : {&full, &tail}) {
      ++request;
      const core::BatchPrediction eager =
          t.model->PredictOnChainSets({queries[i]}, {chains})[0];
      const core::BatchPrediction compiled =
          runtime.Predict(queries[i], *chains);
      ASSERT_EQ(compiled.value, eager.value) << "query " << i;
      ASSERT_EQ(compiled.has_evidence, eager.has_evidence) << "query " << i;
      if (chains->empty()) continue;
      ++served;
      const int64_t k = static_cast<int64_t>(chains->size());
      int64_t miss_tokens = 0;
      std::set<std::vector<int32_t>> new_patterns;
      for (const auto& c : *chains) {
        std::vector<int32_t> key = PatternOf(c);
        auto it = first.find(key);
        if (it == first.end()) {
          ++expected_misses;
          new_patterns.insert(std::move(key));
          miss_tokens = std::max(miss_tokens, c.num_tokens());
          continue;
        }
        ++expected_hits;
        if (it->second.request != request && it->second.k != k &&
            it->second.padded_len != MaxTokens(*chains)) {
          ++cross_context;
        }
      }
      for (const std::vector<int32_t>& key : new_patterns) {
        first[key] = FirstUse{request, k, (miss_tokens + 1) / 2 * 2};
      }
    }
  }
  EXPECT_GE(served, 300u);
  EXPECT_EQ(CounterValue("plan.pattern_hits") - hits0, expected_hits);
  EXPECT_EQ(CounterValue("plan.pattern_misses") - misses0, expected_misses);
  EXPECT_GT(cross_context, 0)
      << "no chain reused a row encoded in another ToC, length and k";
  EXPECT_EQ(runtime.pattern_table().rows,
            static_cast<int64_t>(first.size()));
  EXPECT_EQ(CounterValue("plan.verify_failures"), 0);
}

// Four threads share one cold-table runtime and ask overlapping queries, so
// table fills, first-use gates and warm reads interleave (Tsan runs this
// binary: it carries the `threaded` label).
TEST(GraphRuntimeTest, ConcurrentColdTablePredictsMatchEager) {
  Trained& t = Shared();
  StaticGraphRuntime runtime(*t.model);
  std::vector<Query> queries = HeldOutQueries(t.dataset, 64);
  queries.resize(64);
  std::vector<TreeOfChains> chains(queries.size());
  std::vector<double> eager(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    chains[i] = t.model->RetrieveChains(queries[i]);
    eager[i] = t.model->PredictOnChainSets({queries[i]}, {&chains[i]})[0].value;
  }

  constexpr int kThreads = 4;
  constexpr size_t kPerThread = 40;  // windows of 40 starting 16 apart
  const int64_t hits0 = CounterValue("plan.pattern_hits");
  const int64_t misses0 = CounterValue("plan.pattern_misses");
  const int64_t failures0 = CounterValue("plan.verify_failures");
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> chains_served{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (size_t j = 0; j < kPerThread; ++j) {
        const size_t i = (static_cast<size_t>(w) * 16 + j) % queries.size();
        const core::BatchPrediction r = runtime.Predict(queries[i], chains[i]);
        if (r.value != eager[i]) mismatches.fetch_add(1);
        chains_served.fetch_add(static_cast<int64_t>(chains[i].size()));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(CounterValue("plan.verify_failures"), failures0);
  EXPECT_EQ(CounterValue("plan.pattern_hits") - hits0 +
                CounterValue("plan.pattern_misses") - misses0,
            chains_served.load());
  const StaticGraphRuntime::PatternTableStats table = runtime.pattern_table();
  const int64_t row_bytes =
      t.model->encoder().hidden_dim() * static_cast<int64_t>(sizeof(float));
  EXPECT_GT(table.rows, 0);
  EXPECT_EQ(table.bytes, table.rows * row_bytes);
  EXPECT_EQ(
      metrics::MetricsRegistry::Global().GetGauge("plan.pattern_bytes")->Value(),
      static_cast<double>(table.rows * row_bytes));
}

core::RAChain MakeChain(kg::AttributeId source, std::vector<kg::RelationId> rel,
                        kg::AttributeId query, double value) {
  return core::RAChain{source, std::move(rel), query, value, /*v_p=*/0};
}

// A full table keeps answering what it holds, refuses new patterns and
// never evicts or overwrites a row.
TEST(PatternTableTest, FullTableAnswersAndNeverEvicts) {
  constexpr int64_t kDim = 4;
  PatternTable table(kDim, /*capacity_bytes=*/2 * kDim * sizeof(float));
  EXPECT_EQ(table.capacity_rows(), 2);
  const TreeOfChains held = {MakeChain(1, {3, 4}, 2, 10.0),
                             MakeChain(1, {4, 3}, 2, 10.0)};
  const std::vector<float> rows = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<const core::RAChain*> held_ptrs = {&held[0], &held[1]};
  EXPECT_EQ(table.Insert(held_ptrs, rows.data()), 2);
  EXPECT_EQ(table.rows(), 2);

  // Full: a new pattern is refused, a held one is not overwritten.
  const core::RAChain fresh = MakeChain(2, {3, 4}, 1, 10.0);
  const std::vector<float> other = {9, 9, 9, 9};
  const std::vector<const core::RAChain*> fresh_ptr = {&fresh};
  const std::vector<const core::RAChain*> held0_ptr = {&held[0]};
  EXPECT_EQ(table.Insert(fresh_ptr, other.data()), 0);
  EXPECT_EQ(table.Insert(held0_ptr, other.data()), 0);
  EXPECT_EQ(table.rows(), 2);
  EXPECT_EQ(table.bytes(), 2 * kDim * static_cast<int64_t>(sizeof(float)));

  // Same pattern with another value (and source entity) hits; reordered
  // relations and swapped attributes are other patterns.
  const TreeOfChains ask = {MakeChain(1, {4, 3}, 2, -5.0), fresh,
                            MakeChain(1, {3, 4}, 2, 99.0)};
  std::vector<float> out(3 * kDim, -1.0f);
  PatternMisses missing;
  EXPECT_EQ(table.Lookup(ask, out.data(), &missing), 2);
  EXPECT_EQ(missing.chain, std::vector<int64_t>{1});
  EXPECT_EQ(missing.first, std::vector<int64_t>{1});
  EXPECT_EQ(std::vector<float>(out.begin(), out.begin() + kDim),
            std::vector<float>(rows.begin() + kDim, rows.end()));
  EXPECT_EQ(std::vector<float>(out.begin() + kDim, out.begin() + 2 * kDim),
            std::vector<float>(kDim, -1.0f))
      << "a missed chain's row must be left alone";
  EXPECT_EQ(std::vector<float>(out.begin() + 2 * kDim, out.end()),
            std::vector<float>(rows.begin(), rows.begin() + kDim));
}

// A lookup groups its misses by pattern, so the encoder program runs once
// per distinct pattern: chains that differ only in value share a group,
// another source attribute or reordered relations make another pattern.
TEST(PatternTableTest, MissesAreGroupedByPattern) {
  PatternTable table(/*dim=*/2, 1 << 10);
  const TreeOfChains ask = {
      MakeChain(1, {3, 4}, 2, 1.0), MakeChain(1, {4, 3}, 2, 1.0),
      MakeChain(1, {3, 4}, 2, 7.0), MakeChain(5, {3, 4}, 2, 1.0),
      MakeChain(1, {4, 3}, 2, -2.0)};
  std::vector<float> out(ask.size() * 2, 0.0f);
  PatternMisses missing;
  EXPECT_EQ(table.Lookup(ask, out.data(), &missing), 0);
  EXPECT_EQ(missing.chain, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(missing.first, (std::vector<int64_t>{0, 1, 3}));
  EXPECT_EQ(missing.pattern, (std::vector<int64_t>{0, 1, 0, 2, 1}));

  // Once the first pattern is held, only the other two groups remain.
  const std::vector<float> row = {1, 2};
  const std::vector<const core::RAChain*> held = {&ask[2]};
  EXPECT_EQ(table.Insert(held, row.data()), 1);
  PatternMisses rest;
  EXPECT_EQ(table.Lookup(ask, out.data(), &rest), 2);
  EXPECT_EQ(rest.chain, (std::vector<int64_t>{1, 3, 4}));
  EXPECT_EQ(rest.first, (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(rest.pattern, (std::vector<int64_t>{0, 1, 0}));
}

// Keys longer than the inline buffer spill to the heap and stay exact.
TEST(PatternTableTest, LongChainsKeepExactKeys) {
  std::vector<kg::RelationId> long_rel(20);
  for (size_t i = 0; i < long_rel.size(); ++i) {
    long_rel[i] = static_cast<kg::RelationId>(i);
  }
  std::vector<kg::RelationId> other_rel = long_rel;
  other_rel.back() = 99;
  const core::RAChain a = MakeChain(0, long_rel, 1, 1.0);
  const core::RAChain b = MakeChain(0, other_rel, 1, 1.0);
  EXPECT_EQ(PatternOf(a), PatternOf(MakeChain(0, long_rel, 1, 2.0)));
  EXPECT_NE(PatternOf(a), PatternOf(b));

  PatternTable table(2, 1 << 10);
  const std::vector<float> row = {3, 4};
  const std::vector<const core::RAChain*> a_ptr = {&a};
  EXPECT_EQ(table.Insert(a_ptr, row.data()), 1);
  std::vector<float> out(4, 0.0f);
  PatternMisses missing;
  EXPECT_EQ(table.Lookup({a, b}, out.data(), &missing), 1);
  EXPECT_EQ(missing.chain, std::vector<int64_t>{1});
  EXPECT_EQ(out[0], 3.0f);
  EXPECT_EQ(out[1], 4.0f);
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
