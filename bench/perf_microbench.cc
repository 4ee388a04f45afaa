// Complexity microbenchmarks (§IV-G): the paper analyzes per-query cost
// O(N_s d + k d^2). These google-benchmark timings expose the scaling of
// each pipeline stage: retrieval vs N_s, filter scoring vs d, chain encoding
// vs d, and reasoner weighting vs k.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <mutex>  // cf-lint: allow(naked-mutex-outside-sync) raw baseline
#include <unordered_set>
#include <vector>

#include "core/chain_encoder.h"
#include "core/chainsformer.h"
#include "core/hyperbolic_filter.h"
#include "core/numerical_reasoner.h"
#include "core/query_retrieval.h"
#include "graph/executor.h"
#include "graph/plan.h"
#include "graph/runtime.h"
#include "kg/synthetic.h"
#include "tensor/checks.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/sync.h"
#include "util/trace.h"

using namespace chainsformer;

namespace {

const kg::Dataset& Data() {
  static const kg::Dataset* ds =
      new kg::Dataset(kg::MakeYago15kLike({.scale = 0.06}));
  return *ds;
}

const kg::NumericIndex& TrainIndex() {
  static const kg::NumericIndex* idx =
      new kg::NumericIndex(Data().split.train, Data().graph.num_entities());
  return *idx;
}

core::Query SomeQuery() {
  const auto& t = Data().split.test.front();
  return {t.entity, t.attribute};
}

void BM_QueryRetrieval(benchmark::State& state) {
  const int num_walks = static_cast<int>(state.range(0));
  core::QueryRetrieval retrieval(Data().graph, TrainIndex(), 3, num_walks);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(retrieval.Retrieve(SomeQuery(), rng));
  }
  state.SetItemsProcessed(state.iterations() * num_walks);
}
BENCHMARK(BM_QueryRetrieval)->Arg(32)->Arg(128)->Arg(512)->Arg(2048);

void BM_HyperbolicFilterScore(benchmark::State& state) {
  core::ChainsFormerConfig config;
  config.filter_dim = static_cast<int>(state.range(0));
  core::HyperbolicFilter filter(Data().graph.num_relation_ids(),
                                Data().graph.num_attributes(), config);
  core::QueryRetrieval retrieval(Data().graph, TrainIndex(), 3, 64);
  Rng rng(2);
  const auto toc = retrieval.Retrieve(SomeQuery(), rng);
  for (auto _ : state) {
    for (const auto& c : toc) benchmark::DoNotOptimize(filter.Score(c));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(toc.size()));
}
BENCHMARK(BM_HyperbolicFilterScore)->Arg(8)->Arg(16)->Arg(64);

void BM_ChainEncoderEncode(benchmark::State& state) {
  core::ChainsFormerConfig config;
  config.hidden_dim = static_cast<int>(state.range(0));
  Rng rng(3);
  core::ChainEncoder encoder(Data().graph.num_relation_ids(),
                             Data().graph.num_attributes(), config, rng);
  core::QueryRetrieval retrieval(Data().graph, TrainIndex(), 3, 8);
  Rng wrng(4);
  const auto toc = retrieval.Retrieve(SomeQuery(), wrng);
  tensor::NoGradGuard no_grad;
  for (auto _ : state) {
    for (const auto& c : toc) benchmark::DoNotOptimize(encoder.Encode(c));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(toc.size()));
}
BENCHMARK(BM_ChainEncoderEncode)->Arg(16)->Arg(32)->Arg(64);

void BM_NumericalReasonerForward(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  core::ChainsFormerConfig config;
  config.hidden_dim = 32;
  Rng rng(5);
  core::NumericalReasoner reasoner(config, rng);
  std::vector<tensor::Tensor> reps;
  std::vector<double> values;
  std::vector<int64_t> lengths;
  Rng rrng(6);
  for (int i = 0; i < k; ++i) {
    reps.push_back(tensor::Tensor::Randn({32}, rrng, 0.5f));
    values.push_back(0.5);
    lengths.push_back(1 + i % 3);
  }
  tensor::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reasoner.Forward(reps, values, lengths));
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_NumericalReasonerForward)->Arg(4)->Arg(16)->Arg(64);

// GEMM kernel-layer throughput: args are {size, kernel_threads}. Items
// processed = multiply-accumulates, so google-benchmark's items/s column
// reads as MAC/s (2x for flop/s).
void BM_GemmForward(benchmark::State& state) {
  const int64_t d = state.range(0);
  tensor::kernels::SetKernelThreads(static_cast<int>(state.range(1)));
  Rng rng(7);
  const tensor::Tensor a = tensor::Tensor::Randn({d, d}, rng, 0.5f);
  const tensor::Tensor b = tensor::Tensor::Randn({d, d}, rng, 0.5f);
  tensor::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * d * d * d);
  tensor::kernels::SetKernelThreads(1);
}
BENCHMARK(BM_GemmForward)
    ->Args({64, 1})->Args({64, 2})->Args({64, 4})
    ->Args({128, 1})->Args({128, 2})->Args({128, 4})
    ->Args({256, 1})->Args({256, 2})->Args({256, 4})
    ->Args({512, 1})->Args({512, 2})->Args({512, 4});

void BM_GemmBackward(benchmark::State& state) {
  const int64_t d = state.range(0);
  tensor::kernels::SetKernelThreads(static_cast<int>(state.range(1)));
  Rng rng(8);
  const tensor::Tensor a = tensor::Tensor::Randn({d, d}, rng, 0.5f);
  const tensor::Tensor b = tensor::Tensor::Randn({d, d}, rng, 0.5f);
  const tensor::Tensor g = tensor::Tensor::Randn({d, d}, rng, 0.5f);
  std::vector<float> da(static_cast<size_t>(d * d));
  std::vector<float> db(static_cast<size_t>(d * d));
  for (auto _ : state) {
    tensor::kernels::GemmBtAcc(d, d, d, g.data().data(), b.data().data(),
                               da.data());
    tensor::kernels::GemmAtAcc(d, d, d, a.data().data(), g.data().data(),
                               db.data());
    benchmark::DoNotOptimize(da.data());
    benchmark::DoNotOptimize(db.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * d * d * d);
  tensor::kernels::SetKernelThreads(1);
}
BENCHMARK(BM_GemmBackward)
    ->Args({64, 1})->Args({64, 4})
    ->Args({128, 1})->Args({128, 4})
    ->Args({256, 1})->Args({256, 2})->Args({256, 4})
    ->Args({512, 1})->Args({512, 4});

// Quantized Linear step at the encoder projection shape (DESIGN §6g):
// dynamic activation quantization + int8 GEMM + fused dequant/bias epilogue,
// i.e. exactly what a kGemmInt8 + kDequantBias plan step pair executes.
void BM_Int8LinearForward(benchmark::State& state) {
  const int64_t m = state.range(0), d = state.range(1);
  Rng rng(23);
  std::vector<float> a(static_cast<size_t>(m * d));
  std::vector<float> b(static_cast<size_t>(d * d));
  std::vector<float> bias(static_cast<size_t>(d));
  for (auto& x : a) x = static_cast<float>(rng.Normal());
  for (auto& x : b) x = static_cast<float>(rng.Normal());
  for (auto& x : bias) x = static_cast<float>(rng.Normal());
  std::vector<int8_t> q(static_cast<size_t>(d * d));
  std::vector<float> scale(static_cast<size_t>(d));
  tensor::kernels::QuantizeWeightsInt8(d, d, b.data(), q.data(), scale.data());
  const tensor::kernels::Int8Pack pack =
      tensor::kernels::PackInt8Weights(d, d, q.data(), scale.data());
  std::vector<uint8_t> qa(static_cast<size_t>(m * pack.k_padded));
  std::vector<float> row_scale(static_cast<size_t>(m));
  std::vector<float> row_min(static_cast<size_t>(m));
  std::vector<int32_t> acc(static_cast<size_t>(m * pack.n_padded));
  std::vector<float> c(static_cast<size_t>(m * d));
  for (auto _ : state) {
    tensor::kernels::QuantizeActivationRows(m, d, pack.k_padded, a.data(),
                                            qa.data(), row_scale.data(),
                                            row_min.data());
    tensor::kernels::Int8GemmI32Serial(m, pack, qa.data(), acc.data());
    tensor::kernels::DequantBiasRows(m, pack, acc.data(), row_scale.data(),
                                     row_min.data(), bias.data(), false,
                                     c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * d * d);
}
BENCHMARK(BM_Int8LinearForward)
    ->Args({16, 64})->Args({48, 128})->Args({48, 256});

// Observability layer overhead: the disabled tracer path (one relaxed atomic
// load + branch), the enabled path (clock reads + ring write), and a
// counter/histogram update.
void BM_TraceScopeDisabled(benchmark::State& state) {
  trace::SetEnabled(false);
  for (auto _ : state) {
    CF_TRACE_SCOPE("bench.disabled");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceScopeDisabled);

void BM_TraceScopeEnabled(benchmark::State& state) {
  trace::SetEnabled(true);
  for (auto _ : state) {
    CF_TRACE_SCOPE("bench.enabled");
    benchmark::ClobberMemory();
  }
  trace::SetEnabled(false);
  trace::Clear();
}
BENCHMARK(BM_TraceScopeEnabled);

void BM_MetricsCounterIncrement(benchmark::State& state) {
  auto* counter =
      metrics::MetricsRegistry::Global().GetCounter("bench.counter");
  for (auto _ : state) {
    counter->Increment();
  }
}
BENCHMARK(BM_MetricsCounterIncrement);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  auto* hist =
      metrics::MetricsRegistry::Global().GetHistogram("bench.histogram");
  double v = 1.0;
  for (auto _ : state) {
    hist->Observe(v);
    v = v < 1e6 ? v * 1.1 : 1.0;
  }
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_WindowedHistogramObserve(benchmark::State& state) {
  auto* hist = metrics::MetricsRegistry::Global().GetHistogram(
      "bench.windowed", metrics::Window::kSliding);
  double v = 1.0;
  for (auto _ : state) {
    hist->Observe(v);
    v = v < 1e6 ? v * 1.1 : 1.0;
  }
}
BENCHMARK(BM_WindowedHistogramObserve);

core::ChainsFormerModel* FrozenModel() {
  static core::ChainsFormerModel* model = [] {
    core::ChainsFormerConfig config;
    config.num_walks = 64;
    config.top_k = 8;
    config.hidden_dim = 16;
    config.filter_dim = 8;
    config.epochs = 1;
    config.max_train_queries = 50;
    auto* m = new core::ChainsFormerModel(Data(), config);
    m->Train();
    return m;
  }();
  return model;
}

/// First test-split query whose retrieval produces a non-empty Tree of
/// Chains, so the compiled-vs-eager comparisons exercise the full forward.
core::Query QueryWithChains(const core::ChainsFormerModel& model) {
  for (const auto& t : Data().split.test) {
    const core::Query q{t.entity, t.attribute};
    if (!model.RetrieveChains(q).empty()) return q;
  }
  CF_CHECK(false) << "no test query retrieved any chains";
  return SomeQuery();
}

void BM_EndToEndPredict(benchmark::State& state) {
  core::ChainsFormerModel* model = FrozenModel();
  const auto q = SomeQuery();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->Predict(q));
  }
}
BENCHMARK(BM_EndToEndPredict);

// Forward dispatch on a fixed chain set: the eager tape interpreter vs the
// warmed static-graph plan (retrieval excluded from both, so the delta is
// purely tape construction + allocation vs the fused arena program).
void BM_EagerDispatch(benchmark::State& state) {
  core::ChainsFormerModel* model = FrozenModel();
  const core::Query q = QueryWithChains(*model);
  const core::TreeOfChains chains = model->RetrieveChains(q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->PredictOnChainSets({q}, {&chains}));
  }
}
BENCHMARK(BM_EagerDispatch);

void BM_CompiledDispatch(benchmark::State& state) {
  core::ChainsFormerModel* model = FrozenModel();
  const core::Query q = QueryWithChains(*model);
  const core::TreeOfChains chains = model->RetrieveChains(q);
  static graph::StaticGraphRuntime* runtime =
      new graph::StaticGraphRuntime(*model);
  benchmark::DoNotOptimize(runtime->Predict(q, chains));  // trace + compile
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime->Predict(q, chains));
  }
}
BENCHMARK(BM_CompiledDispatch);

/// A guardrail's verdict word, printed ahead of its figure and bound.
const char* Verdict(bool pass) { return pass ? "PASS" : "FAIL"; }

// Guardrail for "instrumentation stays free when off": measures the cost of
// a disabled CF_TRACE_SCOPE and fails if the median exceeds a generous
// budget. The disabled path is one relaxed atomic load plus a branch
// (single-digit nanoseconds everywhere); the threshold leaves ~10x headroom
// for slow/emulated CI machines while still catching an accidental clock
// read or lock on the fast path.
bool VerifyTracerDisabledOverhead() {
  constexpr int kTrials = 7;
  constexpr int kIters = 1'000'000;
  constexpr double kMaxNanosPerScope = 50.0;
  trace::SetEnabled(false);
  double trials[kTrials];
  for (int t = 0; t < kTrials; ++t) {
    Stopwatch sw;
    for (int i = 0; i < kIters; ++i) {
      CF_TRACE_SCOPE("overhead.check");
      benchmark::ClobberMemory();
    }
    trials[t] = static_cast<double>(sw.ElapsedMicros()) * 1e3 / kIters;
  }
  std::sort(trials, trials + kTrials);
  const double median = trials[kTrials / 2];
  const bool pass = median <= kMaxNanosPerScope;
  std::printf("%s tracer disabled-path overhead: %.2f ns/scope (budget %.0f)\n",
              Verdict(pass), median, kMaxNanosPerScope);
  return pass;
}

// Check-mode dispatch cost: the entire per-op price of --check-mode=off is
// (at most) two of these relaxed loads, one at the Attach record site and
// one in the FinishOp poison gate.
void BM_CheckModeDispatchOff(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::GetCheckMode());
  }
}
BENCHMARK(BM_CheckModeDispatchOff);

/// Recorded autograd ops reachable from `t` — the number of times the
/// check-mode dispatch was paid while building this tape.
int64_t CountTapeOps(const tensor::Tensor& t) {
  std::vector<tensor::TensorImpl*> stack = {t.impl().get()};
  std::unordered_set<tensor::TensorImpl*> seen = {t.impl().get()};
  int64_t ops = 0;
  while (!stack.empty()) {
    tensor::TensorImpl* node = stack.back();
    stack.pop_back();
    if (node->backward_fn) ++ops;
    for (const auto& p : node->parents) {
      if (seen.insert(p.get()).second) stack.push_back(p.get());
    }
  }
  return ops;
}

// Guardrail for "--check-mode=off is free": the sanitizer's whole per-op
// cost when off is two relaxed atomic loads (Attach + FinishOp). Measures
// that dispatch cost directly, then bounds the resulting overhead fraction
// against two representative workloads — a single 256x256 GEMM op and one
// Chain Encoder forward (whose op count is taken from its own tape, not
// guessed) — and fails above 1%.
bool VerifyCheckModeOffOverhead() {
  if (tensor::GetCheckMode() != tensor::CheckMode::kOff) {
    std::printf("SKIP check-mode overhead guardrail (CF_CHECK_MODE=%s)\n",
                tensor::CheckModeName(tensor::GetCheckMode()));
    return true;
  }
  constexpr double kMaxOverheadFraction = 0.01;
  constexpr int kTrials = 7;

  // Per-dispatch cost (ns) of GetCheckMode(): relaxed load + branch.
  double dispatch_trials[kTrials];
  for (int t = 0; t < kTrials; ++t) {
    constexpr int kIters = 1'000'000;
    Stopwatch sw;
    for (int i = 0; i < kIters; ++i) {
      benchmark::DoNotOptimize(tensor::GetCheckMode());
    }
    dispatch_trials[t] = static_cast<double>(sw.ElapsedMicros()) * 1e3 / kIters;
  }
  std::sort(dispatch_trials, dispatch_trials + kTrials);
  const double dispatch_ns = dispatch_trials[kTrials / 2];
  const double per_op_ns = 2.0 * dispatch_ns;

  // GEMM: one recorded op per MatMul call.
  Rng rng(17);
  const tensor::Tensor a = tensor::Tensor::Randn({256, 256}, rng, 0.5f);
  const tensor::Tensor b = tensor::Tensor::Randn({256, 256}, rng, 0.5f);
  double gemm_trials[kTrials];
  for (int t = 0; t < kTrials; ++t) {
    tensor::NoGradGuard no_grad;
    Stopwatch sw;
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
    gemm_trials[t] = static_cast<double>(sw.ElapsedMicros()) * 1e3;
  }
  std::sort(gemm_trials, gemm_trials + kTrials);
  const double gemm_fraction = per_op_ns / gemm_trials[kTrials / 2];

  // Chain Encoder forward: op count read off the recorded tape.
  core::ChainsFormerConfig config;
  config.hidden_dim = 32;
  Rng erng(18);
  core::ChainEncoder encoder(Data().graph.num_relation_ids(),
                             Data().graph.num_attributes(), config, erng);
  core::QueryRetrieval retrieval(Data().graph, TrainIndex(), 3, 8);
  Rng wrng(19);
  const auto toc = retrieval.Retrieve(SomeQuery(), wrng);
  CF_CHECK(!toc.empty());
  const int64_t encode_ops = CountTapeOps(encoder.Encode(toc.front()));
  double encode_trials[kTrials];
  for (int t = 0; t < kTrials; ++t) {
    Stopwatch sw;
    benchmark::DoNotOptimize(encoder.Encode(toc.front()));
    encode_trials[t] = static_cast<double>(sw.ElapsedMicros()) * 1e3;
  }
  std::sort(encode_trials, encode_trials + kTrials);
  const double encode_fraction =
      static_cast<double>(encode_ops) * per_op_ns / encode_trials[kTrials / 2];

  const bool pass = gemm_fraction <= kMaxOverheadFraction &&
                    encode_fraction <= kMaxOverheadFraction;
  std::printf(
      "%s check-mode-off overhead: %.2f ns/op dispatch; GEMM-256 %.4f%%, "
      "encoder forward (%lld ops) %.4f%% (budget %.0f%%)\n",
      Verdict(pass), per_op_ns, 100.0 * gemm_fraction,
      static_cast<long long>(encode_ops), 100.0 * encode_fraction,
      100.0 * kMaxOverheadFraction);
  return pass;
}

// Guardrail for the static-graph subsystem: once the plans are traced,
// compiled and warmed, dispatching through them must never be slower than
// the eager tape interpreter on the same frozen model and chain set. Two
// compiled paths are timed. The warm-table path is what runtime.Predict does
// once every pattern is in the pattern table: table lookups plus the
// reasoner program. The table-miss path runs the encoder program over all k
// chains and then the reasoner program through the executors, which is what
// a request whose patterns are all new costs. The compiled paths exist to
// shed tape construction, per-op heap traffic and repeated pattern encoding,
// so if either loses to eager the fusion or arena layout has regressed.
// Medians of batched trials keep the comparison stable on noisy CI machines.
bool VerifyCompiledDispatchOverhead() {
  core::ChainsFormerModel* model = FrozenModel();
  if (!graph::StaticGraphRuntime::Supports(*model)) {
    std::printf("SKIP compiled-dispatch guardrail (encoder unsupported)\n");
    return true;
  }
  const core::Query q = QueryWithChains(*model);
  const core::TreeOfChains chains = model->RetrieveChains(q);
  graph::StaticGraphRuntime runtime(*model);

  // First call traces, compiles and bitwise-verifies against eager; also
  // re-check the values agree here so the timing below compares equal work.
  const core::BatchPrediction compiled = runtime.Predict(q, chains);
  const core::BatchPrediction eager =
      model->PredictOnChainSets({q}, {&chains})[0];
  CF_CHECK_EQ(compiled.value, eager.value)
      << "compiled plan diverged from eager before timing";

  const int64_t k = static_cast<int64_t>(chains.size());
  const graph::Plan encoder =
      graph::CompileEncoderPlan(*model, k, graph::MaxTokens(chains));
  const graph::Plan reasoner = graph::CompileReasonerPlan(*model, k);
  graph::ExecutorPair executors;
  const auto& stats =
      model->train_stats()[static_cast<size_t>(q.attribute)];
  const double miss_value = stats.Denormalize(std::clamp(
      static_cast<double>(
          graph::RunNormalized(executors, encoder, reasoner, chains)),
      -0.1, 1.1));
  CF_CHECK_EQ(miss_value, eager.value)
      << "table-miss programs diverged from eager before timing";

  constexpr int kTrials = 9;
  constexpr int kIters = 50;
  double eager_trials[kTrials];
  double warm_trials[kTrials];
  double miss_trials[kTrials];
  for (int t = 0; t < kTrials; ++t) {
    Stopwatch sw;
    for (int i = 0; i < kIters; ++i) {
      benchmark::DoNotOptimize(model->PredictOnChainSets({q}, {&chains}));
    }
    eager_trials[t] = static_cast<double>(sw.ElapsedMicros()) / kIters;
    Stopwatch sw2;
    for (int i = 0; i < kIters; ++i) {
      benchmark::DoNotOptimize(runtime.Predict(q, chains));
    }
    warm_trials[t] = static_cast<double>(sw2.ElapsedMicros()) / kIters;
    Stopwatch sw3;
    for (int i = 0; i < kIters; ++i) {
      benchmark::DoNotOptimize(
          graph::RunNormalized(executors, encoder, reasoner, chains));
    }
    miss_trials[t] = static_cast<double>(sw3.ElapsedMicros()) / kIters;
  }
  std::sort(eager_trials, eager_trials + kTrials);
  std::sort(warm_trials, warm_trials + kTrials);
  std::sort(miss_trials, miss_trials + kTrials);
  const double eager_us = eager_trials[kTrials / 2];
  const double warm_us = warm_trials[kTrials / 2];
  const double miss_us = miss_trials[kTrials / 2];
  const bool pass = warm_us <= eager_us && miss_us <= eager_us;
  std::printf(
      "%s compiled dispatch (k=%lld): warm table %.1f us/query (%.2fx eager), "
      "table miss %.1f us/query (%.2fx eager), eager %.1f us/query (bound: "
      "each <= eager)\n",
      Verdict(pass), static_cast<long long>(k), warm_us, eager_us / warm_us,
      miss_us, eager_us / miss_us, eager_us);
  return pass;
}

// Guardrail for the request-tracing/metrics layer (steady-state overhead
// <= 1%). Counts what one served request pays on the serve path, in a batch
// of one (the batch-level updates then fall on it alone) with tracing off,
// the steady state:
//   - 6 tracer-clock reads: arrival, end of the cache lookup (also the
//     enqueue time) and answer in InferenceService::Predict; batch collect
//     and compute end in the dispatcher; serialize end in the NDJSON
//     handler, whose serialize phase starts at Predict's answer read;
//   - 6 observes into windowed histograms (serve.phase total, cache, queue,
//     window, compute and serialize), all fed an already-held timestamp via
//     the AtMs seam; verify only on a bucket's first use;
//   - 1 observe into a plain histogram (serve.batch_size);
//   - 1 windowed increment (serve.requests) and 2 plain ones
//     (serve.cache_hits or _misses, serve.immediate_dispatch);
//   - 2 EmitSpan calls and 4 trace-enabled checks (2 CF_TRACE_SCOPE, 2
//     trace::Enabled), all no-ops while tracing is off.
// Prices each primitive at its median, sums the bill, and fails if it
// exceeds 1% of a warmed compiled dispatch with every pattern in the table —
// the cheapest compute a request can do, so the bound is conservative for
// real traffic.
bool VerifyServeTelemetryOverhead() {
  constexpr double kMaxOverheadFraction = 0.01;
  constexpr int kTrials = 7;
  constexpr int kIters = 200'000;
  auto median_ns = [&](auto&& body) {
    double trials[kTrials];
    for (int t = 0; t < kTrials; ++t) {
      Stopwatch sw;
      for (int i = 0; i < kIters; ++i) body(i);
      trials[t] = static_cast<double>(sw.ElapsedMicros()) * 1e3 / kIters;
    }
    std::sort(trials, trials + kTrials);
    return trials[kTrials / 2];
  };

  auto& reg = metrics::MetricsRegistry::Global();
  auto* hist = reg.GetHistogram("bench.overhead.h", metrics::Window::kSliding);
  auto* plain_hist = reg.GetHistogram("bench.overhead.plain_h");
  auto* counter = reg.GetCounter("bench.overhead.c", metrics::Window::kSliding);
  auto* plain_counter = reg.GetCounter("bench.overhead.plain_c");
  const int64_t now_ms = metrics::TimeWheel::NowMs();
  const double observe_ns = median_ns(
      [&](int i) { hist->ObserveAtMs(static_cast<double>(i & 1023), now_ms); });
  const double plain_observe_ns = median_ns(
      [&](int i) { plain_hist->Observe(static_cast<double>(i & 1023)); });
  const double increment_ns =
      median_ns([&](int) { counter->IncrementAtMs(1, now_ms); });
  const double plain_increment_ns =
      median_ns([&](int) { plain_counter->Increment(); });
  trace::SetEnabled(false);
  const double span_ns = median_ns([&](int) {
    trace::EmitSpan("bench.overhead.span", 0, 1, /*trace_id=*/1);
  });
  const double scope_ns = median_ns([&](int) {
    CF_TRACE_SCOPE("bench.overhead.scope");
    benchmark::ClobberMemory();
  });
  const double clock_ns =
      median_ns([&](int) { benchmark::DoNotOptimize(trace::NowNs()); });

  const double per_request_ns = 6.0 * clock_ns + 6.0 * observe_ns +
                                plain_observe_ns + increment_ns +
                                2.0 * plain_increment_ns + 2.0 * span_ns +
                                4.0 * scope_ns;

  // Price the cheapest possible request: a warmed compiled dispatch whose
  // patterns all hit the table (the first call fills it).
  core::ChainsFormerModel* model = FrozenModel();
  if (!graph::StaticGraphRuntime::Supports(*model)) {
    std::printf("SKIP serve-telemetry guardrail (encoder unsupported)\n");
    return true;
  }
  const core::Query q = QueryWithChains(*model);
  const core::TreeOfChains chains = model->RetrieveChains(q);
  graph::StaticGraphRuntime runtime(*model);
  benchmark::DoNotOptimize(runtime.Predict(q, chains));  // gates + table fill
  constexpr int kDispatchTrials = 9;
  constexpr int kDispatchIters = 50;
  double dispatch_trials[kDispatchTrials];
  for (int t = 0; t < kDispatchTrials; ++t) {
    Stopwatch sw;
    for (int i = 0; i < kDispatchIters; ++i) {
      benchmark::DoNotOptimize(runtime.Predict(q, chains));
    }
    dispatch_trials[t] =
        static_cast<double>(sw.ElapsedMicros()) / kDispatchIters;
  }
  std::sort(dispatch_trials, dispatch_trials + kDispatchTrials);
  const double dispatch_ns = dispatch_trials[kDispatchTrials / 2] * 1e3;

  const double fraction = per_request_ns / dispatch_ns;
  const bool pass = fraction <= kMaxOverheadFraction;
  std::printf(
      "%s serve telemetry overhead: %.0f ns/request (clock %.1f, windowed "
      "observe %.1f, plain observe %.1f, windowed counter %.1f, plain counter "
      "%.1f, span-off %.2f, scope-off %.2f) = %.4f%% of a %.1f us warm-table "
      "compiled dispatch (budget %.0f%%)\n",
      Verdict(pass), per_request_ns, clock_ns, observe_ns, plain_observe_ns,
      increment_ns, plain_increment_ns, span_ns, scope_ns, 100.0 * fraction,
      dispatch_ns * 1e-3, 100.0 * kMaxOverheadFraction);
  return pass;
}

// Guardrail for the int8 serving path (ISSUE: >= 2x the float kernel at the
// encoder shapes): times the full quantized Linear step — dynamic activation
// quantization, int8 GEMM, fused dequant/bias epilogue — against the float32
// GemmAccSerial 6x16 kernel at m=48, d=128 (top_k chains x hidden_dim, the
// shape every encoder projection runs at). Pricing the quantize/dequant
// phases into the bill (the same way the telemetry guardrail prices its
// per-request primitives) keeps the 2x claim honest: a fast GEMM wrapped in
// slow conversion phases must still fail. Skipped when the runtime dispatch
// has no SIMD dot-product kernel — the portable scalar reference is
// correctness collateral, not a speed claim.
bool VerifyInt8GemmSpeedup() {
  if (!tensor::kernels::Int8GemmAccelerated()) {
    std::printf("SKIP int8 speedup guardrail (no SIMD dot-product path)\n");
    return true;
  }
  constexpr int64_t kRows = 48, kDim = 128;
  constexpr double kMinSpeedup = 2.0;
  constexpr int kTrials = 9;
  constexpr int kIters = 200;

  Rng rng(25);
  std::vector<float> a(static_cast<size_t>(kRows * kDim));
  std::vector<float> b(static_cast<size_t>(kDim * kDim));
  std::vector<float> bias(static_cast<size_t>(kDim));
  for (auto& x : a) x = static_cast<float>(rng.Normal());
  for (auto& x : b) x = static_cast<float>(rng.Normal());
  for (auto& x : bias) x = static_cast<float>(rng.Normal());
  std::vector<int8_t> q(static_cast<size_t>(kDim * kDim));
  std::vector<float> scale(static_cast<size_t>(kDim));
  tensor::kernels::QuantizeWeightsInt8(kDim, kDim, b.data(), q.data(),
                                       scale.data());
  const tensor::kernels::Int8Pack pack =
      tensor::kernels::PackInt8Weights(kDim, kDim, q.data(), scale.data());
  std::vector<uint8_t> qa(static_cast<size_t>(kRows * pack.k_padded));
  std::vector<float> row_scale(static_cast<size_t>(kRows));
  std::vector<float> row_min(static_cast<size_t>(kRows));
  std::vector<int32_t> acc(static_cast<size_t>(kRows * pack.n_padded));
  std::vector<float> c(static_cast<size_t>(kRows * kDim));

  auto median_us = [&](auto&& body) {
    double trials[kTrials];
    for (int t = 0; t < kTrials; ++t) {
      Stopwatch sw;
      for (int i = 0; i < kIters; ++i) body();
      trials[t] = static_cast<double>(sw.ElapsedMicros()) / kIters;
    }
    std::sort(trials, trials + kTrials);
    return trials[kTrials / 2];
  };

  const double float_us = median_us([&] {
    std::fill(c.begin(), c.end(), 0.0f);
    tensor::kernels::GemmAccSerial(kRows, kDim, kDim, a.data(), b.data(),
                                   c.data());
    benchmark::DoNotOptimize(c.data());
  });
  // Phase prices, so a regression names the guilty stage.
  const double quantize_us = median_us([&] {
    tensor::kernels::QuantizeActivationRows(kRows, kDim, pack.k_padded,
                                            a.data(), qa.data(),
                                            row_scale.data(), row_min.data());
    benchmark::DoNotOptimize(qa.data());
  });
  const double gemm_us = median_us([&] {
    tensor::kernels::Int8GemmI32Serial(kRows, pack, qa.data(), acc.data());
    benchmark::DoNotOptimize(acc.data());
  });
  const double dequant_us = median_us([&] {
    tensor::kernels::DequantBiasRows(kRows, pack, acc.data(), row_scale.data(),
                                     row_min.data(), bias.data(), false,
                                     c.data());
    benchmark::DoNotOptimize(c.data());
  });
  const double int8_us = quantize_us + gemm_us + dequant_us;
  const double speedup = float_us / int8_us;
  const bool pass = kMinSpeedup <= speedup;
  std::printf(
      "%s int8 linear step: %.2f us (quantize %.2f + gemm %.2f + dequant "
      "%.2f) vs float32 %.2f us at m=%lld d=%lld — %.2fx (floor %.1fx)\n",
      Verdict(pass), int8_us, quantize_us, gemm_us, dequant_us, float_us,
      static_cast<long long>(kRows), static_cast<long long>(kDim), speedup,
      kMinSpeedup);
  return pass;
}

// Guardrail for "cf::Mutex is a bare std::mutex in release": under NDEBUG
// sync.h compiles the lock-order validator hooks out of lock()/unlock()
// entirely (CF_SYNC_VALIDATOR=0), so the wrapper must price like the raw
// mutex it wraps. Times uncontended lock/unlock pairs for both, interleaving
// the trials so machine drift hits both sides equally, and bounds the
// wrapper's best trial against the raw best + 1%. Best-of-trials rather than
// median: the minimum of an uncontended fixed-work loop converges on the
// true cost, so the comparison stays stable on loaded 1-core CI machines
// where medians wobble by far more than the margin under test. Skipped in
// validator builds — there the flag check is deliberately present (~5%,
// measured) and the release claim is not what this TU compiles.
bool VerifyMutexOverhead() {
#if CF_SYNC_VALIDATOR
  std::printf("SKIP mutex overhead guardrail (validator hooks compiled in)\n");
  return true;
#else
  constexpr int kTrials = 9;
  constexpr int kIters = 2'000'000;
  constexpr double kMaxOverheadFraction = 0.01;
  std::mutex raw;  // cf-lint: allow(naked-mutex-outside-sync) baseline side
  cf::Mutex wrapped("bench.mutex_overhead");
  double raw_best = 1e300;
  double wrapped_best = 1e300;
  for (int t = 0; t < kTrials; ++t) {
    {
      Stopwatch sw;
      for (int i = 0; i < kIters; ++i) {
        raw.lock();
        benchmark::DoNotOptimize(&raw);
        raw.unlock();
      }
      raw_best = std::min(
          raw_best, static_cast<double>(sw.ElapsedMicros()) * 1e3 / kIters);
    }
    {
      Stopwatch sw;
      for (int i = 0; i < kIters; ++i) {
        wrapped.lock();
        benchmark::DoNotOptimize(&wrapped);
        wrapped.unlock();
      }
      wrapped_best = std::min(
          wrapped_best, static_cast<double>(sw.ElapsedMicros()) * 1e3 / kIters);
    }
  }
  const double overhead = wrapped_best / raw_best - 1.0;
  const bool pass = overhead <= kMaxOverheadFraction;
  std::printf(
      "%s cf::Mutex lock/unlock: %.2f ns vs raw std::mutex %.2f ns — %+.2f%% "
      "(budget %.0f%%)\n",
      Verdict(pass), wrapped_best, raw_best, 100.0 * overhead,
      100.0 * kMaxOverheadFraction);
  return pass;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  // Every guardrail runs and prints its verdict; any failure fails the run
  // before the google benchmarks.
  const bool verdicts[] = {
      VerifyMutexOverhead(),         VerifyTracerDisabledOverhead(),
      VerifyCheckModeOffOverhead(),  VerifyCompiledDispatchOverhead(),
      VerifyServeTelemetryOverhead(), VerifyInt8GemmSpeedup()};
  for (const bool pass : verdicts) {
    if (!pass) return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
