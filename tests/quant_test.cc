// Tests for DESIGN §6g, the int8 serving mode: precision-name parsing, int8
// GEMM kernel determinism (bitwise across scalar/SIMD dispatch and thread
// counts), quantized plan parity with the eager forward within the verify
// tolerance, concurrent int8 serving, the per-bucket fallback when a corrupt
// scale busts the parity gate (never a wrong answer), the serve-level
// accuracy-budget gate (serve.quant_rejected), the CFSM v2 "quant_int8" checkpoint block
// (round-trip, unknown-block skip, old-format compatibility, corrupt-scale
// death test), and the admin-surface precision reporting.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/chainsformer.h"
#include "graph/executor.h"
#include "graph/plan.h"
#include "graph/quant.h"
#include "graph/runtime.h"
#include "kg/synthetic.h"
#include "serve/admin.h"
#include "serve/checkpoint.h"
#include "serve/service.h"
#include "tensor/kernels.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace chainsformer {
namespace graph {
namespace {

using core::ChainsFormerConfig;
using core::ChainsFormerModel;
using core::Query;
using core::TreeOfChains;
namespace kernels = tensor::kernels;

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

  Trained() {
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

Query FirstQueryWithChains(const Trained& t) {
  for (const Query& q : HeldOutQueries(t.dataset, 8)) {
    if (!t.model->RetrieveChains(q).empty()) return q;
  }
  ADD_FAILURE() << "no held-out query retrieved any chains";
  return Query{};
}

int64_t CounterValue(const std::string& name) {
  return metrics::MetricsRegistry::Global().Snapshot().CounterValue(name);
}

/// Normalized-space eager prediction for `q`, the quantity the quantized
/// verify gate compares against (mirrors StaticGraphRuntime's gate).
double EagerNormalized(const Trained& t, const Query& q,
                       const TreeOfChains& chains) {
  const core::BatchPrediction eager =
      t.model->PredictOnChainSets({q}, {&chains})[0];
  return t.model->train_stats()[static_cast<size_t>(q.attribute)].Normalize(
      eager.value);
}

// --- Precision names ---------------------------------------------------------

TEST(QuantPrecisionTest, ParsePrecisionAcceptsOnlyKnownSpellings) {
  Precision p = Precision::kInt8;
  ASSERT_TRUE(ParsePrecision("fp64", &p));
  EXPECT_EQ(p, Precision::kFp64);
  p = Precision::kInt8;
  ASSERT_TRUE(ParsePrecision("fp32", &p));
  EXPECT_EQ(p, Precision::kFp64);
  ASSERT_TRUE(ParsePrecision("int8", &p));
  EXPECT_EQ(p, Precision::kInt8);
  for (const char* bad : {"bf16", "", "FP64"}) {
    for (const Precision before : {Precision::kFp64, Precision::kInt8}) {
      p = before;
      EXPECT_FALSE(ParsePrecision(bad, &p)) << bad;
      EXPECT_EQ(p, before) << "rejecting \"" << bad << "\" changed *out";
    }
  }
  // Every value round-trips through its canonical name.
  for (const Precision value : {Precision::kFp64, Precision::kInt8}) {
    Precision parsed =
        value == Precision::kFp64 ? Precision::kInt8 : Precision::kFp64;
    ASSERT_TRUE(ParsePrecision(PrecisionName(value), &parsed));
    EXPECT_EQ(parsed, value) << PrecisionName(value);
  }
}

// --- int8 kernels ------------------------------------------------------------

TEST(QuantKernelsTest, WeightQuantizationIsSymmetricPerColumn) {
  const int64_t k = 6, n = 3;
  // Column 0 spans [-2, 1], column 1 is all zeros, column 2 is constant 0.5.
  std::vector<float> b(static_cast<size_t>(k * n), 0.0f);
  for (int64_t kk = 0; kk < k; ++kk) {
    b[static_cast<size_t>(kk * n + 0)] = -2.0f + static_cast<float>(kk) * 0.5f;
    b[static_cast<size_t>(kk * n + 2)] = 0.5f;
  }
  std::vector<int8_t> q(static_cast<size_t>(k * n));
  std::vector<float> scale(static_cast<size_t>(n));
  kernels::QuantizeWeightsInt8(k, n, b.data(), q.data(), scale.data());

  EXPECT_FLOAT_EQ(scale[0], 2.0f / 127.0f);
  EXPECT_FLOAT_EQ(scale[1], 0.0f);
  EXPECT_FLOAT_EQ(scale[2], 0.5f / 127.0f);
  for (int64_t kk = 0; kk < k; ++kk) {
    EXPECT_EQ(q[static_cast<size_t>(kk * n + 1)], 0) << "zero column row " << kk;
    EXPECT_EQ(q[static_cast<size_t>(kk * n + 2)], 127);
    const int8_t code = q[static_cast<size_t>(kk * n + 0)];
    EXPECT_GE(code, -127) << "-128 would let maddubs pair sums saturate";
    EXPECT_LE(code, 127);
    // Symmetric: dequantized code is within half a step of the weight.
    EXPECT_NEAR(static_cast<float>(code) * scale[0],
                b[static_cast<size_t>(kk * n + 0)], scale[0] * 0.5f + 1e-7f);
  }
}

/// Runs the full int8 pipeline (dynamic activation quant, GEMM, dequant) at
/// one shape through every GEMM variant, returning the dequantized outputs.
struct Int8Run {
  std::vector<int32_t> acc_reference;
  std::vector<int32_t> acc_serial;
  std::vector<int32_t> acc_threaded;
  std::vector<float> c;        // dequant of acc_serial
  std::vector<float> c_float;  // double-accumulated float reference
};

Int8Run RunInt8Pipeline(int64_t m, int64_t k, int64_t n, bool gelu,
                        uint64_t seed) {
  Rng rng(seed);
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  std::vector<float> bias(static_cast<size_t>(n));
  for (auto& x : a) x = static_cast<float>(rng.Uniform(-2.0, 2.0));
  for (auto& x : b) x = static_cast<float>(rng.Normal());
  for (auto& x : bias) x = static_cast<float>(rng.Normal());

  std::vector<int8_t> q(static_cast<size_t>(k * n));
  std::vector<float> scale(static_cast<size_t>(n));
  kernels::QuantizeWeightsInt8(k, n, b.data(), q.data(), scale.data());
  const kernels::Int8Pack pack =
      kernels::PackInt8Weights(k, n, q.data(), scale.data());

  const int64_t kp = pack.k_padded, np = pack.n_padded;
  std::vector<uint8_t> qa(static_cast<size_t>(m * kp));
  std::vector<float> row_scale(static_cast<size_t>(m));
  std::vector<float> row_min(static_cast<size_t>(m));
  kernels::QuantizeActivationRows(m, k, kp, a.data(), qa.data(),
                                  row_scale.data(), row_min.data());

  Int8Run r;
  r.acc_reference.assign(static_cast<size_t>(m * np), -1);
  r.acc_serial.assign(static_cast<size_t>(m * np), -1);
  r.acc_threaded.assign(static_cast<size_t>(m * np), -1);
  kernels::Int8GemmI32Reference(m, pack, qa.data(), r.acc_reference.data());
  kernels::Int8GemmI32Serial(m, pack, qa.data(), r.acc_serial.data());
  kernels::Int8GemmI32(m, pack, qa.data(), r.acc_threaded.data());

  r.c.assign(static_cast<size_t>(m * n), 0.0f);
  kernels::DequantBiasRows(m, pack, r.acc_serial.data(), row_scale.data(),
                           row_min.data(), bias.data(), gelu, r.c.data());

  r.c_float.assign(static_cast<size_t>(m * n), 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double sum = bias[static_cast<size_t>(j)];
      for (int64_t kk = 0; kk < k; ++kk) {
        sum += static_cast<double>(a[static_cast<size_t>(i * k + kk)]) *
               static_cast<double>(b[static_cast<size_t>(kk * n + j)]);
      }
      if (gelu) {
        sum = 0.5 * sum * (1.0 + std::erf(sum / std::sqrt(2.0)));
      }
      r.c_float[static_cast<size_t>(i * n + j)] = static_cast<float>(sum);
    }
  }
  return r;
}

TEST(QuantKernelsTest, Int8GemmVariantsAreBitwiseIdentical) {
  // Odd shapes exercise the k/n padding tails; the large shape slices onto
  // the thread pool.
  const int64_t shapes[][3] = {{1, 4, 8}, {5, 19, 23}, {7, 1, 1},
                               {48, 128, 128}};
  const int old_threads = tensor::kernels::KernelThreads();
  for (const auto& s : shapes) {
    for (const int threads : {1, 4}) {
      tensor::kernels::SetKernelThreads(threads);
      const Int8Run r = RunInt8Pipeline(s[0], s[1], s[2], false,
                                        0x51ull + static_cast<uint64_t>(s[1]));
      const size_t bytes = r.acc_serial.size() * sizeof(int32_t);
      EXPECT_EQ(std::memcmp(r.acc_serial.data(), r.acc_reference.data(), bytes),
                0)
          << "serial vs scalar reference at m=" << s[0] << " k=" << s[1]
          << " n=" << s[2];
      EXPECT_EQ(std::memcmp(r.acc_serial.data(), r.acc_threaded.data(), bytes),
                0)
          << "serial vs " << threads << "-thread dispatch at m=" << s[0]
          << " k=" << s[1] << " n=" << s[2];
    }
  }
  tensor::kernels::SetKernelThreads(old_threads);
}

TEST(QuantKernelsTest, Int8PipelineTracksFloatGemm) {
  for (const bool gelu : {false, true}) {
    const Int8Run r = RunInt8Pipeline(16, 128, 64, gelu, 0x7au);
    float max_abs = 0.0f;
    for (const float v : r.c_float) max_abs = std::max(max_abs, std::fabs(v));
    for (size_t i = 0; i < r.c.size(); ++i) {
      // 7-bit activations x 8-bit weights over k=128: ~1% relative error;
      // 5% of the output range is a generous but regression-catching bound.
      EXPECT_NEAR(r.c[i], r.c_float[i], 0.05f * max_abs + 0.05f)
          << "gelu=" << gelu << " element " << i;
    }
  }
}

TEST(QuantKernelsTest, ConstantActivationRowsReconstructExactly) {
  // A constant row quantizes to range 0 (scale 0, all-zero codes); the
  // offset-correction term must reconstruct value * column-sum exactly up to
  // the weight quantization.
  const int64_t m = 2, k = 12, n = 5;
  std::vector<float> a(static_cast<size_t>(m * k));
  for (int64_t kk = 0; kk < k; ++kk) {
    a[static_cast<size_t>(kk)] = 0.75f;       // row 0: constant
    a[static_cast<size_t>(k + kk)] = -1.25f;  // row 1: constant
  }
  Rng rng(9);
  std::vector<float> b(static_cast<size_t>(k * n));
  for (auto& x : b) x = static_cast<float>(rng.Normal());
  std::vector<float> bias(static_cast<size_t>(n), 0.125f);

  std::vector<int8_t> q(static_cast<size_t>(k * n));
  std::vector<float> scale(static_cast<size_t>(n));
  kernels::QuantizeWeightsInt8(k, n, b.data(), q.data(), scale.data());
  const kernels::Int8Pack pack =
      kernels::PackInt8Weights(k, n, q.data(), scale.data());
  std::vector<uint8_t> qa(static_cast<size_t>(m * pack.k_padded), 0xFF);
  std::vector<float> row_scale(static_cast<size_t>(m));
  std::vector<float> row_min(static_cast<size_t>(m));
  kernels::QuantizeActivationRows(m, k, pack.k_padded, a.data(), qa.data(),
                                  row_scale.data(), row_min.data());
  for (int64_t i = 0; i < m; ++i) {
    EXPECT_EQ(row_scale[static_cast<size_t>(i)], 0.0f);
    for (int64_t kk = 0; kk < pack.k_padded; ++kk) {
      EXPECT_EQ(qa[static_cast<size_t>(i * pack.k_padded + kk)], 0);
    }
  }

  std::vector<int32_t> acc(static_cast<size_t>(m * pack.n_padded), -1);
  kernels::Int8GemmI32Serial(m, pack, qa.data(), acc.data());
  std::vector<float> c(static_cast<size_t>(m * n));
  kernels::DequantBiasRows(m, pack, acc.data(), row_scale.data(),
                           row_min.data(), bias.data(), false, c.data());
  for (int64_t i = 0; i < m; ++i) {
    const float v = a[static_cast<size_t>(i * k)];
    for (int64_t j = 0; j < n; ++j) {
      // Exact expectation: fmaf(min, offset_dot[j], bias[j]) with acc == 0.
      const float want = std::fmaf(v, pack.offset_dot[static_cast<size_t>(j)],
                                   bias[static_cast<size_t>(j)]);
      EXPECT_EQ(c[static_cast<size_t>(i * n + j)], want)
          << "row " << i << " col " << j;
    }
  }
}

// --- Quantized plans ---------------------------------------------------------

TEST(QuantPlanTest, Int8PlanMatchesEagerWithinTolerance) {
  Trained& t = Shared();
  const QuantStore store = BuildQuantStore(*t.model);
  ASSERT_FALSE(store.linears.empty());
  const Query q = FirstQueryWithChains(t);
  const TreeOfChains chains = t.model->RetrieveChains(q);
  const int64_t k = static_cast<int64_t>(chains.size());

  const std::shared_ptr<const Int8PackSet> int8 =
      PackQuantStore(*t.model, store);
  const Plan encoder = CompileEncoderPlan(*t.model, k, MaxTokens(chains), int8);
  const Plan reasoner = CompileReasonerPlan(*t.model, k, int8);
  for (const Plan* plan : {&encoder, &reasoner}) {
    EXPECT_EQ(plan->precision, Precision::kInt8);
    EXPECT_GT(plan->quant_rows, 0);
  }
  ExecutorPair executors;
  const double compiled = std::clamp(
      static_cast<double>(RunNormalized(executors, encoder, reasoner, chains)),
      -0.1, 1.1);
  EXPECT_NEAR(compiled, EagerNormalized(t, q, chains), 0.05);

  // Bitwise deterministic: exact int32 accumulation and one fixed dequant
  // expression, regardless of the kernel thread count.
  const float once = RunNormalized(executors, encoder, reasoner, chains);
  const int old_threads = tensor::kernels::KernelThreads();
  tensor::kernels::SetKernelThreads(4);
  EXPECT_EQ(RunNormalized(executors, encoder, reasoner, chains), once);
  tensor::kernels::SetKernelThreads(old_threads);
}

// The quantized plans keep the fp64 op skeleton (same expected_events), so
// the runtime's trace cross-check stays precision-agnostic.
TEST(QuantPlanTest, QuantizedPlansKeepTheEagerOpSkeleton) {
  Trained& t = Shared();
  const QuantStore store = BuildQuantStore(*t.model);
  const Query q = FirstQueryWithChains(t);
  const TreeOfChains chains = t.model->RetrieveChains(q);
  const int64_t k = static_cast<int64_t>(chains.size());
  const int64_t len = MaxTokens(chains);

  const Plan fp64[] = {CompileEncoderPlan(*t.model, k, len),
                       CompileReasonerPlan(*t.model, k)};
  const std::shared_ptr<const Int8PackSet> packs =
      PackQuantStore(*t.model, store);
  const Plan int8[] = {CompileEncoderPlan(*t.model, k, len, packs),
                       CompileReasonerPlan(*t.model, k, packs)};
  for (int p = 0; p < 2; ++p) {
    ASSERT_EQ(int8[p].expected_events.size(), fp64[p].expected_events.size());
    for (size_t i = 0; i < fp64[p].expected_events.size(); ++i) {
      EXPECT_EQ(int8[p].expected_events[i], fp64[p].expected_events[i])
          << "program " << p << " op " << i;
    }
  }
}

// --- Runtime: tolerance gate + fallback --------------------------------------

TEST(QuantRuntimeTest, Int8RuntimeServesHeldOutQueriesWithinTolerance) {
  Trained& t = Shared();
  const QuantStore store = BuildQuantStore(*t.model);
  StaticGraphRuntime runtime(*t.model, &store);
  EXPECT_EQ(runtime.precision(), Precision::kInt8);
  EXPECT_EQ(runtime.verify_tolerance(), 0.05);

  const int64_t fallbacks0 = CounterValue("plan.quant_fallbacks");
  std::vector<Query> queries = HeldOutQueries(t.dataset, 16);
  queries.resize(16);
  size_t with_evidence = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const TreeOfChains chains = t.model->RetrieveChains(queries[i]);
    const core::BatchPrediction eager =
        t.model->PredictOnChainSets({queries[i]}, {&chains})[0];
    const core::BatchPrediction compiled = runtime.Predict(queries[i], chains);
    ASSERT_EQ(compiled.has_evidence, eager.has_evidence) << "query " << i;
    if (!compiled.has_evidence) continue;
    ++with_evidence;
    const auto& stats =
        t.model->train_stats()[static_cast<size_t>(queries[i].attribute)];
    EXPECT_LE(std::fabs(stats.Normalize(compiled.value) -
                        stats.Normalize(eager.value)),
              0.05 + 1e-9)
        << "query " << i;
  }
  EXPECT_GT(with_evidence, 0u);
  EXPECT_EQ(CounterValue("plan.quant_fallbacks") - fallbacks0, 0)
      << "a healthy store must pass the first-use parity gate";

  bool saw_int8_bucket = false;
  for (const auto& b : runtime.Stats()) {
    EXPECT_EQ(b.verify_tolerance, 0.05);
    if (b.ready && !b.eager_fallback) {
      EXPECT_STREQ(b.precision, "int8");
      saw_int8_bucket = true;
    }
  }
  EXPECT_TRUE(saw_int8_bucket);
}

// Four threads share one cold int8 runtime, so first-use gates, table fills
// and warm runs in each thread's own executors interleave over the one pack
// set every plan points into (Tsan runs this binary: it carries the
// `threaded` label). Every answer equals a one-thread run's bit for bit.
TEST(QuantRuntimeTest, ConcurrentInt8PredictsMatchOneThread) {
  Trained& t = Shared();
  const QuantStore store = BuildQuantStore(*t.model);
  std::vector<Query> queries = HeldOutQueries(t.dataset, 32);
  queries.resize(32);
  std::vector<TreeOfChains> chains(queries.size());
  std::vector<double> want(queries.size());
  const int64_t fallbacks0 = CounterValue("plan.quant_fallbacks");
  {
    StaticGraphRuntime one_thread(*t.model, &store);
    for (size_t i = 0; i < queries.size(); ++i) {
      chains[i] = t.model->RetrieveChains(queries[i]);
      want[i] = one_thread.Predict(queries[i], chains[i]).value;
    }
  }

  StaticGraphRuntime runtime(*t.model, &store);
  constexpr int kThreads = 4;
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (size_t j = 0; j < queries.size(); ++j) {
        const size_t i = (static_cast<size_t>(w) * 8 + j) % queries.size();
        if (runtime.Predict(queries[i], chains[i]).value != want[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(CounterValue("plan.quant_fallbacks") - fallbacks0, 0)
      << "a failed gate serves eager bits where the other run served int8";
}

TEST(QuantRuntimeTest, CorruptScaleFallsBackToEagerPerBucket) {
  Trained& t = Shared();
  QuantStore bad = BuildQuantStore(*t.model);
  // Garbage scales in every linear: the compiled result is far outside the
  // verify tolerance, so the gate must pin the bucket to the eager path.
  for (auto& lin : bad.linears) {
    for (float& s : lin.scale) s *= 64.0f;
  }
  StaticGraphRuntime runtime(*t.model, &bad);

  const Query q = FirstQueryWithChains(t);
  const TreeOfChains chains = t.model->RetrieveChains(q);
  const core::BatchPrediction eager =
      t.model->PredictOnChainSets({q}, {&chains})[0];

  const int64_t fallbacks0 = CounterValue("plan.quant_fallbacks");
  const core::BatchPrediction first = runtime.Predict(q, chains);
  // Never a wrong answer: the gated miss serves the eager value bit-for-bit.
  EXPECT_EQ(first.value, eager.value);
  EXPECT_EQ(CounterValue("plan.quant_fallbacks") - fallbacks0, 1);

  // The bucket is pinned: later hits stay eager without re-verifying.
  const core::BatchPrediction again = runtime.Predict(q, chains);
  EXPECT_EQ(again.value, eager.value);
  EXPECT_EQ(CounterValue("plan.quant_fallbacks") - fallbacks0, 1);

  bool saw_fallback_bucket = false;
  for (const auto& b : runtime.Stats()) {
    if (b.eager_fallback) {
      EXPECT_STREQ(b.precision, "fp64")
          << "a gated bucket serves fp64, whatever was requested";
      saw_fallback_bucket = true;
    }
  }
  EXPECT_TRUE(saw_fallback_bucket);
}

// --- Service: accuracy-budget gate -------------------------------------------

TEST(QuantServiceTest, Int8ServiceAnswersAndTagsResponses) {
  Trained& t = Shared();
  serve::ServeOptions options;
  options.batch_window_us = 0;
  options.deadline_ms = 0;
  options.precision = Precision::kInt8;
  options.quant = std::make_shared<const QuantStore>(BuildQuantStore(*t.model));
  serve::InferenceService service(*t.model, options);
  EXPECT_FALSE(service.quant_rejected());

  const Query q = FirstQueryWithChains(t);
  const serve::ServeResponse r = service.Predict(q);
  EXPECT_EQ(r.source, "model");
  EXPECT_STREQ(r.precision, "int8");
  // The answer cache serves the first int8 answer, still tagged int8.
  const serve::ServeResponse hit = service.Predict(q);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.value, r.value);
  EXPECT_STREQ(hit.precision, "int8");

  // The admin surfaces report the serving precision.
  const std::string status = serve::StatusJson(&service);
  EXPECT_NE(status.find("\"precision\": {\"mode\": \"int8\""),
            std::string::npos)
      << status;
  const std::string prom = serve::PrometheusText(&service);
  EXPECT_NE(prom.find("cf_plan_precision{precision=\"int8\"} 1"),
            std::string::npos)
      << prom;
}

TEST(QuantServiceTest, MissingQuantStoreRejectsInt8AndServesFp64) {
  Trained& t = Shared();
  const int64_t rejected0 = CounterValue("serve.quant_rejected");
  serve::ServeOptions options;
  options.batch_window_us = 0;
  options.deadline_ms = 0;
  options.precision = Precision::kInt8;  // no options.quant: old checkpoint
  serve::InferenceService service(*t.model, options);
  EXPECT_TRUE(service.quant_rejected());
  EXPECT_EQ(CounterValue("serve.quant_rejected") - rejected0, 1);

  const Query q = FirstQueryWithChains(t);
  const serve::ServeResponse r = service.Predict(q);
  EXPECT_EQ(r.source, "model");
  EXPECT_STREQ(r.precision, "fp64");
  EXPECT_EQ(r.value, t.model->Predict(q)) << "fp64 fallback must stay bitwise";
}

TEST(QuantServiceTest, CalibrationErrorOverBudgetRejectsInt8) {
  Trained& t = Shared();
  QuantStore store = BuildQuantStore(*t.model);
  store.mae_delta = 0.2;  // recorded drift way over the default 0.05 budget
  store.calibration_queries = 100;
  const int64_t rejected0 = CounterValue("serve.quant_rejected");
  serve::ServeOptions options;
  options.batch_window_us = 0;
  options.deadline_ms = 0;
  options.precision = Precision::kInt8;
  options.quant = std::make_shared<const QuantStore>(std::move(store));
  serve::InferenceService service(*t.model, options);
  EXPECT_TRUE(service.quant_rejected());
  EXPECT_EQ(CounterValue("serve.quant_rejected") - rejected0, 1);
  const serve::ServeResponse r = service.Predict(FirstQueryWithChains(t));
  EXPECT_STREQ(r.precision, "fp64");
}

// --- Checkpoint: CFSM v2 quant block -----------------------------------------

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

uint32_t FormatVersion(const std::string& bytes) {
  EXPECT_GE(bytes.size(), 8u);
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + 4, sizeof(v));
  return v;
}

TEST(QuantCheckpointTest, QuantlessSaveStaysBitIdenticalVersion1) {
  Trained& t = Shared();
  const std::string old_path = "/tmp/cf_quant_v1_old.cfsm";
  const std::string new_path = "/tmp/cf_quant_v1_new.cfsm";
  ASSERT_TRUE(serve::SaveModel(*t.model, old_path));
  ASSERT_TRUE(serve::SaveModel(*t.model, nullptr, new_path));
  const std::string old_bytes = ReadFileBytes(old_path);
  EXPECT_EQ(old_bytes, ReadFileBytes(new_path))
      << "a null quant store must not change the checkpoint format";
  EXPECT_EQ(FormatVersion(old_bytes), 1u);
  // Loading a v1 checkpoint with a quant_out leaves it empty: the caller
  // then serves full precision.
  ChainsFormerConfig base;
  base.verbose = false;
  QuantStore quant;
  quant.linears.resize(1);  // stale state must be cleared
  ASSERT_NE(serve::LoadModel(t.dataset, base, old_path, &quant), nullptr);
  EXPECT_TRUE(quant.linears.empty());
  std::remove(old_path.c_str());
  std::remove(new_path.c_str());
}

TEST(QuantCheckpointTest, QuantBlockRoundTripsThroughVersion2) {
  Trained& t = Shared();
  QuantStore store = BuildQuantStore(*t.model);
  std::vector<Query> calib = HeldOutQueries(t.dataset, 8);
  calib.resize(8);
  CalibrateQuantStore(*t.model, calib, &store);
  EXPECT_GT(store.calibration_queries, 0);

  const std::string path = "/tmp/cf_quant_roundtrip.cfsm";
  ASSERT_TRUE(serve::SaveModel(*t.model, &store, path));
  EXPECT_EQ(FormatVersion(ReadFileBytes(path)), 2u);

  ChainsFormerConfig base;
  base.verbose = false;
  QuantStore loaded_q;
  std::unique_ptr<ChainsFormerModel> loaded =
      serve::LoadModel(t.dataset, base, path, &loaded_q);
  ASSERT_NE(loaded, nullptr);

  EXPECT_EQ(loaded_q.mae_delta, store.mae_delta);
  EXPECT_EQ(loaded_q.calibration_queries, store.calibration_queries);
  ASSERT_EQ(loaded_q.linears.size(), store.linears.size());
  for (size_t i = 0; i < store.linears.size(); ++i) {
    EXPECT_EQ(loaded_q.linears[i].name, store.linears[i].name);
    EXPECT_EQ(loaded_q.linears[i].in, store.linears[i].in);
    EXPECT_EQ(loaded_q.linears[i].out, store.linears[i].out);
    EXPECT_EQ(loaded_q.linears[i].codes, store.linears[i].codes);
    EXPECT_EQ(loaded_q.linears[i].scale, store.linears[i].scale);
  }

  // The model parameters still round-trip bitwise underneath the new block,
  // and the reloaded store passes the serve-time accuracy gate.
  const Query q = FirstQueryWithChains(t);
  EXPECT_EQ(loaded->Predict(q), t.model->Predict(q));
  serve::ServeOptions options;
  options.batch_window_us = 0;
  options.deadline_ms = 0;
  options.precision = Precision::kInt8;
  options.quant = std::make_shared<const QuantStore>(std::move(loaded_q));
  serve::InferenceService service(*loaded, options);
  EXPECT_FALSE(service.quant_rejected())
      << "calibration drift " << options.quant->mae_delta
      << " exceeded the documented 0.05 budget";
  EXPECT_STREQ(service.Predict(q).precision, "int8");
  std::remove(path.c_str());
}

TEST(QuantCheckpointTest, UnknownTaggedBlocksAreSkipped) {
  Trained& t = Shared();
  QuantStore store = BuildQuantStore(*t.model);
  const std::string path = "/tmp/cf_quant_unknown_block.cfsm";
  ASSERT_TRUE(serve::SaveModel(*t.model, &store, path));

  // Rename the block in place (same length): a reader that does not know
  // the name must skip the payload and keep going — forward compatibility
  // for blocks added after this binary shipped.
  std::string bytes = ReadFileBytes(path);
  const size_t pos = bytes.find("quant_int8");
  ASSERT_NE(pos, std::string::npos);
  bytes.replace(pos, 10, "mystery_xx");
  WriteFileBytes(path, bytes);

  ChainsFormerConfig base;
  base.verbose = false;
  QuantStore quant;
  std::unique_ptr<ChainsFormerModel> loaded =
      serve::LoadModel(t.dataset, base, path, &quant);
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(quant.linears.empty());
  EXPECT_EQ(loaded->Predict(FirstQueryWithChains(t)),
            t.model->Predict(FirstQueryWithChains(t)));
  std::remove(path.c_str());
}

TEST(QuantCheckpointDeathTest, CorruptScaleAbortsNamingTheBlock) {
  Trained& t = Shared();
  QuantStore store = BuildQuantStore(*t.model);
  ASSERT_FALSE(store.linears.empty());
  store.linears[0].scale[0] = -1.0f;  // negative scale: impossible output
  const std::string path = "/tmp/cf_quant_corrupt_scale.cfsm";
  ASSERT_TRUE(serve::SaveModel(*t.model, &store, path));
  ChainsFormerConfig base;
  base.verbose = false;
  QuantStore quant;
  EXPECT_DEATH(serve::LoadModel(t.dataset, base, path, &quant),
               "quant_int8 block of .* corrupt scale array");
  std::remove(path.c_str());
}

TEST(QuantCheckpointDeathTest, FutureFormatVersionAbortsNamed) {
  Trained& t = Shared();
  const std::string path = "/tmp/cf_quant_future_version.cfsm";
  ASSERT_TRUE(serve::SaveModel(*t.model, path));
  std::string bytes = ReadFileBytes(path);
  const uint32_t future = 7;
  std::memcpy(&bytes[4], &future, sizeof(future));
  WriteFileBytes(path, bytes);
  ChainsFormerConfig base;
  base.verbose = false;
  EXPECT_DEATH(serve::LoadModel(t.dataset, base, path),
               "this binary reads versions 1..2");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace graph
}  // namespace chainsformer
