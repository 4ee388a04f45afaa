// int8 recorder (DESIGN §6g): measures what quantization buys and what it
// costs, and writes both to a JSON file the acceptance gate can read.
//
//   speed    — the Linear-step kernels head to head at encoder shapes:
//              fp32 GemmAccSerial vs the full int8 pipeline (dynamic row
//              quantization + int32 GEMM + dequant/bias epilogue — the whole
//              bill, not just the GEMM). perf_microbench enforces the >= 2x
//              floor on every run; this binary records the measured ratios
//              alongside the accuracy numbers so one artifact holds the
//              whole trade.
//   accuracy — mean |normalized int8 - normalized fp64| over held-out
//              queries, through CalibrateQuantStore (the same measurement
//              the training tool persists into the checkpoint and the
//              serve-time budget gate checks). It must land inside
//              serve::kQuantErrorBudget (0.05 normalized).
//
// Usage:
//   bench_quant [--out=BENCH_quant.json] [--hidden-dim=64] [--epochs=1]
//               [--calibration-queries=160] [--trials=9] [--iters=200]
//
// Honors the CF_* environment hooks of bench_common (CF_KERNEL_THREADS,
// CF_TRACE_JSON, CF_METRICS_JSON, CF_STATS).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "graph/quant.h"
#include "serve/service.h"
#include "tensor/kernels.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace chainsformer {
namespace {

namespace k = tensor::kernels;

struct ShapeTiming {
  int64_t m = 0, d = 0, n = 0;
  double fp32_us = 0.0;
  double int8_us = 0.0;  // quantize + int32 GEMM + dequant/bias
};

double MedianOfTrials(int trials, int iters,
                      const std::function<void()>& body) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    Stopwatch sw;
    for (int i = 0; i < iters; ++i) body();
    samples.push_back(static_cast<double>(sw.ElapsedMicros()) /
                      static_cast<double>(iters));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// One Linear step (activations [m, d] x weights [d, n] + bias) timed in
/// both numeric modes. The int8 time includes the per-call activation
/// quantization and the dequant epilogue — the serving executor pays both on
/// every step, so a GEMM-only number would overstate the win.
ShapeTiming TimeShape(int64_t m, int64_t d, int64_t n, int trials, int iters) {
  Rng rng(static_cast<uint64_t>(m * 1000 + n));
  std::vector<float> a(static_cast<size_t>(m * d));
  std::vector<float> b(static_cast<size_t>(d * n));
  std::vector<float> bias(static_cast<size_t>(n));
  for (float& x : a) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& x : b) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& x : bias) x = static_cast<float>(rng.Uniform(-0.5, 0.5));
  std::vector<float> c(static_cast<size_t>(m * n));

  ShapeTiming timing;
  timing.m = m;
  timing.d = d;
  timing.n = n;

  timing.fp32_us = MedianOfTrials(trials, iters, [&] {
    std::fill(c.begin(), c.end(), 0.0f);
    k::GemmAccSerial(m, d, n, a.data(), b.data(), c.data());
    k::BiasAddRows(c.data(), bias.data(), m, n, c.data());
  });

  std::vector<int8_t> codes(static_cast<size_t>(d * n));
  std::vector<float> scale(static_cast<size_t>(n));
  k::QuantizeWeightsInt8(d, n, b.data(), codes.data(), scale.data());
  const k::Int8Pack pack = k::PackInt8Weights(d, n, codes.data(), scale.data());
  std::vector<uint8_t> qa(static_cast<size_t>(m * pack.k_padded));
  std::vector<float> row_scale(static_cast<size_t>(m));
  std::vector<float> row_min(static_cast<size_t>(m));
  std::vector<int32_t> acc(static_cast<size_t>(m * pack.n_padded));
  timing.int8_us = MedianOfTrials(trials, iters, [&] {
    k::QuantizeActivationRows(m, d, pack.k_padded, a.data(), qa.data(),
                              row_scale.data(), row_min.data());
    k::Int8GemmI32Serial(m, pack, qa.data(), acc.data());
    k::DequantBiasRows(m, pack, acc.data(), row_scale.data(), row_min.data(),
                       bias.data(), /*gelu=*/false, c.data());
  });
  return timing;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bench::BenchOptions options = bench::DefaultOptions();
  const std::string out_path = flags.GetString("out", "BENCH_quant.json");
  const int trials = static_cast<int>(flags.GetInt("trials", 9));
  const int iters = static_cast<int>(flags.GetInt("iters", 200));
  const int want_queries =
      static_cast<int>(flags.GetInt("calibration-queries", 160));

  bench::PrintBanner(
      "quant", "reduced-precision GEMM speed + accuracy drift (DESIGN 6g)");

  // ---- Speed: the Linear step at encoder shapes --------------------------
  // m is the token-row count of a batched encoder pass (k chains x padded
  // length), d/n the Linear geometry. d = n = hidden_dim covers the
  // attention projections; the 4x column count covers ff1.
  std::vector<ShapeTiming> timings;
  for (const auto& [m, d, n] : std::vector<std::tuple<int64_t, int64_t, int64_t>>{
           {16, 64, 64}, {48, 128, 128}, {48, 128, 512}}) {
    timings.push_back(TimeShape(m, d, n, trials, iters));
    const ShapeTiming& t = timings.back();
    std::printf(
        "linear m=%-3lld d=%-4lld n=%-4lld  fp32 %7.2fus  int8 %7.2fus "
        "(%.2fx)\n",
        static_cast<long long>(t.m), static_cast<long long>(t.d),
        static_cast<long long>(t.n), t.fp32_us, t.int8_us,
        t.fp32_us / t.int8_us);
  }

  // ---- Accuracy: normalized drift vs fp64 on held-out queries ------------
  core::ChainsFormerConfig config = bench::BenchConfig(options);
  config.hidden_dim = static_cast<int>(flags.GetInt("hidden-dim", 64));
  config.epochs = static_cast<int>(flags.GetInt("epochs", 1));
  config.verbose = false;
  const kg::Dataset& dataset = bench::YagoDataset(options);
  core::ChainsFormerModel model(dataset, config);
  model.Train();

  std::vector<core::Query> held_out;
  for (const auto& t : bench::TestSample(dataset, want_queries)) {
    held_out.push_back({t.entity, t.attribute});
  }

  graph::QuantStore store = graph::BuildQuantStore(model);
  graph::CalibrateQuantStore(model, held_out, &store);

  // The budget the serving stack enforces: the service's checkpoint gate.
  const double int8_budget = serve::kQuantErrorBudget;
  std::printf("int8 MAE delta %.6f over %lld held-out queries (budget %.3f)\n",
              store.mae_delta,
              static_cast<long long>(store.calibration_queries), int8_budget);

  // The acceptance gate: int8 inside its documented budget, measured on
  // >= 100 held-out queries.
  CF_CHECK_LE(std::min<int64_t>(100, want_queries), store.calibration_queries)
      << "too few held-out queries had retrievable chains";
  CF_CHECK_LE(store.mae_delta, int8_budget);

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"quant\",\n");
  std::fprintf(f, "  \"hidden_dim\": %d,\n", config.hidden_dim);
  std::fprintf(f, "  \"int8_gemm_accelerated\": %s,\n",
               k::Int8GemmAccelerated() ? "true" : "false");
  std::fprintf(f, "  \"kernels\": [\n");
  for (size_t i = 0; i < timings.size(); ++i) {
    const ShapeTiming& t = timings[i];
    std::fprintf(f,
                 "    {\"m\": %lld, \"d\": %lld, \"n\": %lld, "
                 "\"fp32_us\": %.3f, \"int8_us\": %.3f, "
                 "\"int8_speedup\": %.3f}%s\n",
                 static_cast<long long>(t.m), static_cast<long long>(t.d),
                 static_cast<long long>(t.n), t.fp32_us, t.int8_us,
                 t.fp32_us / t.int8_us, i + 1 < timings.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"calibration_queries\": %lld,\n",
               static_cast<long long>(store.calibration_queries));
  std::fprintf(f, "  \"int8_mae_delta\": %.6f,\n", store.mae_delta);
  std::fprintf(f, "  \"int8_error_budget\": %.3f\n", int8_budget);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace chainsformer

int main(int argc, char** argv) { return chainsformer::Main(argc, argv); }
