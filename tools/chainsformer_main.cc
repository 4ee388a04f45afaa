// ChainsFormer command-line tool.
//
// Subcommands:
//   generate  — write a synthetic benchmark dataset to TSV files
//   train     — train on TSV data and save a checkpoint
//   eval      — evaluate a checkpoint on the held-out test split
//   explain   — trace the reasoning chains behind one prediction
//
// Examples:
//   chainsformer generate --dataset=yago --scale=0.15 \
//       --triples=/tmp/t.tsv --numeric=/tmp/n.tsv
//   chainsformer train --triples=/tmp/t.tsv --numeric=/tmp/n.tsv \
//       --checkpoint=/tmp/model.cfsm --epochs=12
//   chainsformer eval --triples=/tmp/t.tsv --numeric=/tmp/n.tsv \
//       --checkpoint=/tmp/model.cfsm
//   chainsformer explain --triples=/tmp/t.tsv --numeric=/tmp/n.tsv \
//       --checkpoint=/tmp/model.cfsm --entity=person_12 --attribute=birth

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/chainsformer.h"
#include "eval/table.h"
#include "graph/quant.h"
#include "kg/analysis.h"
#include "kg/loader.h"
#include "kg/synthetic.h"
#include "serve/checkpoint.h"
#include "tensor/checks.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace chainsformer {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: chainsformer <generate|analyze|train|eval|explain> [--flags]\n"
               "  common flags: --triples=PATH --numeric=PATH --seed=N\n"
               "                --kernel-threads=N (dense kernel workers; 0 = all cores)\n"
               "                --metrics-json=PATH (dump pipeline metrics as JSON)\n"
               "                --trace-json=PATH (record a chrome://tracing span file)\n"
               "                --stats (print a metrics summary table on exit)\n"
               "                --eval-threads=N (parallel evaluation passes; bit-identical)\n"
               "                --no-batched-encoder (per-chain reference encoder path)\n"
               "                --check-mode=off|shapes|full (autograd tape sanitizer;\n"
               "                  default from CF_CHECK_MODE, else off)\n"
               "  generate: --dataset=yago|fb --scale=F\n"
               "  train:    --checkpoint=PATH --epochs=N --hidden-dim=N\n"
               "            --num-walks=N --top-k=N --max-hops=N --lr=F\n"
               "            --quantize (add int8 weights + calibration error to\n"
               "              the checkpoint for --precision=int8 serving)\n"
               "            --calibration-queries=N (held-out queries used to\n"
               "              measure the int8 accuracy drift; default 200)\n"
               "  eval:     --checkpoint=PATH\n"
               "  explain:  --checkpoint=PATH --entity=NAME --attribute=NAME\n");
  return 2;
}

core::ChainsFormerConfig ConfigFromFlags(const FlagParser& flags) {
  core::ChainsFormerConfig config;
  config.epochs = static_cast<int>(flags.GetInt("epochs", 12));
  config.hidden_dim = static_cast<int>(flags.GetInt("hidden-dim", 32));
  config.filter_dim = static_cast<int>(flags.GetInt("filter-dim", 16));
  config.num_walks = static_cast<int>(flags.GetInt("num-walks", 128));
  config.top_k = static_cast<int>(flags.GetInt("top-k", 16));
  config.max_hops = static_cast<int>(flags.GetInt("max-hops", 3));
  config.learning_rate = static_cast<float>(flags.GetDouble("lr", 4e-3));
  config.max_train_queries = static_cast<int>(flags.GetInt("train-queries", 400));
  config.kernel_threads = static_cast<int>(flags.GetInt("kernel-threads", 1));
  config.check_mode = tensor::CheckModeFromString(flags.GetString(
      "check-mode", tensor::CheckModeName(tensor::CheckModeFromEnv())));
  config.batched_encoder = !flags.GetBool("no-batched-encoder", false);
  config.eval_threads = static_cast<int>(flags.GetInt("eval-threads", 2));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  config.verbose = flags.GetBool("verbose", true);
  return config;
}

kg::Dataset LoadFromFlags(const FlagParser& flags) {
  const std::string triples = flags.GetString("triples");
  const std::string numeric = flags.GetString("numeric");
  CF_CHECK(!triples.empty() && !numeric.empty())
      << "--triples and --numeric are required";
  return kg::LoadTsvDataset("cli", triples, numeric,
                            static_cast<uint64_t>(flags.GetInt("seed", 42)));
}

int RunGenerate(const FlagParser& flags) {
  const std::string which = flags.GetString("dataset", "yago");
  kg::SyntheticOptions options;
  options.scale = flags.GetDouble("scale", 0.15);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const kg::Dataset ds = which == "fb" ? kg::MakeFb15k237Like(options)
                                       : kg::MakeYago15kLike(options);
  const std::string triples = flags.GetString("triples", "/tmp/cf_triples.tsv");
  const std::string numeric = flags.GetString("numeric", "/tmp/cf_numeric.tsv");
  kg::SaveTsvDataset(ds, triples, numeric);
  std::printf("wrote %s: %lld entities, %zu triples -> %s\n", ds.name.c_str(),
              static_cast<long long>(ds.graph.num_entities()),
              ds.graph.relational_triples().size(), triples.c_str());
  std::printf("wrote %zu numeric facts -> %s\n",
              ds.graph.numerical_triples().size(), numeric.c_str());
  return 0;
}

int RunAnalyze(const FlagParser& flags) {
  const kg::Dataset ds = LoadFromFlags(flags);
  const kg::GraphAnalysis a = kg::AnalyzeGraph(ds.graph);
  std::printf("%s", kg::AnalysisReport(ds.graph, a).c_str());
  for (int hops = 1; hops <= 3; ++hops) {
    std::printf("avg entities reachable in %d hops: %.1f\n", hops,
                kg::AverageReachableEntities(ds.graph, hops, 100));
  }
  return 0;
}

/// Final evaluation used by train/eval: parallel (bit-identical to serial,
/// see ChainsFormerModel::EvaluateParallel) when --eval-threads > 1.
eval::EvalResult FinalEvaluate(core::ChainsFormerModel& model,
                               const std::vector<kg::NumericalTriple>& queries) {
  const int eval_threads = model.config().eval_threads;
  if (eval_threads == 1) return model.Evaluate(queries);
  ThreadPool pool(eval_threads > 0 ? static_cast<size_t>(eval_threads) : 0);
  return model.EvaluateParallel(queries, pool);
}

int RunTrain(const FlagParser& flags) {
  const kg::Dataset ds = LoadFromFlags(flags);
  core::ChainsFormerModel model(ds, ConfigFromFlags(flags));
  std::printf("training on %s: %zu train / %zu valid / %zu test numeric facts\n",
              ds.name.c_str(), ds.split.train.size(), ds.split.valid.size(),
              ds.split.test.size());
  const auto report = model.Train();
  std::printf("trained %d epochs; best validation nMAE %.4f\n",
              report.epochs_run, report.best_valid_mae);
  if (!report.epoch_stage_millis.empty()) {
    const auto& last = report.epoch_stage_millis.back();
    std::printf(
        "last epoch stage times (ms): retrieval %.1f, filter %.1f, encode %.1f, "
        "project %.1f, aggregate %.1f (valid eval %.1f of %.1f total)\n",
        last.at("retrieval"), last.at("filter"), last.at("encode"),
        last.at("project"), last.at("aggregate"), last.at("valid_eval"),
        last.at("total"));
  }
  const std::string checkpoint = flags.GetString("checkpoint");
  if (!checkpoint.empty()) {
    const graph::QuantStore* quant = nullptr;
    graph::QuantStore store;
    if (flags.GetBool("quantize", false)) {
      // Quantize the frozen weights and measure the int8 serving drift on
      // held-out validation queries, so the checkpoint carries the evidence
      // the serve-time accuracy gate (serve::kQuantErrorBudget) checks.
      store = graph::BuildQuantStore(model);
      const int64_t want = flags.GetInt("calibration-queries", 200);
      std::vector<core::Query> calib;
      for (const auto& t : ds.split.valid) {
        if (static_cast<int64_t>(calib.size()) >= want) break;
        calib.push_back(core::Query{t.entity, t.attribute});
      }
      graph::CalibrateQuantStore(model, calib, &store);
      std::printf(
          "quantized %zu linears; int8 calibration MAE delta %.6f over %lld "
          "queries\n",
          store.linears.size(), store.mae_delta,
          static_cast<long long>(store.calibration_queries));
      quant = &store;
    }
    // Self-describing CFSM checkpoint: config + vocab + stats + tensors, so
    // eval/serve do not need the training flags repeated.
    if (!serve::SaveModel(model, quant, checkpoint)) {
      std::fprintf(stderr, "failed to write checkpoint %s\n", checkpoint.c_str());
      return 1;
    }
    std::printf("checkpoint saved to %s\n", checkpoint.c_str());
  }
  const auto result = FinalEvaluate(model, ds.split.test);
  std::printf("test Average* MAE %.4f, RMSE %.4f over %lld queries\n",
              result.normalized_mae, result.normalized_rmse,
              static_cast<long long>(result.total_count));
  return 0;
}

/// Builds a ready-to-predict model: from a --checkpoint when given (a CFSM
/// checkpoint carries its own config), otherwise by training from scratch.
/// Returns nullptr on load failure.
std::unique_ptr<core::ChainsFormerModel> LoadOrTrain(const FlagParser& flags,
                                                     const kg::Dataset& ds) {
  const std::string checkpoint = flags.GetString("checkpoint");
  if (checkpoint.empty()) {
    std::printf("no --checkpoint given; training from scratch\n");
    auto model =
        std::make_unique<core::ChainsFormerModel>(ds, ConfigFromFlags(flags));
    model->Train();
    return model;
  }
  return serve::LoadModel(ds, ConfigFromFlags(flags), checkpoint);
}

int RunEval(const FlagParser& flags) {
  const kg::Dataset ds = LoadFromFlags(flags);
  std::unique_ptr<core::ChainsFormerModel> model_ptr = LoadOrTrain(flags, ds);
  if (!model_ptr) return 1;
  core::ChainsFormerModel& model = *model_ptr;
  const auto result = FinalEvaluate(model, ds.split.test);
  eval::TextTable table({"attribute", "count", "MAE", "RMSE"});
  for (kg::AttributeId a = 0; a < ds.graph.num_attributes(); ++a) {
    const auto& m = result.per_attribute[static_cast<size_t>(a)];
    if (m.count == 0) continue;
    table.AddRow({ds.graph.AttributeName(a), std::to_string(m.count),
                  FormatMetric(m.mae), FormatMetric(m.rmse)});
  }
  table.AddRow({"Average*", std::to_string(result.total_count),
                FormatMetric(result.normalized_mae),
                FormatMetric(result.normalized_rmse)});
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int RunExplain(const FlagParser& flags) {
  const kg::Dataset ds = LoadFromFlags(flags);
  const kg::EntityId entity = ds.graph.FindEntity(flags.GetString("entity"));
  const kg::AttributeId attribute =
      ds.graph.FindAttribute(flags.GetString("attribute"));
  if (entity < 0 || attribute < 0) {
    std::fprintf(stderr, "unknown --entity or --attribute\n");
    return 1;
  }
  std::unique_ptr<core::ChainsFormerModel> model_ptr = LoadOrTrain(flags, ds);
  if (!model_ptr) return 1;
  core::ChainsFormerModel& model = *model_ptr;
  const auto ex = model.Explain({entity, attribute});
  std::printf("%s(%s) = %.3f\n",
              ds.graph.AttributeName(attribute).c_str(),
              ds.graph.EntityName(entity).c_str(), ex.prediction);
  if (!ex.has_evidence) {
    std::printf("no reasoning chains found; fell back to the training mean\n");
    return 0;
  }
  std::printf("%zu chains retrieved, %zu kept after filtering\n", ex.toc_size,
              ex.filtered_size);
  for (const auto& [chain, w] : ex.weighted_chains) {
    std::printf("  %-50s via %-16s evidence=%10.2f  omega=%.3f\n",
                chain.PatternString(ds.graph).c_str(),
                ds.graph.EntityName(chain.source_entity).c_str(),
                chain.source_value, w);
  }
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.positional().empty()) return Usage();
  const std::string& command = flags.positional()[0];
  // Observability flags are common to every subcommand. Tracing must be
  // switched on before any pipeline work runs.
  const std::string metrics_json = flags.GetString("metrics-json");
  const std::string trace_json = flags.GetString("trace-json");
  const bool print_stats = flags.GetBool("stats", false);
  // --eval-threads / --no-batched-encoder are only consumed by the model
  // subcommands; touch them here so the unused-flag warning stays quiet for
  // generate/analyze.
  (void)flags.GetInt("eval-threads", 2);
  (void)flags.GetBool("no-batched-encoder", false);
  // Activate the tape sanitizer before any tensor work runs; the model
  // constructor re-applies the same level from the parsed config.
  tensor::SetCheckMode(tensor::CheckModeFromString(flags.GetString(
      "check-mode", tensor::CheckModeName(tensor::CheckModeFromEnv()))));
  if (!trace_json.empty()) trace::SetEnabled(true);
  int rc;
  if (command == "generate") {
    rc = RunGenerate(flags);
  } else if (command == "analyze") {
    rc = RunAnalyze(flags);
  } else if (command == "train") {
    rc = RunTrain(flags);
  } else if (command == "eval") {
    rc = RunEval(flags);
  } else if (command == "explain") {
    rc = RunExplain(flags);
  } else {
    return Usage();
  }
  if (!metrics_json.empty() || print_stats) {
    const metrics::MetricsSnapshot snap =
        metrics::MetricsRegistry::Global().Snapshot();
    if (!metrics_json.empty() && !metrics::WriteJsonFile(metrics_json, snap)) {
      rc = rc == 0 ? 1 : rc;
    }
    if (print_stats) std::printf("%s", metrics::SummaryTable(snap).c_str());
  }
  if (!trace_json.empty() && !trace::WriteChromeTrace(trace_json)) {
    rc = rc == 0 ? 1 : rc;
  }
  for (const auto& key : flags.UnreadKeys()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", key.c_str());
  }
  return rc;
}

}  // namespace
}  // namespace chainsformer

int main(int argc, char** argv) { return chainsformer::Main(argc, argv); }
