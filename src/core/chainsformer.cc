#include "core/chainsformer.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "tensor/checks.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "util/logging.h"
#include "util/metric_names.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace chainsformer {
namespace core {

namespace ops = chainsformer::tensor;
using tensor::Tensor;

namespace {

uint64_t QueryKey(const Query& q) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(q.entity)) << 32) |
         static_cast<uint32_t>(q.attribute);
}

/// The five instrumented pipeline stages, in execution order. Each has a
/// "pipeline.<stage>.micros" counter accumulated by the stage itself.
constexpr const char* kPipelineStages[] = {"retrieval", "filter", "encode",
                                           "project", "aggregate"};

/// Sum of all five per-stage micros counters in `snap`.
int64_t TotalStageMicros(const metrics::MetricsSnapshot& snap) {
  int64_t total = 0;
  for (const char* stage : kPipelineStages) {
    total += snap.CounterValue(std::string("pipeline.") + stage + ".micros");
  }
  return total;
}

}  // namespace

ChainsFormerModel::ChainsFormerModel(const kg::Dataset& dataset,
                                     const ChainsFormerConfig& config)
    : dataset_(dataset),
      config_(config),
      train_stats_(kg::ComputeAttributeStats(dataset.split.train,
                                             dataset.graph.num_attributes())),
      train_index_(dataset.split.train, dataset.graph.num_entities()),
      rng_(config.seed) {
  tensor::kernels::SetKernelThreads(config.kernel_threads);
  tensor::SetCheckMode(config.check_mode);
  retrieval_ = std::make_unique<QueryRetrieval>(dataset.graph, train_index_,
                                                config.max_hops, config.num_walks,
                                                config.retrieval_strategy);
  filter_ = std::make_unique<HyperbolicFilter>(dataset.graph.num_relation_ids(),
                                               dataset.graph.num_attributes(),
                                               config);
  Rng model_rng(config.seed ^ 0xC0FFEEull);
  encoder_ = std::make_unique<ChainEncoder>(dataset.graph.num_relation_ids(),
                                            dataset.graph.num_attributes(),
                                            config, model_rng);
  reasoner_ = std::make_unique<NumericalReasoner>(config, model_rng);
  std::vector<Tensor> params = encoder_->Parameters();
  auto rp = reasoner_->Parameters();
  params.insert(params.end(), rp.begin(), rp.end());
  optimizer_ = std::make_unique<tensor::optim::Adam>(std::move(params),
                                                     config.learning_rate);
}

int64_t ChainsFormerModel::NumParameters() const {
  return encoder_->NumParameters() + reasoner_->NumParameters() +
         filter_->NumParameters();
}

double ChainsFormerModel::FallbackNormalized(kg::AttributeId a) const {
  const auto& s = train_stats_[static_cast<size_t>(a)];
  return s.count > 0 ? s.Normalize(s.mean) : 0.5;
}

double ChainsFormerModel::NormalizedTarget(const kg::NumericalTriple& t) const {
  return train_stats_[static_cast<size_t>(t.attribute)].Normalize(t.value);
}

const TreeOfChains& ChainsFormerModel::GetChains(const Query& query) {
  const uint64_t key = QueryKey(query);
  if (!config_.reretrieve_each_epoch) {
    auto it = chain_cache_.find(key);
    if (it != chain_cache_.end()) return it->second;
  }
  // Per-query deterministic stream so caching vs re-retrieval only changes
  // sampling freshness, not reproducibility.
  Rng walk_rng(config_.seed ^ (key * 0x9E3779B97F4A7C15ull) ^
               (config_.reretrieve_each_epoch ? rng_.Next() : 0));
  TreeOfChains toc = config_.same_attribute_only
                         ? retrieval_->RetrieveSameAttribute(query, walk_rng)
                         : retrieval_->Retrieve(query, walk_rng);
  TreeOfChains filtered = filter_->FilterTopK(toc, config_.top_k, walk_rng);
  auto [it, inserted] = chain_cache_.insert_or_assign(key, std::move(filtered));
  return it->second;
}

ChainsFormerModel::ForwardState ChainsFormerModel::Forward(const Query& query,
                                                           bool keep_chains) {
  // Borrow the cached ToC; it is only copied when chain-quality pruning
  // actually rewrites it or the caller asked to keep the chains.
  const TreeOfChains& cached = GetChains(query);
  if (config_.use_chain_quality && quality_.num_patterns() > 0) {
    TreeOfChains pruned = quality_.PruneLowQuality(
        cached, config_.chain_quality_max_error, /*min_keep=*/4);
    ForwardState state = ForwardOnChains(pruned);
    if (keep_chains && state.valid) state.used_chains = std::move(pruned);
    return state;
  }
  ForwardState state = ForwardOnChains(cached);
  if (keep_chains && state.valid) state.used_chains = cached;
  return state;
}

ChainsFormerModel::ForwardState ChainsFormerModel::ForwardOnChains(
    const TreeOfChains& chains) const {
  ForwardState state;
  if (chains.empty()) return state;

  std::vector<double> values;
  std::vector<int64_t> lengths;
  values.reserve(chains.size());
  lengths.reserve(chains.size());
  for (const RAChain& c : chains) {
    values.push_back(
        train_stats_[static_cast<size_t>(c.source_attribute)].Normalize(
            c.source_value));
    lengths.push_back(c.length());
  }
  NumericalReasoner::Output out;
  if (config_.batched_encoder) {
    // One masked Transformer pass over the whole ToC: the tensor stack sees
    // [k·max_len, d] GEMMs instead of k tiny per-chain products.
    out = reasoner_->Forward(encoder_->EncodeBatch(chains), values, lengths);
  } else {
    // Reference path: encode each chain separately.
    std::vector<Tensor> reps;
    reps.reserve(chains.size());
    for (const RAChain& c : chains) reps.push_back(encoder_->Encode(c));
    out = reasoner_->Forward(reps, values, lengths);
  }
  state.prediction = out.prediction;
  state.weights = out.weights;
  state.chain_predictions = out.chain_predictions;
  state.valid = true;
  return state;
}

TrainReport ChainsFormerModel::Train() {
  static auto& metric_reg = metrics::MetricsRegistry::Global();
  static auto* epochs_counter = metric_reg.GetCounter(metrics::names::kTrainEpochs);
  static auto* queries_counter = metric_reg.GetCounter(metrics::names::kTrainQueries);
  static auto* skipped_counter = metric_reg.GetCounter(metrics::names::kTrainQueriesSkipped);
  static auto* last_loss_gauge = metric_reg.GetGauge(metrics::names::kTrainLastLoss);
  static auto* last_valid_gauge = metric_reg.GetGauge(metrics::names::kTrainLastValidNmae);
  static auto* epoch_millis_hist = metric_reg.GetHistogram(metrics::names::kTrainEpochMillis);
  CF_TRACE_SCOPE("train");

  TrainReport report;

  // Stage 1: Hyperbolic Filter pre-training (frozen afterwards; its top-k
  // selection is non-differentiable).
  Rng filter_rng(config_.seed ^ 0xF117E12ull);
  const auto pstats = filter_->Pretrain(*retrieval_, dataset_.split.train,
                                        train_stats_, filter_rng);
  report.filter_pretrain_loss = pstats.final_loss;
  report.filter_pretrain_pairs = pstats.pairs;
  encoder_->InitializeFromFilter(*filter_);
  chain_cache_.clear();  // scores changed; re-filter

  // Stage 2: regression training (Algorithm 1).
  std::vector<kg::NumericalTriple> train = dataset_.split.train;
  double best_valid = std::numeric_limits<double>::infinity();
  int bad_epochs = 0;

  // Early stopping restores the best-validation weights at the end.
  std::vector<Tensor> live_params = encoder_->Parameters();
  {
    auto rp = reasoner_->Parameters();
    live_params.insert(live_params.end(), rp.begin(), rp.end());
  }
  std::vector<std::vector<float>> best_snapshot;
  auto take_snapshot = [&]() {
    best_snapshot.clear();
    best_snapshot.reserve(live_params.size());
    for (const Tensor& p : live_params) best_snapshot.push_back(p.data());
  };
  auto restore_snapshot = [&]() {
    if (best_snapshot.empty()) return;
    for (size_t i = 0; i < live_params.size(); ++i) {
      live_params[i].data() = best_snapshot[i];
    }
  };

  // Validation subsample for early stopping.
  std::vector<kg::NumericalTriple> valid = dataset_.split.valid;
  if (valid.size() > 200) {
    Rng vrng(config_.seed ^ 0x7A11Dull);
    vrng.Shuffle(valid);
    valid.resize(200);
  }
  // Per-epoch validation runs through EvaluateParallel (bit-identical to
  // Evaluate) when the config asks for more than one eval thread.
  std::unique_ptr<ThreadPool> valid_pool;
  if (config_.eval_threads != 1) {
    valid_pool = std::make_unique<ThreadPool>(
        config_.eval_threads > 1 ? static_cast<size_t>(config_.eval_threads) : 0);
  }

  // Per-attribute pools for balanced sampling.
  std::vector<std::vector<kg::NumericalTriple>> by_attr(
      static_cast<size_t>(dataset_.graph.num_attributes()));
  for (const auto& t : train) {
    by_attr[static_cast<size_t>(t.attribute)].push_back(t);
  }
  std::vector<size_t> nonempty_attrs;
  for (size_t a = 0; a < by_attr.size(); ++a) {
    if (!by_attr[a].empty()) nonempty_attrs.push_back(a);
  }

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    CF_TRACE_SCOPE("train.epoch");
    // Stage-time bookkeeping: the per-stage micros counters are cumulative,
    // so an epoch's share is the delta across the epoch.
    const metrics::MetricsSnapshot epoch_begin = metric_reg.Snapshot();
    Stopwatch epoch_sw;
    rng_.Shuffle(train);
    const size_t budget =
        config_.max_train_queries > 0
            ? std::min<size_t>(train.size(),
                               static_cast<size_t>(config_.max_train_queries))
            : train.size();
    if (config_.balanced_attribute_sampling && !nonempty_attrs.empty()) {
      // Round-robin over attribute classes, random triple within a class.
      for (size_t i = 0; i < budget; ++i) {
        const auto& pool = by_attr[nonempty_attrs[i % nonempty_attrs.size()]];
        train[i] = pool[rng_.UniformInt(static_cast<uint64_t>(pool.size()))];
      }
    }
    double epoch_loss = 0.0;
    int64_t loss_count = 0;
    std::vector<Tensor> batch_losses;
    auto flush_batch = [&]() {
      if (batch_losses.empty()) return;
      Tensor loss = batch_losses.size() == 1
                        ? batch_losses[0]
                        : ops::Mean(ops::Concat(batch_losses, 0));
      optimizer_->ZeroGrad();
      loss.Backward();
      if (tensor::GetCheckMode() == tensor::CheckMode::kFull) {
        tensor::DebugCheckRootsReceivedGrad(live_params);
      }
      // live_params is the same encoder+reasoner parameter list, assembled
      // once before the epoch loop; no need to rebuild it every step.
      tensor::optim::ClipGradNorm(live_params, config_.grad_clip);
      optimizer_->Step();
      batch_losses.clear();
    };

    for (size_t i = 0; i < budget; ++i) {
      const auto& t = train[i];
      ForwardState state =
          Forward({t.entity, t.attribute}, /*keep_chains=*/config_.use_chain_quality);
      if (!state.valid) {
        skipped_counter->Increment();
        continue;
      }
      queries_counter->Increment();
      Tensor target = Tensor::Scalar(static_cast<float>(NormalizedTarget(t)));
      Tensor loss;
      switch (config_.loss) {
        case LossType::kL1:
          loss = ops::L1Loss(state.prediction, target);
          break;
        case LossType::kMse:
          loss = ops::MseLoss(state.prediction, target);
          break;
        case LossType::kSmoothL1:
          loss = ops::SmoothL1Loss(state.prediction, target, 0.1f);
          break;
      }
      epoch_loss += loss.item();
      ++loss_count;
      if (config_.use_chain_quality) {
        // Feed the quality evaluator with per-chain standalone errors.
        const double target_norm = NormalizedTarget(t);
        for (size_t ci = 0; ci < state.used_chains.size(); ++ci) {
          const double chain_pred =
              state.chain_predictions.at(static_cast<int64_t>(ci));
          quality_.Record(state.used_chains[ci],
                          std::fabs(chain_pred - target_norm));
        }
      }
      batch_losses.push_back(loss);
      if (static_cast<int>(batch_losses.size()) >= config_.batch_size) flush_batch();
    }
    flush_batch();
    report.train_losses.push_back(loss_count > 0 ? epoch_loss / loss_count : 0.0);

    // Early stopping on normalized validation MAE.
    const metrics::MetricsSnapshot valid_begin = metric_reg.Snapshot();
    eval::EvalResult vres;
    {
      CF_TRACE_SCOPE("train.valid_eval");
      vres = valid_pool ? EvaluateParallel(valid, *valid_pool) : Evaluate(valid);
    }
    report.valid_maes.push_back(vres.normalized_mae);
    ++report.epochs_run;
    epochs_counter->Increment();
    last_loss_gauge->Set(report.train_losses.back());
    last_valid_gauge->Set(vres.normalized_mae);
    const double epoch_millis = epoch_sw.ElapsedMicros() / 1000.0;
    epoch_millis_hist->Observe(epoch_millis);
    {
      const metrics::MetricsSnapshot epoch_end = metric_reg.Snapshot();
      std::map<std::string, double> stage_millis;
      for (const char* stage : kPipelineStages) {
        const std::string key = std::string("pipeline.") + stage + ".micros";
        stage_millis[stage] =
            (epoch_end.CounterValue(key) - epoch_begin.CounterValue(key)) /
            1000.0;
      }
      stage_millis["valid_eval"] =
          (TotalStageMicros(epoch_end) - TotalStageMicros(valid_begin)) / 1000.0;
      stage_millis["valid_eval_threads"] =
          valid_pool ? static_cast<double>(valid_pool->num_threads()) : 1.0;
      stage_millis["total"] = epoch_millis;
      report.epoch_stage_millis.push_back(std::move(stage_millis));
    }
    if (config_.verbose) {
      CF_LOG(Info) << dataset_.name << " epoch " << epoch << ": train_loss="
                   << report.train_losses.back()
                   << " valid_nmae=" << vres.normalized_mae;
    }
    if (vres.normalized_mae < best_valid - 1e-5) {
      best_valid = vres.normalized_mae;
      bad_epochs = 0;
      take_snapshot();
    } else if (++bad_epochs >= config_.patience) {
      break;
    }
  }
  restore_snapshot();
  report.best_valid_mae = best_valid;
  trained_ = true;
  return report;
}

namespace {

std::vector<Tensor> AllParameters(const HyperbolicFilter& filter,
                                  const ChainEncoder& encoder,
                                  const NumericalReasoner& reasoner) {
  std::vector<Tensor> params = filter.Parameters();
  auto ep = encoder.Parameters();
  auto rp = reasoner.Parameters();
  params.insert(params.end(), ep.begin(), ep.end());
  params.insert(params.end(), rp.begin(), rp.end());
  return params;
}

}  // namespace

bool ChainsFormerModel::SaveCheckpoint(const std::string& path) const {
  return tensor::SaveTensors(path, AllParameters(*filter_, *encoder_, *reasoner_));
}

bool ChainsFormerModel::SaveCheckpoint(std::ostream& out) const {
  return tensor::SaveTensorsToStream(out,
                                     AllParameters(*filter_, *encoder_, *reasoner_));
}

bool ChainsFormerModel::LoadCheckpoint(const std::string& path) {
  std::vector<Tensor> params = AllParameters(*filter_, *encoder_, *reasoner_);
  if (!tensor::LoadTensors(path, params)) return false;
  filter_->SnapshotEmbeddings();
  chain_cache_.clear();
  trained_ = true;
  return true;
}

bool ChainsFormerModel::LoadCheckpoint(std::istream& in) {
  std::vector<Tensor> params = AllParameters(*filter_, *encoder_, *reasoner_);
  if (!tensor::LoadTensorsFromStream(in, params)) return false;
  filter_->SnapshotEmbeddings();
  chain_cache_.clear();
  trained_ = true;
  return true;
}

void ChainsFormerModel::OverrideTrainStats(std::vector<kg::AttributeStats> stats) {
  CF_CHECK(stats.size() == train_stats_.size())
      << "OverrideTrainStats: got " << stats.size() << " attributes, model has "
      << train_stats_.size();
  train_stats_ = std::move(stats);
}

TreeOfChains ChainsFormerModel::RetrieveChains(const Query& query) const {
  CF_TRACE_SCOPE("serve.retrieve");
  // Mirror GetChains' deterministic (non-reretrieve) branch exactly so a
  // served prediction is bitwise-reproducible against Predict().
  Rng walk_rng(config_.seed ^ (QueryKey(query) * 0x9E3779B97F4A7C15ull));
  TreeOfChains toc = config_.same_attribute_only
                         ? retrieval_->RetrieveSameAttribute(query, walk_rng)
                         : retrieval_->Retrieve(query, walk_rng);
  TreeOfChains filtered = filter_->FilterTopK(toc, config_.top_k, walk_rng);
  if (config_.use_chain_quality && quality_.num_patterns() > 0) {
    return quality_.PruneLowQuality(filtered, config_.chain_quality_max_error,
                                    /*min_keep=*/4);
  }
  return filtered;
}

std::vector<BatchPrediction> ChainsFormerModel::PredictOnChainSets(
    const std::vector<Query>& queries,
    const std::vector<const TreeOfChains*>& chain_sets) const {
  CF_CHECK(queries.size() == chain_sets.size())
      << "PredictOnChainSets: " << queries.size() << " queries vs "
      << chain_sets.size() << " chain sets";
  CF_TRACE_SCOPE("serve.predict_batch");
  tensor::NoGradGuard no_grad;
  std::vector<BatchPrediction> out(queries.size());

  // Queries with evidence participate in the shared encoder pass; the rest
  // resolve immediately to the train-mean fallback.
  std::vector<size_t> live;
  live.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    CF_CHECK(chain_sets[i] != nullptr) << "PredictOnChainSets: null chain set " << i;
    if (chain_sets[i]->empty()) {
      const auto& s = train_stats_[static_cast<size_t>(queries[i].attribute)];
      out[i].value = s.Denormalize(std::clamp(
          FallbackNormalized(queries[i].attribute), -0.1, 1.1));
      out[i].has_evidence = false;
    } else {
      live.push_back(i);
    }
  }
  if (live.empty()) return out;

  auto finish = [&](size_t i, const NumericalReasoner::Output& r) {
    const auto& s = train_stats_[static_cast<size_t>(queries[i].attribute)];
    const double normalized =
        std::clamp(static_cast<double>(r.prediction.item()), -0.1, 1.1);
    out[i].value = s.Denormalize(normalized);
    out[i].has_evidence = true;
  };

  auto chain_inputs = [&](const TreeOfChains& chains, std::vector<double>& values,
                          std::vector<int64_t>& lengths) {
    values.reserve(chains.size());
    lengths.reserve(chains.size());
    for (const RAChain& c : chains) {
      values.push_back(
          train_stats_[static_cast<size_t>(c.source_attribute)].Normalize(
              c.source_value));
      lengths.push_back(c.length());
    }
  };

  if (config_.batched_encoder) {
    // Cross-request micro-batch: concatenate every live query's chains into
    // ONE masked EncodeBatch pass. DESIGN §6c guarantees each output row is
    // bit-identical to encoding that chain alone, so slicing the rows back
    // out per query reproduces Predict() exactly while the tensor stack sees
    // a single large GEMM workload instead of one dispatch per request.
    TreeOfChains merged;
    size_t total = 0;
    for (size_t i : live) total += chain_sets[i]->size();
    merged.reserve(total);
    for (size_t i : live) {
      merged.insert(merged.end(), chain_sets[i]->begin(), chain_sets[i]->end());
    }
    const Tensor reps = encoder_->EncodeBatch(merged);
    int64_t row = 0;
    for (size_t i : live) {
      const TreeOfChains& chains = *chain_sets[i];
      const int64_t k = static_cast<int64_t>(chains.size());
      std::vector<double> values;
      std::vector<int64_t> lengths;
      chain_inputs(chains, values, lengths);
      finish(i, reasoner_->Forward(ops::SliceRows(reps, row, row + k), values,
                                   lengths));
      row += k;
    }
  } else {
    // Reference path: per-chain encoding, no cross-request batching.
    for (size_t i : live) {
      const TreeOfChains& chains = *chain_sets[i];
      std::vector<Tensor> reps;
      reps.reserve(chains.size());
      for (const RAChain& c : chains) reps.push_back(encoder_->Encode(c));
      std::vector<double> values;
      std::vector<int64_t> lengths;
      chain_inputs(chains, values, lengths);
      finish(i, reasoner_->Forward(reps, values, lengths));
    }
  }
  return out;
}

eval::EvalResult ChainsFormerModel::EvaluateParallel(
    const std::vector<kg::NumericalTriple>& queries, ThreadPool& pool) {
  static auto* eval_queries =
      metrics::MetricsRegistry::Global().GetCounter(metrics::names::kEvalQueries);
  static auto* eval_fallbacks =
      metrics::MetricsRegistry::Global().GetCounter(metrics::names::kEvalFallbacks);
  CF_TRACE_SCOPE("evaluate_parallel");
  size_t limit = queries.size();
  if (config_.max_eval_queries > 0) {
    limit = std::min<size_t>(limit, static_cast<size_t>(config_.max_eval_queries));
  }
  // Phase 1 (serial): retrieval + filtering; the chain cache is mutable.
  std::vector<TreeOfChains> chain_sets(limit);
  for (size_t i = 0; i < limit; ++i) {
    const Query q{queries[i].entity, queries[i].attribute};
    TreeOfChains chains = GetChains(q);
    if (config_.use_chain_quality && quality_.num_patterns() > 0) {
      chains = quality_.PruneLowQuality(chains, config_.chain_quality_max_error, 4);
    }
    chain_sets[i] = std::move(chains);
  }
  // Phase 2 (parallel): per-query forwards over frozen parameters.
  std::vector<double> predictions(limit, 0.0);
  pool.ParallelFor(limit, [&](size_t i) {
    CF_TRACE_SCOPE("eval.query");
    tensor::NoGradGuard no_grad;  // grad mode is thread-local
    const auto& s = train_stats_[static_cast<size_t>(queries[i].attribute)];
    ForwardState state = ForwardOnChains(chain_sets[i]);
    eval_queries->Increment();
    if (!state.valid) eval_fallbacks->Increment();
    const double normalized =
        state.valid ? std::clamp(static_cast<double>(state.prediction.item()),
                                 -0.1, 1.1)
                    : FallbackNormalized(queries[i].attribute);
    predictions[i] = s.Denormalize(normalized);
  });
  eval::MetricsAccumulator acc(train_stats_);
  for (size_t i = 0; i < limit; ++i) {
    acc.Add(queries[i].attribute, predictions[i], queries[i].value);
  }
  return acc.Finalize();
}

eval::EvalResult ChainsFormerModel::Evaluate(
    const std::vector<kg::NumericalTriple>& queries) {
  tensor::NoGradGuard no_grad;
  eval::MetricsAccumulator acc(train_stats_);
  size_t limit = queries.size();
  if (config_.max_eval_queries > 0) {
    limit = std::min<size_t>(limit, static_cast<size_t>(config_.max_eval_queries));
  }
  for (size_t i = 0; i < limit; ++i) {
    const auto& t = queries[i];
    acc.Add(t.attribute, Predict({t.entity, t.attribute}), t.value);
  }
  return acc.Finalize();
}

double ChainsFormerModel::Predict(const Query& query) {
  static auto* eval_queries =
      metrics::MetricsRegistry::Global().GetCounter(metrics::names::kEvalQueries);
  static auto* eval_fallbacks =
      metrics::MetricsRegistry::Global().GetCounter(metrics::names::kEvalFallbacks);
  CF_TRACE_SCOPE("predict");
  tensor::NoGradGuard no_grad;
  ForwardState state = Forward(query);
  eval_queries->Increment();
  if (!state.valid) eval_fallbacks->Increment();
  const auto& s = train_stats_[static_cast<size_t>(query.attribute)];
  double normalized = state.valid
                          ? static_cast<double>(state.prediction.item())
                          : FallbackNormalized(query.attribute);
  // Predictions are kept near the observed training range; mildly widened
  // so test values just outside [min, max] stay reachable.
  normalized = std::clamp(normalized, -0.1, 1.1);
  return s.Denormalize(normalized);
}

Explanation ChainsFormerModel::Explain(const Query& query) {
  CF_TRACE_SCOPE("explain");
  tensor::NoGradGuard no_grad;
  Explanation ex;
  // Measure ToC size before filtering for the trace.
  Rng probe_rng(config_.seed ^ (QueryKey(query) * 0x9E3779B97F4A7C15ull));
  TreeOfChains raw = config_.same_attribute_only
                         ? retrieval_->RetrieveSameAttribute(query, probe_rng)
                         : retrieval_->Retrieve(query, probe_rng);
  ex.toc_size = raw.size();

  ForwardState state = Forward(query, /*keep_chains=*/true);
  const TreeOfChains& chains = state.used_chains;
  ex.filtered_size = chains.size();
  ex.has_evidence = state.valid;
  const auto& s = train_stats_[static_cast<size_t>(query.attribute)];
  const double normalized =
      state.valid ? std::clamp(static_cast<double>(state.prediction.item()), -0.1, 1.1)
                  : FallbackNormalized(query.attribute);
  ex.prediction = s.Denormalize(normalized);
  if (state.valid) {
    for (size_t i = 0; i < chains.size(); ++i) {
      ex.weighted_chains.emplace_back(
          chains[i], static_cast<double>(state.weights.at(static_cast<int64_t>(i))));
    }
    std::sort(ex.weighted_chains.begin(), ex.weighted_chains.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
  }
  return ex;
}

std::vector<std::pair<std::string, double>> ChainsFormerModel::TopPatterns(
    kg::AttributeId attribute, int num_patterns, int sample_queries) {
  std::map<std::string, double> pattern_weight;
  Rng sample_rng(config_.seed ^ 0x7A77E12ull);
  std::vector<kg::NumericalTriple> candidates;
  for (const auto& t : dataset_.split.test) {
    if (t.attribute == attribute) candidates.push_back(t);
  }
  if (candidates.empty()) {
    for (const auto& t : dataset_.split.train) {
      if (t.attribute == attribute) candidates.push_back(t);
    }
  }
  sample_rng.Shuffle(candidates);
  const size_t n = std::min<size_t>(candidates.size(),
                                    static_cast<size_t>(sample_queries));
  for (size_t i = 0; i < n; ++i) {
    Explanation ex = Explain({candidates[i].entity, candidates[i].attribute});
    for (const auto& [chain, w] : ex.weighted_chains) {
      pattern_weight[chain.PatternString(dataset_.graph)] += w;
    }
  }
  std::vector<std::pair<std::string, double>> sorted(pattern_weight.begin(),
                                                     pattern_weight.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (static_cast<int>(sorted.size()) > num_patterns) {
    sorted.resize(static_cast<size_t>(num_patterns));
  }
  return sorted;
}

}  // namespace core
}  // namespace chainsformer
