#include "graph/quant.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "core/chain_encoder.h"
#include "core/chainsformer.h"
#include "core/numerical_reasoner.h"
#include "graph/executor.h"
#include "graph/plan.h"
#include "tensor/kernels.h"
#include "tensor/nn.h"
#include "util/logging.h"

namespace chainsformer {
namespace graph {
namespace {

using tensor::nn::Linear;
using tensor::nn::Mlp;
using tensor::nn::TransformerEncoderLayer;

void WalkMlp(const std::string& prefix, const Mlp& mlp,
             std::vector<std::pair<std::string, const Linear*>>* out) {
  const auto& layers = mlp.layers();
  for (size_t i = 0; i < layers.size(); ++i) {
    out->emplace_back(prefix + "." + std::to_string(i), layers[i].get());
  }
}

void WalkEncoderLayer(const std::string& prefix,
                      const TransformerEncoderLayer& layer,
                      std::vector<std::pair<std::string, const Linear*>>* out) {
  const auto& mha = layer.attention();
  out->emplace_back(prefix + ".q_proj", &mha.q_proj());
  out->emplace_back(prefix + ".k_proj", &mha.k_proj());
  out->emplace_back(prefix + ".v_proj", &mha.v_proj());
  out->emplace_back(prefix + ".out_proj", &mha.out_proj());
  out->emplace_back(prefix + ".ff1", &layer.ff1());
  out->emplace_back(prefix + ".ff2", &layer.ff2());
}

}  // namespace

const char* PrecisionName(Precision p) {
  switch (p) {
    case Precision::kFp64:
      return "fp64";
    case Precision::kInt8:
      return "int8";
  }
  return "fp64";
}

bool ParsePrecision(const std::string& text, Precision* out) {
  CF_CHECK(out != nullptr);
  if (text == "fp64" || text == "fp32") {
    *out = Precision::kFp64;
    return true;
  }
  if (text == "int8") {
    *out = Precision::kInt8;
    return true;
  }
  return false;
}

std::vector<std::pair<std::string, const Linear*>> QuantizableLinears(
    const core::ChainsFormerModel& model) {
  std::vector<std::pair<std::string, const Linear*>> out;
  const core::ChainEncoder& enc = model.encoder();
  CF_CHECK(enc.encoder_type() == core::EncoderType::kTransformer)
      << "quantization requires the Transformer chain encoder";
  const auto& layers = enc.transformer().layers();
  for (size_t i = 0; i < layers.size(); ++i) {
    WalkEncoderLayer("encoder.layer" + std::to_string(i), *layers[i], &out);
  }
  if (enc.use_numerical_aware()) {
    WalkMlp("encoder.mlp_alpha", enc.mlp_alpha(), &out);
    WalkMlp("encoder.mlp_beta", enc.mlp_beta(), &out);
  }
  const core::NumericalReasoner& reasoner = model.reasoner();
  WalkMlp("reasoner.projection_mlp", reasoner.projection_mlp(), &out);
  if (reasoner.use_chain_weighting()) {
    const auto& tf = reasoner.treeformer().layers();
    for (size_t i = 0; i < tf.size(); ++i) {
      WalkEncoderLayer("reasoner.treeformer.layer" + std::to_string(i),
                       *tf[i], &out);
    }
    WalkMlp("reasoner.weight_mlp", reasoner.weight_mlp(), &out);
  }
  return out;
}

QuantStore BuildQuantStore(const core::ChainsFormerModel& model) {
  QuantStore store;
  for (const auto& [name, lin] : QuantizableLinears(model)) {
    QuantizedLinear q;
    q.name = name;
    q.in = lin->in_features();
    q.out = lin->out_features();
    q.codes.resize(static_cast<size_t>(q.in * q.out));
    q.scale.resize(static_cast<size_t>(q.out));
    tensor::kernels::QuantizeWeightsInt8(q.in, q.out,
                                         lin->weight().data().data(),
                                         q.codes.data(), q.scale.data());
    store.linears.push_back(std::move(q));
  }
  return store;
}

const tensor::kernels::Int8Pack& Int8PackSet::For(const Linear& lin) const {
  for (const auto& [linear, pack] : packs) {
    if (linear == &lin) return pack;
  }
  CF_LOG(Fatal) << "Linear missing from the int8 pack set";
  return packs.front().second;
}

std::shared_ptr<const Int8PackSet> PackQuantStore(
    const core::ChainsFormerModel& model, const QuantStore& store) {
  const auto linears = QuantizableLinears(model);
  CF_CHECK_EQ(linears.size(), store.linears.size())
      << "quantization store does not match the model's Linear set";
  auto set = std::make_shared<Int8PackSet>();
  set->packs.reserve(linears.size());
  for (size_t i = 0; i < linears.size(); ++i) {
    const QuantizedLinear& q = store.linears[i];
    const Linear& lin = *linears[i].second;
    CF_CHECK(q.name == linears[i].first)
        << "quantization store row " << i << " is " << q.name
        << ", model walk expects " << linears[i].first;
    CF_CHECK_EQ(q.in, lin.in_features());
    CF_CHECK_EQ(q.out, lin.out_features());
    set->packs.emplace_back(&lin, tensor::kernels::PackInt8Weights(
                                      q.in, q.out, q.codes.data(),
                                      q.scale.data()));
  }
  return set;
}

void CalibrateQuantStore(const core::ChainsFormerModel& model,
                         const std::vector<core::Query>& queries,
                         QuantStore* store) {
  CF_CHECK(store != nullptr);
  // The two programs the runtime serves from, at each query's exact
  // geometry: one encoder plan per (k, max_tokens) and one reasoner plan
  // per k, all run by one executor pair. Calibration runs offline, so there
  // is no need for the serving runtime's bucketing or pattern table.
  const std::shared_ptr<const Int8PackSet> int8 = PackQuantStore(model, *store);
  std::map<std::pair<int64_t, int64_t>, Plan> encoders;
  std::map<int64_t, Plan> reasoners;
  ExecutorPair executors;
  double sum_abs = 0.0;
  int64_t n = 0;
  for (const core::Query& query : queries) {
    const core::TreeOfChains chains = model.RetrieveChains(query);
    if (chains.empty()) continue;
    const std::vector<core::BatchPrediction> eager =
        model.PredictOnChainSets({query}, {&chains});
    const int64_t k = static_cast<int64_t>(chains.size());
    const int64_t len = MaxTokens(chains);
    Plan& encoder = encoders[{k, len}];
    if (encoder.steps.empty()) {
      encoder = CompileEncoderPlan(model, k, len, int8);
    }
    Plan& reasoner = reasoners[k];
    if (reasoner.steps.empty()) reasoner = CompileReasonerPlan(model, k, int8);
    const float normalized =
        RunNormalized(executors, encoder, reasoner, chains);
    const double compiled_norm =
        std::clamp(static_cast<double>(normalized), -0.1, 1.1);
    CF_CHECK_LT(static_cast<size_t>(query.attribute),
                model.train_stats().size());
    const double eager_norm =
        model.train_stats()[static_cast<size_t>(query.attribute)].Normalize(
            eager[0].value);
    sum_abs += std::abs(compiled_norm - eager_norm);
    ++n;
  }
  store->mae_delta = n > 0 ? sum_abs / static_cast<double>(n) : 0.0;
  store->calibration_queries = n;
}

}  // namespace graph
}  // namespace chainsformer
