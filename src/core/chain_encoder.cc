#include "core/chain_encoder.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/numeric_encoding.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/metric_names.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace chainsformer {
namespace core {

namespace ops = chainsformer::tensor;
using tensor::Tensor;

std::vector<float> EncodeFloat64Bits(double value) {
  std::vector<float> out(64);
  EncodeFloat64BitsInto(value, out.data());
  return out;
}

std::vector<float> EncodeLogFeatures(double value) {
  std::vector<float> out(64);
  EncodeLogFeaturesInto(value, out.data());
  return out;
}

ChainEncoder::ChainEncoder(int64_t num_relation_ids, int64_t num_attributes,
                           const ChainsFormerConfig& config, Rng& rng)
    : num_relation_ids_(num_relation_ids),
      num_attributes_(num_attributes),
      dim_(config.hidden_dim),
      encoder_type_(config.encoder_type),
      use_numerical_aware_(config.use_numerical_aware),
      numeric_encoding_(config.numeric_encoding) {
  const int64_t vocab = num_relation_ids + num_attributes + 1;
  token_emb_ = std::make_unique<tensor::nn::Embedding>(vocab, dim_, rng, 0.1f);
  RegisterModule(token_emb_.get());
  // Longest sequence: a_p + max_hops relations + a_q + end.
  position_emb_ = std::make_unique<tensor::nn::Embedding>(
      config.max_hops + 3, dim_, rng, 0.05f);
  RegisterModule(position_emb_.get());
  if (encoder_type_ == EncoderType::kTransformer) {
    transformer_ = std::make_unique<tensor::nn::TransformerEncoder>(
        config.encoder_layers, dim_, config.num_heads, 2 * dim_, rng);
    RegisterModule(transformer_.get());
  } else if (encoder_type_ == EncoderType::kLstm) {
    lstm_ = std::make_unique<tensor::nn::Lstm>(dim_, dim_, rng);
    RegisterModule(lstm_.get());
  }
  if (use_numerical_aware_) {
    mlp_alpha_ = std::make_unique<tensor::nn::Mlp>(
        std::vector<int64_t>{64, dim_, dim_ * dim_}, rng);
    mlp_beta_ = std::make_unique<tensor::nn::Mlp>(
        std::vector<int64_t>{64, dim_, dim_}, rng);
    RegisterModule(mlp_alpha_.get());
    RegisterModule(mlp_beta_.get());
  }
}

void ChainEncoder::InitializeFromFilter(const HyperbolicFilter& filter) {
  auto& table = token_emb_->mutable_table().data();
  const int64_t copy_dim = std::min<int64_t>(dim_, filter.dim());
  auto write_row = [&](int64_t row, const std::vector<float>& src) {
    for (int64_t j = 0; j < copy_dim; ++j) {
      table[static_cast<size_t>(row * dim_ + j)] = src[static_cast<size_t>(j)];
    }
  };
  for (int64_t r = 0; r < num_relation_ids_; ++r) {
    write_row(RelationToken(static_cast<kg::RelationId>(r)),
              filter.LogMappedRelation(static_cast<kg::RelationId>(r)));
  }
  for (int64_t a = 0; a < num_attributes_; ++a) {
    write_row(AttributeToken(static_cast<kg::AttributeId>(a)),
              filter.LogMappedAttribute(static_cast<kg::AttributeId>(a)));
  }
}

std::vector<int64_t> ChainEncoder::Tokenize(const RAChain& chain) const {
  // Eq. 11 token order: [a_p, r_l, ..., r_1, a_q, end].
  std::vector<int64_t> tokens;
  tokens.reserve(static_cast<size_t>(chain.num_tokens()));
  tokens.push_back(AttributeToken(chain.source_attribute));
  for (auto it = chain.relations.rbegin(); it != chain.relations.rend(); ++it) {
    tokens.push_back(RelationToken(*it));
  }
  tokens.push_back(AttributeToken(chain.query_attribute));
  tokens.push_back(EndToken());
  return tokens;
}

Tensor ChainEncoder::EncodeTokens(const RAChain& chain) const {
  const std::vector<int64_t> tokens = Tokenize(chain);
  Tensor seq = token_emb_->Forward(tokens);  // [seq, d]
  switch (encoder_type_) {
    case EncoderType::kTransformer: {
      // Add learned positional embeddings so the attention sees the
      // step-by-step order of the reasoning chain.
      std::vector<int64_t> positions(tokens.size());
      const int64_t max_pos = position_emb_->num_embeddings();
      for (size_t i = 0; i < tokens.size(); ++i) {
        positions[i] = std::min<int64_t>(static_cast<int64_t>(i), max_pos - 1);
      }
      seq = ops::Add(seq, position_emb_->Forward(positions));
      Tensor encoded = transformer_->Forward(seq);
      return ops::Row(encoded, static_cast<int64_t>(tokens.size()) - 1);
    }
    case EncoderType::kLstm:
      return lstm_->Forward(seq);
    case EncoderType::kMean: {
      // "w/o Chain Encoder": plain average of token embeddings.
      Tensor summed = ops::MatMul(
          Tensor::Full({1, static_cast<int64_t>(tokens.size())},
                       1.0f / static_cast<float>(tokens.size())),
          seq);
      return ops::Reshape(summed, {dim_});
    }
  }
  CF_LOG(Fatal) << "unknown encoder type";
  return Tensor();
}

Tensor ChainEncoder::Encode(const RAChain& chain) const {
  // Stage 3 of the pipeline.
  static auto& reg = metrics::MetricsRegistry::Global();
  static auto* stage_micros = reg.GetCounter(metrics::names::kPipelineEncodeMicros);
  static auto* stage_calls = reg.GetCounter(metrics::names::kPipelineEncodeCalls);
  static auto* chains_encoded = reg.GetCounter(metrics::names::kEncodeChainsEncoded);
  static auto* chain_length = reg.GetHistogram(metrics::names::kEncodeChainLength);
  CF_TRACE_SCOPE("encode");
  metrics::ScopedTimer timer(stage_micros, stage_calls);
  chains_encoded->Increment();
  chain_length->Observe(static_cast<double>(chain.relations.size()));

  Tensor e_c = EncodeTokens(chain);
  if (!use_numerical_aware_) return e_c;
  const std::vector<float> encoding =
      numeric_encoding_ == NumericEncoding::kFloat64Bits
          ? EncodeFloat64Bits(chain.source_value)
          : EncodeLogFeatures(chain.source_value);
  Tensor e_n = Tensor::FromVector({64}, encoding);
  // Eq. 15-16: value-conditioned affine transform of the chain embedding.
  // α starts near identity (residual form) so the transfer is a gentle
  // modulation at initialization.
  Tensor alpha = ops::Reshape(mlp_alpha_->Forward(e_n), {dim_, dim_});
  Tensor beta = mlp_beta_->Forward(e_n);
  Tensor rotated =
      ops::Reshape(ops::MatMul(ops::Reshape(e_c, {1, dim_}), alpha), {dim_});
  return ops::Add(ops::Add(e_c, rotated), beta);
}

Tensor ChainEncoder::AffineTransfer(const Tensor& e_c,
                                    const std::vector<double>& values) const {
  const int64_t k = e_c.size(0);
  // Both MLPs run once on the stacked [k, 64] bit-stream matrix (Eq. 14-16)
  // instead of k separate rank-1 passes; rows match the per-chain results
  // bit-for-bit (row-partitioned GEMMs).
  std::vector<float> bits;
  bits.reserve(static_cast<size_t>(k) * 64);
  for (double v : values) {
    const std::vector<float> encoding =
        numeric_encoding_ == NumericEncoding::kFloat64Bits
            ? EncodeFloat64Bits(v)
            : EncodeLogFeatures(v);
    bits.insert(bits.end(), encoding.begin(), encoding.end());
  }
  Tensor e_n = Tensor::FromVector({k, 64}, std::move(bits));
  Tensor alpha = ops::Reshape(mlp_alpha_->Forward(e_n), {k, dim_, dim_});
  Tensor beta = mlp_beta_->Forward(e_n);  // [k, d]
  Tensor rotated = ops::Reshape(
      ops::BatchMatMul(ops::Reshape(e_c, {k, 1, dim_}), alpha), {k, dim_});
  return ops::Add(ops::Add(e_c, rotated), beta);
}

Tensor ChainEncoder::EncodeBatch(const TreeOfChains& chains) const {
  const int64_t k = static_cast<int64_t>(chains.size());
  CF_CHECK_GT(k, 0);
  if (encoder_type_ != EncoderType::kTransformer) {
    // LSTM / mean ablations have no batched formulation; stack the
    // per-chain reference encodings instead.
    std::vector<Tensor> reps;
    reps.reserve(chains.size());
    for (const RAChain& c : chains) reps.push_back(Encode(c));
    return ops::Stack(reps);
  }

  static auto& reg = metrics::MetricsRegistry::Global();
  static auto* stage_micros = reg.GetCounter(metrics::names::kPipelineEncodeMicros);
  static auto* stage_calls = reg.GetCounter(metrics::names::kPipelineEncodeCalls);
  static auto* chains_encoded = reg.GetCounter(metrics::names::kEncodeChainsEncoded);
  static auto* batched_passes = reg.GetCounter(metrics::names::kEncodeBatchedPasses);
  CF_TRACE_SCOPE("encode");
  metrics::ScopedTimer timer(stage_micros, stage_calls);
  batched_passes->Increment();
  chains_encoded->Increment(k);

  Tensor e_c = EndTokenRows(chains);
  if (!use_numerical_aware_) return e_c;
  std::vector<double> values;
  values.reserve(chains.size());
  for (const RAChain& c : chains) values.push_back(c.source_value);
  return AffineTransfer(e_c, values);
}

Tensor ChainEncoder::EndTokenRows(const TreeOfChains& chains) const {
  const int64_t k = static_cast<int64_t>(chains.size());
  CF_CHECK_GT(k, 0);
  CF_CHECK(encoder_type_ == EncoderType::kTransformer)
      << "end-token rows exist only for the Transformer encoder";
  static auto& reg = metrics::MetricsRegistry::Global();
  static auto* chain_length = reg.GetHistogram(metrics::names::kEncodeChainLength);
  static auto* pad_waste = reg.GetHistogram(metrics::names::kEncodeBatchPadFractionPct);

  // Tokenize every chain and pad to the longest sequence.
  std::vector<std::vector<int64_t>> tokens(chains.size());
  int64_t max_len = 0;
  for (size_t i = 0; i < chains.size(); ++i) {
    tokens[i] = Tokenize(chains[i]);
    max_len = std::max<int64_t>(max_len, static_cast<int64_t>(tokens[i].size()));
    chain_length->Observe(static_cast<double>(chains[i].relations.size()));
  }
  const int64_t max_pos = position_emb_->num_embeddings();
  // Padding reuses the end token; the mask keeps those rows out of every
  // attention sum, and nothing downstream reads them, so no gradient flows
  // into the reused embedding row from padding.
  std::vector<int64_t> flat_tokens(static_cast<size_t>(k * max_len), EndToken());
  std::vector<int64_t> flat_positions(static_cast<size_t>(k * max_len), 0);
  std::vector<float> mask_values(static_cast<size_t>(k * max_len), 0.0f);
  int64_t total_tokens = 0;
  for (int64_t i = 0; i < k; ++i) {
    const auto& toks = tokens[static_cast<size_t>(i)];
    total_tokens += static_cast<int64_t>(toks.size());
    for (size_t p = 0; p < toks.size(); ++p) {
      const size_t flat = static_cast<size_t>(i * max_len) + p;
      flat_tokens[flat] = toks[p];
      flat_positions[flat] =
          std::min<int64_t>(static_cast<int64_t>(p), max_pos - 1);
      mask_values[flat] = 1.0f;
    }
  }
  pad_waste->Observe(100.0 * (1.0 - static_cast<double>(total_tokens) /
                                        static_cast<double>(k * max_len)));

  // Gathered embeddings + positions in one shot: [k*max_len, d].
  Tensor seq = ops::Add(token_emb_->Forward(flat_tokens),
                        position_emb_->Forward(flat_positions));
  Tensor mask = Tensor::FromVector({k, max_len}, std::move(mask_values));
  Tensor encoded =
      transformer_->Forward(ops::Reshape(seq, {k, max_len, dim_}), mask);
  // Each chain's embedding e_c is its end token's final representation
  // (Eq. 13); Gather's scatter-add backward routes gradients to exactly
  // those rows.
  std::vector<int64_t> end_rows(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    end_rows[static_cast<size_t>(i)] =
        i * max_len + static_cast<int64_t>(tokens[static_cast<size_t>(i)].size()) - 1;
  }
  return ops::Gather(ops::Reshape(encoded, {k * max_len, dim_}), end_rows);
}

}  // namespace core
}  // namespace chainsformer
