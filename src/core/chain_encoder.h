#ifndef CHAINSFORMER_CORE_CHAIN_ENCODER_H_
#define CHAINSFORMER_CORE_CHAIN_ENCODER_H_

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/hyperbolic_filter.h"
#include "core/ra_chain.h"
#include "tensor/nn.h"

namespace chainsformer {
namespace core {

/// Encodes a double as the Float64 0-1 bit stream of Eq. 14 (f_n: R -> R^64,
/// IEEE-754 bits, sign bit first).
std::vector<float> EncodeFloat64Bits(double value);

/// Alternative log-magnitude encoding ("w Numerical-Aware by Log",
/// Table VI): sign, log1p magnitude, and Fourier features thereof, padded
/// to 64 dims so both encodings are interchangeable.
std::vector<float> EncodeLogFeatures(double value);

/// Chain Encoder (§IV-D): In-Context Chain Representation + Numerical-Aware
/// Affine Transfer.
///
/// Tokenization (Eq. 11): an RA-Chain becomes the sequence
/// [a_p, r_l, ..., r_1, a_q, end] over a joint vocabulary of relation ids,
/// attribute ids and one end token. Token embeddings are initialized from
/// the Hyperbolic Filter's log-mapped embeddings (Eq. 12) and then trained
/// with the main regression loss (the paper differentiates through the log
/// map; initializing-then-fine-tuning keeps the same geometry-informed
/// starting point while decoupling the filter, whose top-k selection is
/// non-differentiable anyway).
///
/// The sequence is read by an encoder-only Transformer (Eq. 13); the end
/// token's final representation is the chain embedding e_c. The
/// Numerical-Aware Affine Transfer (Eqs. 14-16) maps n_p to a Float64 bit
/// stream, generates an affine pair (E^α ∈ R^{d×d}, E^β ∈ R^d) with two
/// MLPs, and outputs ẽ_c = E^{αT} e_c + E^β.
class ChainEncoder : public tensor::nn::Module {
 public:
  ChainEncoder(int64_t num_relation_ids, int64_t num_attributes,
               const ChainsFormerConfig& config, Rng& rng);

  /// Copies the filter's log-mapped geometry into the token tables
  /// (truncating/zero-padding across dimensional mismatch).
  void InitializeFromFilter(const HyperbolicFilter& filter);

  /// Value-aware chain representation ẽ_c (rank-1, [hidden_dim]).
  tensor::Tensor Encode(const RAChain& chain) const;

  /// Encodes a whole Tree of Chains in one masked Transformer pass and
  /// returns the stacked representations [k, hidden_dim] (row i = ẽ_c of
  /// chains[i]). The k token sequences are padded to the longest length
  /// behind a key-padding mask, so every row matches the per-chain Encode
  /// result bit-for-bit while the tensor stack sees [k·max_len, d]-sized
  /// GEMMs instead of k tiny ones; the Numerical-Aware Affine Transfer MLPs
  /// likewise run once on the stacked [k, 64] bit-stream matrix. Non-
  /// Transformer encoder types fall back to per-chain encoding internally.
  /// Requires a non-empty chain set.
  tensor::Tensor EncodeBatch(const TreeOfChains& chains) const;

  /// The Transformer half of EncodeBatch, which calls it: the end-token
  /// rows e_c [k, hidden_dim] of the padded, masked pass, before the
  /// Numerical-Aware Affine Transfer. Row i depends only on chains[i]'s
  /// pattern (a_p, relations, a_q), never on its value or on the other
  /// chains (DESIGN §6c, §6f); the static-graph encoder program is gated
  /// against it bitwise. Requires the Transformer encoder type and a
  /// non-empty chain set.
  tensor::Tensor EndTokenRows(const TreeOfChains& chains) const;

  int64_t hidden_dim() const { return dim_; }

  /// Token id of a relation / attribute / the end token in the joint
  /// vocabulary (exposed for tests).
  int64_t RelationToken(kg::RelationId r) const { return r; }
  int64_t AttributeToken(kg::AttributeId a) const { return num_relation_ids_ + a; }
  int64_t EndToken() const { return num_relation_ids_ + num_attributes_; }

  /// Architecture/sub-module read access for the static-graph compiler
  /// (src/graph/plan.cc), which re-derives EncodeBatch's exact op sequence
  /// from the frozen weights.
  EncoderType encoder_type() const { return encoder_type_; }
  bool use_numerical_aware() const { return use_numerical_aware_; }
  NumericEncoding numeric_encoding() const { return numeric_encoding_; }
  const tensor::nn::Embedding& token_embedding() const { return *token_emb_; }
  const tensor::nn::Embedding& position_embedding() const {
    return *position_emb_;
  }
  /// Valid only for EncoderType::kTransformer.
  const tensor::nn::TransformerEncoder& transformer() const {
    return *transformer_;
  }
  /// Affine-transfer MLPs (64 -> d*d and 64 -> d); valid only when
  /// use_numerical_aware() is true.
  const tensor::nn::Mlp& mlp_alpha() const { return *mlp_alpha_; }
  const tensor::nn::Mlp& mlp_beta() const { return *mlp_beta_; }

 private:
  tensor::Tensor EncodeTokens(const RAChain& chain) const;
  /// Eq. 11 token sequence [a_p, r_l, ..., r_1, a_q, end] of a chain.
  std::vector<int64_t> Tokenize(const RAChain& chain) const;
  /// Numerical-Aware Affine Transfer (Eqs. 14-16) applied to stacked chain
  /// embeddings e_c [k, d] with per-chain evidence values.
  tensor::Tensor AffineTransfer(const tensor::Tensor& e_c,
                                const std::vector<double>& values) const;

  int64_t num_relation_ids_;
  int64_t num_attributes_;
  int64_t dim_;
  EncoderType encoder_type_;
  bool use_numerical_aware_;
  NumericEncoding numeric_encoding_;

  std::unique_ptr<tensor::nn::Embedding> token_emb_;
  /// Learned positional embeddings: the chain is a *sequence* (Eq. 11), so
  /// the Transformer needs position information to see relation order.
  std::unique_ptr<tensor::nn::Embedding> position_emb_;
  std::unique_ptr<tensor::nn::TransformerEncoder> transformer_;
  std::unique_ptr<tensor::nn::Lstm> lstm_;
  std::unique_ptr<tensor::nn::Mlp> mlp_alpha_;  // 64 -> d*d
  std::unique_ptr<tensor::nn::Mlp> mlp_beta_;   // 64 -> d
};

}  // namespace core
}  // namespace chainsformer

#endif  // CHAINSFORMER_CORE_CHAIN_ENCODER_H_
