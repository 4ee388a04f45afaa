#ifndef CHAINSFORMER_CORE_CHAINSFORMER_H_
#define CHAINSFORMER_CORE_CHAINSFORMER_H_

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/chain_encoder.h"
#include "core/chain_quality.h"
#include "core/config.h"
#include "core/hyperbolic_filter.h"
#include "core/numerical_reasoner.h"
#include "core/query_retrieval.h"
#include "core/ra_chain.h"
#include "eval/metrics.h"
#include "kg/dataset.h"
#include "tensor/optim.h"
#include "util/thread_pool.h"

namespace chainsformer {
namespace core {

/// Training summary (Algorithm 1 execution trace).
struct TrainReport {
  int epochs_run = 0;
  std::vector<double> train_losses;       // mean per epoch
  std::vector<double> valid_maes;         // normalized valid MAE per epoch
  double filter_pretrain_loss = 0.0;
  int64_t filter_pretrain_pairs = 0;
  double best_valid_mae = 0.0;
  /// Per-epoch wall time (ms) spent in each pipeline stage, computed from
  /// registry deltas: keys "retrieval", "filter", "encode", "project",
  /// "aggregate" (training + validation work combined), plus "valid_eval"
  /// (the validation pass, all stages), "valid_eval_threads" (worker count
  /// the validation pass ran with; 1 = serial Evaluate) and "total" (the
  /// whole epoch).
  std::vector<std::map<std::string, double>> epoch_stage_millis;
};

/// Explanation of one prediction: the reasoning trace of Fig. 5.
struct Explanation {
  double prediction = 0.0;              // denormalized value
  bool has_evidence = false;            // false -> fallback (train mean)
  size_t toc_size = 0;                  // chains retrieved
  size_t filtered_size = 0;             // chains after the Hyperbolic Filter
  /// (chain, importance weight ω), sorted by descending weight.
  std::vector<std::pair<RAChain, double>> weighted_chains;
};

/// One entry of a PredictOnChainSets() micro-batch result.
struct BatchPrediction {
  double value = 0.0;        // denormalized prediction
  bool has_evidence = false; // false -> train-mean fallback was used
};

/// End-to-end ChainsFormer model (Fig. 3): Query Retrieval -> Hyperbolic
/// Filter -> Chain Encoder -> Numerical Reasoner, trained per Algorithm 1.
///
/// The dataset must outlive the model. All stochastic behaviour derives
/// from config.seed.
///
/// Thread-safety: Train/Evaluate/Predict/Explain mutate internal caches and
/// must be externally serialized. The serving surface — RetrieveChains() and
/// PredictOnChainSets() — is const, touches no mutable state, and is safe to
/// call from any number of threads once training (or LoadCheckpoint) has
/// completed.
class ChainsFormerModel {
 public:
  ChainsFormerModel(const kg::Dataset& dataset, const ChainsFormerConfig& config);

  ChainsFormerModel(const ChainsFormerModel&) = delete;
  ChainsFormerModel& operator=(const ChainsFormerModel&) = delete;

  /// Pre-trains the filter, then runs the regression training loop with
  /// early stopping on validation MAE.
  ///
  /// Precondition: the dataset has a non-empty train split. Postcondition:
  /// the best-validation weights are restored and the model is ready for
  /// Predict/Evaluate/SaveCheckpoint.
  TrainReport Train();

  /// Evaluates on arbitrary numeric triples (typically the test split).
  eval::EvalResult Evaluate(const std::vector<kg::NumericalTriple>& queries);

  /// Thread-parallel evaluation. Chain retrieval runs serially (the chain
  /// cache is not thread-safe); the per-query encoder/reasoner forwards —
  /// the dominant cost — run on `pool`. The paper's complexity analysis
  /// (§IV-G) notes this per-query independence explicitly. Results are
  /// bit-identical to Evaluate().
  eval::EvalResult EvaluateParallel(const std::vector<kg::NumericalTriple>& queries,
                                    ThreadPool& pool);

  /// Predicts the (denormalized) value for a query.
  ///
  /// Precondition: the model is trained (Train() ran or LoadCheckpoint()
  /// succeeded); calling before that predicts with random weights.
  /// Postcondition: the result equals
  /// PredictOnChainSets({query}, {&RetrieveChains(query)}) bit-for-bit when
  /// reretrieve_each_epoch is off (the default).
  double Predict(const Query& query);

  /// Retrieves + filters + (optionally) quality-prunes chains for a query
  /// without touching the model's chain cache. Deterministic: the walk seed
  /// derives only from config.seed and the query, so repeated calls return
  /// identical Trees of Chains. Const and thread-safe; this is the retrieval
  /// entry point for the serving path (src/serve), where each client thread
  /// retrieves independently and caches externally.
  TreeOfChains RetrieveChains(const Query& query) const;

  /// Inference over a micro-batch of queries with pre-retrieved chain sets
  /// (usually from RetrieveChains, possibly via the serve-side cache).
  ///
  /// Preconditions: the model is trained; `chain_sets[i]` is the chain set
  /// for `queries[i]` (non-null; empty ToC is fine) and both spans have the
  /// same length. Postcondition: entry i is bitwise-identical to
  /// Predict(queries[i]) — when config.batched_encoder is on, all chains are
  /// concatenated into one masked EncodeBatch pass, which DESIGN §6c
  /// guarantees matches per-chain encoding bit-for-bit. Queries with an
  /// empty chain set get the train-mean fallback and has_evidence = false.
  /// Const and thread-safe (runs under NoGradGuard).
  std::vector<BatchPrediction> PredictOnChainSets(
      const std::vector<Query>& queries,
      const std::vector<const TreeOfChains*>& chain_sets) const;

  /// Full reasoning trace for a query (Fig. 5 / Table V).
  Explanation Explain(const Query& query);

  /// Aggregates the highest-ω chain patterns for an attribute over a sample
  /// of queries (Table V). Returns (pattern string, total weight).
  std::vector<std::pair<std::string, double>> TopPatterns(
      kg::AttributeId attribute, int num_patterns, int sample_queries);

  /// Saves all trainable parameters (filter + encoder + reasoner) to a
  /// binary checkpoint. Returns false on I/O failure.
  bool SaveCheckpoint(const std::string& path) const;

  /// Stream form of SaveCheckpoint: writes the tensor section at the
  /// stream's current position so it can be embedded in a container format
  /// (serve::SaveModel). Returns false on I/O failure.
  bool SaveCheckpoint(std::ostream& out) const;

  /// Loads a checkpoint produced by SaveCheckpoint from a model with an
  /// identical configuration; refreshes the filter snapshot and invalidates
  /// chain caches. Postcondition on success: the model behaves as trained
  /// (Predict/Evaluate use the restored weights). Returns false on I/O
  /// failure or shape mismatch.
  bool LoadCheckpoint(const std::string& path);

  /// Stream form of LoadCheckpoint (reads one tensor section in place).
  bool LoadCheckpoint(std::istream& in);

  /// Replaces the train-split normalization stats (indexed by AttributeId).
  /// Checkpoint restore uses this so a loaded model denormalizes with the
  /// stats of the *saving* process even if the local dataset split differs.
  void OverrideTrainStats(std::vector<kg::AttributeStats> stats);

  const kg::Dataset& dataset() const { return dataset_; }
  const ChainsFormerConfig& config() const { return config_; }
  const HyperbolicFilter& filter() const { return *filter_; }
  /// Chain-quality statistics (populated when config.use_chain_quality).
  const ChainQualityEvaluator& chain_quality() const { return quality_; }
  const QueryRetrieval& retrieval() const { return *retrieval_; }
  const std::vector<kg::AttributeStats>& train_stats() const { return train_stats_; }
  /// Frozen Chain Encoder — read access for the static-graph compiler.
  const ChainEncoder& encoder() const { return *encoder_; }
  /// Frozen Numerical Reasoner — read access for the static-graph compiler.
  const NumericalReasoner& reasoner() const { return *reasoner_; }
  int64_t NumParameters() const;

  /// Fallback prediction (normalized) when a query has no chains: the
  /// training mean of the attribute (0.5 when the attribute was unseen in
  /// training). Exposed so the static-graph runtime reproduces the eager
  /// empty-chain-set path exactly.
  double FallbackNormalized(kg::AttributeId a) const;

 private:
  struct ForwardState {
    tensor::Tensor prediction;         // normalized scalar
    tensor::Tensor weights;            // [k]
    tensor::Tensor chain_predictions;  // [k], per-chain normalized n̂
    /// Chains that entered the reasoner; populated only when the caller
    /// requested them (Forward's keep_chains) — the common Predict/Evaluate
    /// path borrows the cached ToC without copying it.
    TreeOfChains used_chains;
    bool valid = false;
  };

  /// Retrieves + filters chains for a query, with caching.
  const TreeOfChains& GetChains(const Query& query);

  /// Differentiable forward pass over the query's chains. `keep_chains`
  /// copies the chain set into ForwardState::used_chains (needed by Explain
  /// and chain-quality recording; skipped otherwise).
  ForwardState Forward(const Query& query, bool keep_chains = false);

  /// Forward over a pre-fetched chain set (borrowed; not copied into the
  /// returned state). Touches no mutable model state, so it is safe to call
  /// concurrently under NoGradGuard.
  ForwardState ForwardOnChains(const TreeOfChains& chains) const;

  double NormalizedTarget(const kg::NumericalTriple& t) const;

  const kg::Dataset& dataset_;
  ChainsFormerConfig config_;
  std::vector<kg::AttributeStats> train_stats_;
  kg::NumericIndex train_index_;
  std::unique_ptr<QueryRetrieval> retrieval_;
  std::unique_ptr<HyperbolicFilter> filter_;
  std::unique_ptr<ChainEncoder> encoder_;
  std::unique_ptr<NumericalReasoner> reasoner_;
  std::unique_ptr<tensor::optim::Adam> optimizer_;
  Rng rng_;
  std::unordered_map<uint64_t, TreeOfChains> chain_cache_;
  ChainQualityEvaluator quality_;
  bool trained_ = false;
};

}  // namespace core
}  // namespace chainsformer

#endif  // CHAINSFORMER_CORE_CHAINSFORMER_H_
