#ifndef CHAINSFORMER_GRAPH_EXECUTOR_H_
#define CHAINSFORMER_GRAPH_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/ra_chain.h"
#include "graph/plan.h"

namespace chainsformer {
namespace graph {

/// Runs a compiled Plan (either program, DESIGN §6f) over one request's
/// chains. All working memory — the float arena and the host index arrays —
/// is allocated once in the constructor and reused across runs, so a warmed
/// executor performs zero heap allocations per request (asserted by
/// tests/graph_test.cc with an operator-new counting hook). Not thread-safe:
/// one executor serves one request at a time (StaticGraphRuntime keeps an
/// idle pool per plan).
///
/// This TU is deliberately tape-free: it must not include tensor/ops.h or
/// tensor/nn.h (enforced by cf_lint's graph-executor-tape-free rule) and its
/// hot path performs no std::function dispatch, tracing, or metrics.
class PlanExecutor {
 public:
  explicit PlanExecutor(std::shared_ptr<const Plan> plan);

  PlanExecutor(const PlanExecutor&) = delete;
  PlanExecutor& operator=(const PlanExecutor&) = delete;

  /// Encoder program. Binds the pattern tokens of `chains` (at most
  /// plan->chains, each fitting plan->max_len; the remaining rows are
  /// padding, fully masked) and interprets the steps. Returns the
  /// [plan->chains, dim] end-token rows, row i being chains[i]'s e_c — the
  /// bitwise equivalent of ChainEncoder::EndTokenRows. Valid until the next
  /// run.
  const float* RunEncoder(std::span<const core::RAChain* const> chains);
  const float* RunEncoder(const core::TreeOfChains& chains);

  /// Reasoner program input: the caller writes chains[i]'s end-token row to
  /// rows() + i * dim before every RunReasoner (the program reuses that
  /// space once the rows are consumed).
  float* rows();

  /// Reasoner program. Binds the numeric encodings, normalized evidence
  /// values and lengths of `chains` (exactly plan->chains of them) and
  /// interprets the steps over the rows already in rows(). Returns the
  /// *normalized* scalar prediction — the bitwise equivalent of the eager
  /// ForwardState::prediction item. The caller clamps and denormalizes.
  float RunReasoner(const core::TreeOfChains& chains);

  const Plan& plan() const { return *plan_; }

 private:
  void BindEncoder(std::span<const core::RAChain* const> chains);
  void BindReasoner(const core::TreeOfChains& chains);
  void Execute();
  const int64_t* IndexData(IndexArray which) const;

  std::shared_ptr<const Plan> plan_;
  std::vector<float> arena_;
  // Encoder index arrays (empty in a reasoner executor), and the pointer
  // scratch RunEncoder(TreeOfChains) binds through.
  std::vector<int64_t> tokens_;
  std::vector<int64_t> positions_;
  std::vector<int64_t> end_rows_;
  std::vector<const core::RAChain*> chain_ptrs_;
  // Reasoner index array (empty in an encoder executor).
  std::vector<int64_t> lengths_;
  // Int8 working set (sized once from the plan's quant maxima; empty in
  // fp64 plans): activation codes, int32 accumulators, and per-row
  // dynamic-quantization facts handed from kGemmInt8 to the dequant step.
  std::vector<uint8_t> qa_;
  std::vector<int32_t> qacc_;
  std::vector<float> qrow_scale_;
  std::vector<float> qrow_min_;
};

/// The table-miss path over one whole chain set: `encoder` encodes every
/// chain and its rows feed `reasoner`. Returns the normalized prediction.
/// Requires an encoder plan with at least chains.size() rows at the chains'
/// token length and a reasoner plan with k == chains.size().
float RunNormalized(PlanExecutor& encoder, PlanExecutor& reasoner,
                    const core::TreeOfChains& chains);

}  // namespace graph
}  // namespace chainsformer

#endif  // CHAINSFORMER_GRAPH_EXECUTOR_H_
