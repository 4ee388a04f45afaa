#ifndef CHAINSFORMER_GRAPH_EXECUTOR_H_
#define CHAINSFORMER_GRAPH_EXECUTOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/ra_chain.h"
#include "graph/plan.h"

namespace chainsformer {
namespace graph {

/// Runs compiled Plans (either program, DESIGN §6f) over one request's
/// chains. An executor keeps no plan: each run takes one. Its working
/// memory — the float arena, the host index arrays and the int8 scratch —
/// grows to fit the largest plan it has run and is reused, so a warm
/// executor performs zero heap allocations per run (asserted by
/// tests/graph_test.cc with an operator-new counting hook). Not
/// thread-safe: StaticGraphRuntime keeps one encoder/reasoner pair per
/// calling thread.
///
/// This TU is deliberately tape-free: it must not include tensor/ops.h or
/// tensor/nn.h (enforced by cf_lint's graph-executor-tape-free rule) and its
/// hot path performs no std::function dispatch, tracing, or metrics.
class PlanExecutor {
 public:
  PlanExecutor() = default;

  PlanExecutor(const PlanExecutor&) = delete;
  PlanExecutor& operator=(const PlanExecutor&) = delete;

  /// Encoder program `plan`. Binds the pattern tokens of `chains` (at most
  /// plan.chains, each fitting plan.max_len; the remaining rows are
  /// padding, fully masked) and interprets the steps. Returns the
  /// [plan.chains, dim] end-token rows, row i being chains[i]'s e_c — the
  /// bitwise equivalent of ChainEncoder::EndTokenRows. Valid until the next
  /// run.
  const float* RunEncoder(const Plan& plan,
                          std::span<const core::RAChain* const> chains);
  const float* RunEncoder(const Plan& plan, const core::TreeOfChains& chains);

  /// Reasoner program input: the caller writes chains[i]'s end-token row to
  /// Rows(plan) + i * dim before every RunReasoner(plan, ...) (the program
  /// reuses that space once the rows are consumed).
  float* Rows(const Plan& plan);

  /// Reasoner program `plan`. Binds the numeric encodings, normalized
  /// evidence values and lengths of `chains` (exactly plan.chains of them)
  /// and interprets the steps over the rows already in Rows(plan). Returns
  /// the *normalized* scalar prediction — the bitwise equivalent of the
  /// eager ForwardState::prediction item. The caller clamps and
  /// denormalizes.
  float RunReasoner(const Plan& plan, const core::TreeOfChains& chains);

 private:
  /// Grows the working memory to fit `plan`; never shrinks it.
  void Fit(const Plan& plan);
  void BindEncoder(const Plan& plan,
                   std::span<const core::RAChain* const> chains);
  void BindReasoner(const Plan& plan, const core::TreeOfChains& chains);
  void Execute(const Plan& plan);
  const int64_t* IndexData(IndexArray which) const;

  std::vector<float> arena_;
  // Encoder index arrays, and the pointer scratch RunEncoder(TreeOfChains)
  // binds through.
  std::vector<int64_t> tokens_;
  std::vector<int64_t> positions_;
  std::vector<int64_t> end_rows_;
  std::vector<const core::RAChain*> chain_ptrs_;
  // Reasoner index array.
  std::vector<int64_t> lengths_;
  // Int8 working set (sized from the plans' quant maxima): activation
  // codes, int32 accumulators, and per-row dynamic-quantization facts
  // handed from kGemmInt8 to the dequant step.
  std::vector<uint8_t> qa_;
  std::vector<int32_t> qacc_;
  std::vector<float> qrow_scale_;
  std::vector<float> qrow_min_;
};

/// The working memory of one request's two programs.
struct ExecutorPair {
  PlanExecutor encoder;
  PlanExecutor reasoner;
};

/// The table-miss path over one whole chain set: `encoder` encodes every
/// chain and its rows feed `reasoner`. Returns the normalized prediction.
/// Requires an encoder plan with at least chains.size() rows at the chains'
/// token length and a reasoner plan with k == chains.size().
float RunNormalized(ExecutorPair& executors, const Plan& encoder,
                    const Plan& reasoner, const core::TreeOfChains& chains);

}  // namespace graph
}  // namespace chainsformer

#endif  // CHAINSFORMER_GRAPH_EXECUTOR_H_
