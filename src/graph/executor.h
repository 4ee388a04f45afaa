#ifndef CHAINSFORMER_GRAPH_EXECUTOR_H_
#define CHAINSFORMER_GRAPH_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ra_chain.h"
#include "graph/plan.h"

namespace chainsformer {
namespace graph {

/// Runs a compiled Plan over one request's Tree of Chains. All working
/// memory — the float arena and the host index arrays — is allocated once in
/// the constructor and reused across Run calls, so a warmed executor
/// performs zero heap allocations per request (DESIGN §6f; asserted by
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

  /// Binds `chains` into the arena (tokens, positions, mask, numeric
  /// encodings, normalized evidence values) and interprets the step program.
  /// Returns the *normalized* scalar prediction — the bitwise equivalent of
  /// the eager ForwardState::prediction item. The caller clamps and
  /// denormalizes. Requires chains.size() == plan->k and every chain's token
  /// sequence to fit in plan->max_len.
  float RunNormalized(const core::TreeOfChains& chains);

  const Plan& plan() const { return *plan_; }

 private:
  void Bind(const core::TreeOfChains& chains);
  const int64_t* IndexData(IndexArray which) const;

  std::shared_ptr<const Plan> plan_;
  std::vector<float> arena_;
  std::vector<int64_t> tokens_;
  std::vector<int64_t> positions_;
  std::vector<int64_t> end_rows_;
  std::vector<int64_t> lengths_;
  // Int8 working set (sized once from the plan's quant maxima; empty in
  // fp64 plans): activation codes, int32 accumulators, and per-row
  // dynamic-quantization facts handed from kGemmInt8 to the dequant step.
  std::vector<uint8_t> qa_;
  std::vector<int32_t> qacc_;
  std::vector<float> qrow_scale_;
  std::vector<float> qrow_min_;
};

}  // namespace graph
}  // namespace chainsformer

#endif  // CHAINSFORMER_GRAPH_EXECUTOR_H_
