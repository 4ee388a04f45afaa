#ifndef CHAINSFORMER_GRAPH_PLAN_H_
#define CHAINSFORMER_GRAPH_PLAN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/ra_chain.h"
#include "graph/quant.h"
#include "graph/trace.h"
#include "kg/knowledge_graph.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace chainsformer {
namespace core {
class ChainsFormerModel;
}  // namespace core
}  // namespace chainsformer

namespace chainsformer {
namespace graph {

/// Executor instruction set (DESIGN §6f). Each step reads/writes fixed
/// offsets in one preallocated float arena; weight operands are raw pointers
/// into the frozen model's parameter storage (pinned by Plan::pinned). The
/// fused kinds (kBiasGelu, kAddScalarMul, kResidualLayerNorm, kAdd3, kDot)
/// collapse eager elementwise chains into one pass; the fusion rules keep
/// the per-element float operation sequence identical, so results match the
/// eager ops bit-for-bit.
enum class StepKind : uint8_t {
  kGatherTable,        // out rows from weight table w0 via host index array
  kGatherRows,         // out rows from arena matrix in0 via host end-row ids
  kAdd,                // out = in0 + in1 elementwise (m elements)
  kMulEw,              // out = in0 * in1 elementwise (m elements)
  kAddScalar,          // out = in0 + scalar (m elements)
  kBiasAdd,            // rows m x n: out[i,j] = in0[i,j] + w0[j]
  kBiasGelu,           // rows m x n: out[i,j] = Gelu(in0[i,j] + w0[j])
  kGemm,               // out[m,n] = arena[in0][m,k] * w0[k,n] (zeroed first)
  kBatchMatMul,        // extra batches of [m,k] x [k,n]; in0, in1 in arena
  kScale,              // out = in0 * scalar (m elements)
  kSoftmaxRows,        // m rows of n
  kMaskedSoftmaxRows,  // m rows of n; mask row = arena[in1] + (r/extra)*n
  kResidualLayerNorm,  // m rows of n: out = LN(in0 + in1; w0=gamma, w1=beta)
  kSplitHeads,         // [m, k, extra*n] -> [m*extra, k, n]
  kMergeHeads,         // [m*extra, k, n] -> [m, k, extra*n]
  kPermute3,           // input dims (m, k, n); perm packed in extra
  kSliceCols,          // m rows: out[i, 0..n) = in0[i*k + extra .. +n]
  kAddScalarMul,       // out[i] = (in0[i] + scalar) * in1[i] (m elements)
  kAdd3,               // out[i] = (in0[i] + in1[i]) + in2[i] (m elements)
  kFill,               // out[0..m) = scalar
  kDot,                // out[0] = float(sum_i double(float(in0[i]*in1[i])))
  // Reduced-precision Linear lowering (DESIGN §6g). These replace the
  // kGemm + kBiasAdd/kBiasGelu pair when the plan's precision is kInt8;
  // `pack` points at the Linear's packed weights.
  kGemmInt8,           // quantize arena[in0][m,k] rows + int8 GEMM into the
                       // executor's int32 scratch (out unused)
  kDequantBias,        // arena[out][m,n] = dequant(scratch) + w0 bias
  kDequantBiasGelu,    // same, with fused GELU
};

/// Host-side int64 index array a gather step reads (filled by the executor's
/// binder from the request's chains before the steps run).
enum class IndexArray : uint8_t { kTokens, kPositions, kEndRows, kLengths };

/// One fused-kernel instruction. in0/in1/in2/out are float offsets into the
/// executor arena (-1 = unused); w0/w1 point at frozen weights and `pack` at
/// an int8 Linear's packed weights. m/k/n/extra are the kind-specific
/// geometry documented on StepKind; `scalar` carries the attention scale,
/// LayerNorm epsilon, or fill value.
struct Step {
  StepKind kind;
  IndexArray index = IndexArray::kTokens;
  int64_t in0 = -1;
  int64_t in1 = -1;
  int64_t in2 = -1;
  int64_t out = -1;
  const float* w0 = nullptr;
  const float* w1 = nullptr;
  const tensor::kernels::Int8Pack* pack = nullptr;
  int64_t m = 0;
  int64_t k = 0;
  int64_t n = 0;
  int64_t extra = 0;
  float scalar = 0.0f;
};

/// Which half of the split single-query forward a Plan holds (DESIGN §6f).
/// The split sits at the end-token gather: the encoder program reads only
/// chain patterns, the reasoner program everything that depends on values.
enum class Program : uint8_t {
  kEncoder,   // pattern tokens -> end-token rows e_c [chains, dim]
  kReasoner,  // e_c rows + evidence values -> normalized prediction
};

/// A compiled inference program for one geometry bucket, flattened to a
/// fixed step sequence over one liveness-packed arena. Produced by
/// CompileEncoderPlan / CompileReasonerPlan, run by any PlanExecutor, and
/// cached per bucket by StaticGraphRuntime. Immutable once compiled.
///
/// The encoder program is ChainEncoder::EndTokenRows for `chains` token
/// sequences padded to `max_len`. The reasoner program is the rest of
/// PredictOnChainSets for one query with k = `chains` chains: the
/// numerical-aware affine transfer, the projection, the Treeformer, the
/// chain weights and the weighted sum.
struct Plan {
  // Geometry.
  Program program = Program::kEncoder;
  int64_t chains = 0;   // rows per run: the encoder's m, the reasoner's k
  int64_t max_len = 0;  // encoder: padded token length; reasoner: 0
  int64_t dim = 0;      // hidden dim

  // Binder facts (how the executor turns a chain set into inputs).
  int64_t num_relation_ids = 0;
  int64_t num_attributes = 0;
  int64_t max_position = 0;    // position-embedding rows
  int64_t length_buckets = 0;  // length-embedding rows (clamp bound)
  core::NumericEncoding numeric_encoding = core::NumericEncoding::kFloat64Bits;
  bool use_numerical_aware = false;
  const std::vector<kg::AttributeStats>* train_stats = nullptr;

  // Program. Inputs are written by the executor's binder (or, for the
  // reasoner's rows, by its caller) before the steps run.
  std::vector<Step> steps;
  int64_t arena_floats = 0;
  int64_t mask_offset = -1;    // encoder: [chains * max_len] key-padding mask
  int64_t rows_offset = -1;    // reasoner: [chains * dim] end-token rows e_c
  int64_t bits_offset = -1;    // reasoner: [chains * 64] numeric encodings
  int64_t vn_offset = -1;      // reasoner: [chains] normalized evidence values
  int64_t result_offset = -1;  // encoder: [chains * dim] e_c; reasoner: scalar

  // Reduced-precision state (zero when precision == kFp64). The scratch
  // maxima size the executor's int8/int32 buffers (the arena itself stays
  // float-only).
  Precision precision = Precision::kFp64;
  int64_t quant_rows = 0;       // max m over kGemmInt8 steps
  int64_t quant_qa_elems = 0;   // max m * padded-k (uint8 activation codes)
  int64_t quant_acc_elems = 0;  // max m * padded-n (int32 accumulators)

  // The op skeleton the eager path is expected to execute for this program
  // and geometry, for cross-validation against a Tracer recording. The
  // encoder skeleton at (k, len) followed by the reasoner skeleton at k is
  // the trace of PredictOnChainSets for one query. Identical in every
  // precision mode: quantized lowering swaps step kinds, not the eager op
  // sequence the plan mirrors.
  std::vector<TraceEvent> expected_events;

  // Keeps the parameter storage behind every w0/w1 pointer, and the
  // Int8PackSet behind every `pack` pointer, alive.
  std::vector<std::shared_ptr<const void>> pinned;
};

/// The encoder program length `chains` need: their longest token sequence.
int64_t MaxTokens(const core::TreeOfChains& chains);

/// Compiles the frozen model's encoder program: ChainEncoder::EndTokenRows
/// for `chains` token sequences padded to `max_len`. Walks the model's
/// module tree (the accessors on ChainEncoder and the nn layers) and emits
/// the exact eager op sequence with elementwise chains fused and every
/// intermediate placed in one arena by liveness. Requires the Transformer
/// encoder type. With `int8` (packed from this model's store) every Linear
/// lowers to the quantized step kinds, which point into that set; without
/// it the plan runs fp64. The caller is responsible for verifying the plan
/// against an eager run before serving from it (StaticGraphRuntime does
/// both).
Plan CompileEncoderPlan(const core::ChainsFormerModel& model, int64_t chains,
                        int64_t max_len,
                        std::shared_ptr<const Int8PackSet> int8 = nullptr);

/// Compiles the reasoner program for one query with k chains, whose
/// end-token rows are its input. Same contract as CompileEncoderPlan.
Plan CompileReasonerPlan(const core::ChainsFormerModel& model, int64_t k,
                         std::shared_ptr<const Int8PackSet> int8 = nullptr);

}  // namespace graph
}  // namespace chainsformer

#endif  // CHAINSFORMER_GRAPH_PLAN_H_
