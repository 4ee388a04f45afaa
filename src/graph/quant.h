#ifndef CHAINSFORMER_GRAPH_QUANT_H_
#define CHAINSFORMER_GRAPH_QUANT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/kernels.h"

namespace chainsformer {
namespace core {
class ChainsFormerModel;
struct Query;
}  // namespace core
namespace tensor {
namespace nn {
class Linear;
}  // namespace nn
}  // namespace tensor
}  // namespace chainsformer

namespace chainsformer {
namespace graph {

/// Numeric mode a compiled plan's Linear (kGemm) steps run in (DESIGN §6g).
/// Everything else — Poincare distances, LayerNorm, softmax, the batched
/// attention matmuls — stays in the high-precision kernels regardless.
///
/// `kFp64` is the historical name for the full-precision path (fp32 storage
/// with double accumulation in the reductions); the CLI accepts "fp32" as an
/// alias. `kInt8` runs per-output-channel symmetric int8 weights against
/// dynamically quantized 7-bit activations with int32 accumulation.
enum class Precision : uint8_t { kFp64, kInt8 };

/// Canonical lowercase name ("fp64", "int8").
const char* PrecisionName(Precision p);

/// Parses "fp64" / "fp32" (alias) / "int8". Returns false on any other
/// spelling, leaving *out untouched.
bool ParsePrecision(const std::string& text, Precision* out);

/// Per-output-channel symmetric int8 quantization of one frozen Linear's
/// weight matrix, in checkpoint form: codes are the plain [in, out]
/// row-major int8 matrix (clamped to [-127, 127] so the AVX2 maddubs pair
/// sum cannot saturate int16), scale[j] = maxabs(column j) / 127.
struct QuantizedLinear {
  std::string name;  // canonical dotted path (see QuantizableLinears)
  int64_t in = 0;
  int64_t out = 0;
  std::vector<int8_t> codes;  // [in * out]
  std::vector<float> scale;   // [out]
};

/// Every quantized Linear of a frozen model plus the calibration facts the
/// serve-time accuracy gate checks. Saved as the optional "quant_int8"
/// checkpoint block and loaded read-only; a runtime packs it once
/// (PackQuantStore) and every plan bucket shares the packs.
struct QuantStore {
  std::vector<QuantizedLinear> linears;
  // Mean |normalized int8 prediction - normalized eager prediction| over the
  // calibration queries (normalized space, so it is attribute-scale-free and
  // directly comparable to the runtime verify tolerance). 0 when no
  // calibration ran.
  double mae_delta = 0.0;
  int64_t calibration_queries = 0;
};

/// The frozen Linears the static-graph compiler lowers to kGemm steps, in a
/// stable canonical order with dotted names. This walk is the single source
/// of truth shared by BuildQuantStore (save time) and PackQuantStore (load
/// time); both sides iterate it so the store rows line up with the model's
/// Linears by construction.
std::vector<std::pair<std::string, const tensor::nn::Linear*>>
QuantizableLinears(const core::ChainsFormerModel& model);

/// A QuantStore in the int8 GEMM's packed layout: one pack per quantizable
/// Linear, matched against the model's QuantizableLinears walk once, at
/// packing. The int8 steps of every plan compiled from one set point into
/// it, and each such plan pins the set (DESIGN §6g).
struct Int8PackSet {
  std::vector<std::pair<const tensor::nn::Linear*, tensor::kernels::Int8Pack>>
      packs;  // QuantizableLinears order

  /// The pack of `lin`; CF_CHECKs that the set holds one.
  const tensor::kernels::Int8Pack& For(const tensor::nn::Linear& lin) const;
};

/// Packs `store`, whose rows must come from BuildQuantStore on this model
/// (matched by name and shape).
std::shared_ptr<const Int8PackSet> PackQuantStore(
    const core::ChainsFormerModel& model, const QuantStore& store);

/// Quantizes every quantizable Linear of the frozen model. Does not
/// calibrate; mae_delta stays 0 until CalibrateQuantStore runs.
QuantStore BuildQuantStore(const core::ChainsFormerModel& model);

/// Measures the int8 static-graph accuracy drift on held-out queries:
/// packs `store` once, compiles int8 plans from the packs, predicts each
/// query with both the int8 plans and the eager full-precision path, and
/// records the mean absolute difference of the normalized predictions into
/// store->mae_delta / store->calibration_queries. Queries with no retrievable chains are
/// skipped (both paths fall back identically).
void CalibrateQuantStore(const core::ChainsFormerModel& model,
                         const std::vector<core::Query>& queries,
                         QuantStore* store);

}  // namespace graph
}  // namespace chainsformer

#endif  // CHAINSFORMER_GRAPH_QUANT_H_
