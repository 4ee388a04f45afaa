#ifndef CHAINSFORMER_TENSOR_KERNELS_H_
#define CHAINSFORMER_TENSOR_KERNELS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace chainsformer {
namespace tensor {
namespace kernels {

// Dense float32 kernel layer behind tensor/ops.cc. All GEMM variants are
// row-major and accumulate into the output (`C += ...`), which serves both
// the forward pass (outputs start zeroed) and gradient accumulation.
//
// Threading model: work is partitioned by output row over a process-wide
// worker pool; every output row is produced by exactly one thread with a
// fixed k-traversal order, so results are bitwise identical for any thread
// count. Matrices below a flop threshold are computed inline on the calling
// thread. Worker tasks never launch nested parallel sections, so the layer
// is safe to call from other thread pools (e.g. the per-query eval pool).

/// Sets the process-wide kernel thread count. 1 (the default) keeps every
/// kernel on the calling thread; 0 means std::thread::hardware_concurrency.
/// Not thread-safe against concurrently running kernels — call it at
/// startup / model construction, not mid-training-step.
void SetKernelThreads(int n);

/// Currently configured kernel thread count (>= 1).
int KernelThreads();

/// C[m,n] += A[m,k] * B[k,n].
void GemmAcc(int64_t m, int64_t k, int64_t n, const float* a, const float* b,
             float* c);

/// C[m,k] += G[m,n] * B[k,n]^T — the dA product of a matmul backward.
void GemmBtAcc(int64_t m, int64_t k, int64_t n, const float* g, const float* b,
               float* c);

/// C[k,n] += A[m,k]^T * G[m,n] — the dB product of a matmul backward.
void GemmAtAcc(int64_t m, int64_t k, int64_t n, const float* a, const float* g,
               float* c);

/// Single-threaded variants, for callers that already parallelized at an
/// outer level (e.g. BatchMatMul over the batch dimension). Bitwise
/// identical to the parallel variants.
void GemmAccSerial(int64_t m, int64_t k, int64_t n, const float* a,
                   const float* b, float* c);
void GemmBtAccSerial(int64_t m, int64_t k, int64_t n, const float* g,
                     const float* b, float* c);
void GemmAtAccSerial(int64_t m, int64_t k, int64_t n, const float* a,
                     const float* g, float* c);

/// Number of non-finite (NaN or +/-Inf) values among x[0..n). Uses the same
/// ParallelRanges dispatch as the GEMM kernels — large scans are partitioned
/// over the worker pool with per-range partial counts — and a branch-free
/// exponent-mask inner loop that vectorizes under -O3. The tape sanitizer's
/// full-mode poison scan is built on this.
int64_t CountNonFinite(const float* x, int64_t n);

/// Runs fn(begin, end) over disjoint sub-ranges of [0, n). `cost_per_item`
/// is a rough flop/byte weight per index used against the grain threshold:
/// small totals run inline as a single fn(0, n) call. Ranges are disjoint,
/// so any fn writing only to its own indices is race-free and (being the
/// same per-index arithmetic regardless of partition) deterministic.
void ParallelRanges(int64_t n, int64_t cost_per_item,
                    const std::function<void(int64_t, int64_t)>& fn);

// ---- int8 weight storage + GEMM path (DESIGN §6g) ---------------------------
//
// Inference-only int8 weight format for the static-graph serve path. Weights
// are frozen at serve time, so they can be quantized once and streamed
// through a cheaper inner loop; activations stay float32 and are quantized
// per row on the fly. The accuracy-sensitive ops — Poincaré distance,
// LayerNorm, softmax — never go through these kernels.
//
// Determinism: the int8 path accumulates in exact int32 arithmetic and the
// dequantization applies one fixed per-element float expression, so results
// are bitwise identical across thread counts AND across the scalar/AVX2/VNNI
// dispatch.

/// Depth chunk of the int8 dot-product kernels: one vpdpbusd / maddubs step
/// consumes 4 activation bytes per output lane, so packed operands pad k up
/// to a multiple of 4 and the inner loops never need a k tail.
inline constexpr int64_t kInt8KChunk = 4;

/// Column-group width of the interleaved weight layout: one 256-bit weight
/// tile holds kInt8KChunk depth values for 8 adjacent output columns, so n
/// pads up to a multiple of 8 (zero columns) and the SIMD cores never need a
/// column tail.
inline constexpr int64_t kInt8ColGroup = 8;

/// k rounded up to the int8 dot-product chunk.
inline int64_t Int8PaddedDepth(int64_t k) {
  return (k + kInt8KChunk - 1) / kInt8KChunk * kInt8KChunk;
}

/// n rounded up to the int8 column-group width. The int32 accumulator buffer
/// handed to Int8GemmI32* must be [m, Int8PaddedCols(n)] — padding columns
/// are written (zeros) and ignored by the dequant epilogue.
inline int64_t Int8PaddedCols(int64_t n) {
  return (n + kInt8ColGroup - 1) / kInt8ColGroup * kInt8ColGroup;
}

/// Packed right-hand operand of the int8 GEMM: the weight matrix B[k, n] in
/// the dot-product-interleaved layout [n_padded/8][k_padded/4][8 cols][4 k]
/// (zero-padded in both k and n), so one 32-byte tile feeds one vpdpbusd that
/// accumulates 8 output columns at once — no horizontal reductions anywhere.
/// Element (kk, j) lives at
///   data[((j/8) * (k_padded/4) + kk/4) * 32 + (j%8) * 4 + kk%4].
/// Plus the per-output-channel symmetric scales and the precomputed
/// row-offset correction term used by the dequant epilogue.
struct Int8Pack {
  int64_t k = 0;         // logical depth (input features)
  int64_t n = 0;         // logical output features
  int64_t k_padded = 0;  // k rounded up to kInt8KChunk
  int64_t n_padded = 0;  // n rounded up to kInt8ColGroup
  std::vector<int8_t> data;       // interleaved tiles, see above
  std::vector<float> scale;       // [n] per-output-channel scale s_w
  std::vector<float> offset_dot;  // [n] s_w[j] * sum_k q[k, j]
};

/// True when the int8 GEMM dispatches to a SIMD dot-product kernel (AVX2
/// maddubs or VNNI vpdpbusd) instead of the portable scalar reference. The
/// perf_microbench speedup guardrail gates on this.
bool Int8GemmAccelerated();

/// Per-output-channel symmetric weight quantization: for each column j of
/// B[k, n], scale[j] = maxabs(B[:, j]) / 127 and q = round(B / scale[j])
/// clamped to [-127, 127] (round-to-nearest-even; -128 is never produced, so
/// maddubs pair sums cannot saturate). An all-zero column gets scale 0 and
/// all-zero codes.
void QuantizeWeightsInt8(int64_t k, int64_t n, const float* b, int8_t* q,
                         float* scale);

/// Builds the packed GEMM operand from the [k, n] int8 codes + scales (the
/// checkpoint payload): interleaves into the tiled layout and precomputes the
/// offset-correction dot products.
Int8Pack PackInt8Weights(int64_t k, int64_t n, const int8_t* q,
                         const float* scale);

/// Dynamic per-row activation quantization to unsigned 7-bit affine codes:
/// for each row i of A[m, k], row_min[i] = min(row), row_scale[i] =
/// (max - min) / 127, q = round((x - min) / row_scale) in [0, 127]
/// (round-to-nearest-even). q is written [m, k_padded] with the k padding
/// zero-filled. 7-bit codes keep every maddubs pair sum inside int16 range.
/// A constant row gets row_scale 0 and all-zero codes; the dequant offset
/// term reconstructs it exactly up to weight quantization.
void QuantizeActivationRows(int64_t m, int64_t k, int64_t k_padded,
                            const float* a, uint8_t* q, float* row_scale,
                            float* row_min);

/// acc[m, n_padded] = qa[m, k_padded] . b (exact int32 dot products;
/// overwrites acc, including the zero padding columns). Serial /
/// row-partitioned-threaded / portable-scalar variants, all bitwise
/// identical.
void Int8GemmI32Serial(int64_t m, const Int8Pack& b, const uint8_t* qa,
                       int32_t* acc);
void Int8GemmI32(int64_t m, const Int8Pack& b, const uint8_t* qa,
                 int32_t* acc);
void Int8GemmI32Reference(int64_t m, const Int8Pack& b, const uint8_t* qa,
                          int32_t* acc);

/// Dequantize + bias (+ optional exact GELU), the epilogue fused against the
/// int8 GEMM (acc rows are n_padded wide; c rows are the logical n):
///   c[i, j] = fmaf(acc[i, j], row_scale[i] * b.scale[j],
///                  fmaf(row_min[i], b.offset_dot[j], bias[j]))
/// with GeluScalar applied afterwards when `gelu` is set. One fixed
/// per-element expression — deterministic for any partition.
void DequantBiasRows(int64_t m, const Int8Pack& b, const int32_t* acc,
                     const float* row_scale, const float* row_min,
                     const float* bias, bool gelu, float* c);

// ---- Shared scalar/row forward primitives (DESIGN §6f) ---------------------
//
// The exact per-element arithmetic of the forward-only ops that both the
// eager path (tensor/ops.cc) and the compiled static-graph executor
// (src/graph) run. Keeping one definition here is what makes a compiled plan
// bitwise-identical to the eager forward *by construction*: both sides
// compile the same inline code. All helpers are allocation-free and write
// only through their output pointers, so they are safe inside ParallelRanges
// partitions and inside the executor's preallocated arena alike.

/// Exact GELU of one element: 0.5 x (1 + erf(x / sqrt(2))).
inline float GeluScalar(float x) {
  constexpr float kInvSqrt2 = 0.70710678118654752f;
  return 0.5f * x * (1.0f + std::erf(x * kInvSqrt2));
}

/// Softmax over one row of n elements (max-shifted, double accumulator).
inline void SoftmaxRow(const float* x, int64_t n, float* y) {
  float mx = x[0];
  for (int64_t j = 1; j < n; ++j) mx = std::max(mx, x[j]);
  double z = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    y[j] = std::exp(x[j] - mx);
    z += y[j];
  }
  const float invz = static_cast<float>(1.0 / z);
  for (int64_t j = 0; j < n; ++j) y[j] *= invz;
}

/// Key-padding-masked softmax over one row: entries with m[j] == 0 get
/// probability exactly 0; a fully masked row is defined as all-zero.
inline void MaskedSoftmaxRow(const float* x, const float* m, int64_t n,
                             float* y) {
  float mx = -std::numeric_limits<float>::infinity();
  for (int64_t j = 0; j < n; ++j) {
    if (m[j] != 0.0f) mx = std::max(mx, x[j]);
  }
  if (mx == -std::numeric_limits<float>::infinity()) {
    for (int64_t j = 0; j < n; ++j) y[j] = 0.0f;
    return;
  }
  double z = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    if (m[j] != 0.0f) {
      y[j] = std::exp(x[j] - mx);
      z += y[j];
    } else {
      y[j] = 0.0f;
    }
  }
  const float invz = static_cast<float>(1.0 / z);
  for (int64_t j = 0; j < n; ++j) y[j] *= invz;
}

/// Layer normalization of one row with affine gamma/beta (double-precision
/// mean/variance, matching LayerNormOp). When non-null, `xhat` receives the
/// normalized row and `inv_std` the reciprocal standard deviation — the
/// per-row statistics the eager backward pass caches; the executor passes
/// nullptr.
inline void LayerNormRow(const float* x, const float* gamma, const float* beta,
                         int64_t n, float eps, float* out, float* xhat,
                         float* inv_std) {
  double mu = 0.0;
  for (int64_t j = 0; j < n; ++j) mu += x[j];
  mu /= n;
  double var = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    const double d = x[j] - mu;
    var += d * d;
  }
  var /= n;
  const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
  if (inv_std != nullptr) *inv_std = istd;
  for (int64_t j = 0; j < n; ++j) {
    const float xh = (x[j] - static_cast<float>(mu)) * istd;
    if (xhat != nullptr) xhat[j] = xh;
    out[j] = xh * gamma[j] + beta[j];
  }
}

// ---- Fused elementwise chains (static-graph compile targets) ---------------
//
// Each fusion only removes intermediate buffer stores; every element still
// goes through the identical float operation sequence, and a float round-trip
// through memory is lossless, so fused results equal the unfused eager ops
// bit-for-bit (DESIGN §6f).

/// rows x n bias broadcast: y[i, j] = x[i, j] + bias[j] (Linear bias add).
inline void BiasAddRows(const float* x, const float* bias, int64_t rows,
                        int64_t n, float* y) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* xr = x + i * n;
    float* yr = y + i * n;
    for (int64_t j = 0; j < n; ++j) yr[j] = xr[j] + bias[j];
  }
}

/// Fused Linear bias + GELU: y[i, j] = GeluScalar(x[i, j] + bias[j]).
inline void BiasGeluRows(const float* x, const float* bias, int64_t rows,
                         int64_t n, float* y) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* xr = x + i * n;
    float* yr = y + i * n;
    for (int64_t j = 0; j < n; ++j) yr[j] = GeluScalar(xr[j] + bias[j]);
  }
}

/// Fused residual-add + LayerNorm prologue: out row = LN(x + r). The sum is
/// recomputed in each of the three passes instead of being staged in a
/// scratch buffer; float addition is deterministic, so all three passes see
/// identical values.
inline void ResidualLayerNormRow(const float* x, const float* r,
                                 const float* gamma, const float* beta,
                                 int64_t n, float eps, float* out) {
  double mu = 0.0;
  for (int64_t j = 0; j < n; ++j) mu += x[j] + r[j];
  mu /= n;
  double var = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    const double d = (x[j] + r[j]) - mu;
    var += d * d;
  }
  var /= n;
  const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
  for (int64_t j = 0; j < n; ++j) {
    const float xh = ((x[j] + r[j]) - static_cast<float>(mu)) * istd;
    out[j] = xh * gamma[j] + beta[j];
  }
}

/// Fused scale-projection epilogue (Eq. 18): out[i] = (raw[i] + s) * vn[i].
inline void AddScalarMul(const float* raw, float s, const float* vn, int64_t n,
                         float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = (raw[i] + s) * vn[i];
}

/// Fused affine-transfer epilogue (Eq. 16): out = (a + b) + c elementwise,
/// in the eager Add(Add(a, b), c) association order.
inline void Add3(const float* a, const float* b, const float* c, int64_t n,
                 float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = (a[i] + b[i]) + c[i];
}

}  // namespace kernels
}  // namespace tensor
}  // namespace chainsformer

#endif  // CHAINSFORMER_TENSOR_KERNELS_H_
