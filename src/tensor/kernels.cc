#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#define CF_GEMM_X86 1
#include <immintrin.h>
#endif

#include "util/metric_names.h"
#include "util/sync.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace chainsformer {
namespace tensor {
namespace kernels {
namespace {

// Cache blocking: a packed B panel is kKC x kNC floats (128 KiB), sized to
// stay L2-resident while it is streamed over a strip of A rows; the four
// C-row accumulators of a strip (4 x kNC floats) stay in L1.
constexpr int64_t kNC = 256;
constexpr int64_t kKC = 128;

// Minimum multiply-accumulate count per worker task. Below twice this total
// the whole kernel runs inline on the calling thread, so the small matrices
// that dominate chain encoding at d=32 never pay dispatch overhead.
constexpr int64_t kGrainWork = 1 << 18;

cf::Mutex g_pool_mu{"kernels.pool_config"};
int g_threads CF_GUARDED_BY(g_pool_mu) = 1;
std::unique_ptr<ThreadPool> g_pool CF_GUARDED_BY(g_pool_mu);

ThreadPool* Pool() {
  cf::MutexLock lock(g_pool_mu);
  if (!g_pool || g_pool->num_threads() != static_cast<size_t>(g_threads)) {
    g_pool = std::make_unique<ThreadPool>(static_cast<size_t>(g_threads));
  }
  return g_pool.get();
}

// Scalar strip kernel: C[i0:i1, jc:jc+nc] += A[i0:i1, pc:pc+kc] * panel.
// Four C-row accumulators walk the packed panel with a fixed (kk, j) order.
void StripScalar(int64_t i0, int64_t i1, int64_t k, int64_t n, int64_t pc,
                 int64_t jc, int64_t kc, int64_t nc, const float* a,
                 const float* pb, float* c) {
  int64_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const float* __restrict a0 = a + (i + 0) * k + pc;
    const float* __restrict a1 = a + (i + 1) * k + pc;
    const float* __restrict a2 = a + (i + 2) * k + pc;
    const float* __restrict a3 = a + (i + 3) * k + pc;
    float* __restrict c0 = c + (i + 0) * n + jc;
    float* __restrict c1 = c + (i + 1) * n + jc;
    float* __restrict c2 = c + (i + 2) * n + jc;
    float* __restrict c3 = c + (i + 3) * n + jc;
    for (int64_t kk = 0; kk < kc; ++kk) {
      const float* __restrict bp = pb + kk * nc;
      const float av0 = a0[kk], av1 = a1[kk], av2 = a2[kk], av3 = a3[kk];
      for (int64_t j = 0; j < nc; ++j) {
        c0[j] += av0 * bp[j];
        c1[j] += av1 * bp[j];
        c2[j] += av2 * bp[j];
        c3[j] += av3 * bp[j];
      }
    }
  }
  for (; i < i1; ++i) {
    const float* __restrict ar = a + i * k + pc;
    float* __restrict cr = c + i * n + jc;
    for (int64_t kk = 0; kk < kc; ++kk) {
      const float* __restrict bp = pb + kk * nc;
      const float av = ar[kk];
      for (int64_t j = 0; j < nc; ++j) cr[j] += av * bp[j];
    }
  }
}

#ifdef CF_GEMM_X86
bool HasAvx2Fma() {
  static const bool has =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return has;
}

// AVX2 + FMA register-blocked strip kernel (6-row x 16-column tiles, plus
// 8-wide, 4-wide, and scalar-fmaf tails). Every C element is produced by the same
// arithmetic regardless of which tile or tail it falls into: a zeroed
// accumulator, one fused multiply-add per kk in ascending order, then a
// single add into C per panel. fmaf() rounds exactly like one _mm256_fmadd
// lane, so results are invariant to the strip decomposition (threads) and
// to the row count m (a batched GEMM row equals the same row of a smaller
// per-sequence GEMM bit-for-bit).
__attribute__((target("avx2,fma"))) void StripAvx2(
    int64_t i0, int64_t i1, int64_t k, int64_t n, int64_t pc, int64_t jc,
    int64_t kc, int64_t nc, const float* a, const float* pb, float* c) {
  int64_t i = i0;
  for (; i + 6 <= i1; i += 6) {
    int64_t j = 0;
    for (; j + 16 <= nc; j += 16) {
      __m256 acc[12];
      for (auto& v : acc) v = _mm256_setzero_ps();
      for (int64_t kk = 0; kk < kc; ++kk) {
        const float* __restrict bp = pb + kk * nc + j;
        const __m256 b0 = _mm256_loadu_ps(bp);
        const __m256 b1 = _mm256_loadu_ps(bp + 8);
        for (int r = 0; r < 6; ++r) {
          const __m256 av = _mm256_set1_ps(a[(i + r) * k + pc + kk]);
          acc[2 * r] = _mm256_fmadd_ps(av, b0, acc[2 * r]);
          acc[2 * r + 1] = _mm256_fmadd_ps(av, b1, acc[2 * r + 1]);
        }
      }
      for (int r = 0; r < 6; ++r) {
        float* __restrict cr = c + (i + r) * n + jc + j;
        _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), acc[2 * r]));
        _mm256_storeu_ps(
            cr + 8, _mm256_add_ps(_mm256_loadu_ps(cr + 8), acc[2 * r + 1]));
      }
    }
    for (; j + 8 <= nc; j += 8) {
      for (int r = 0; r < 6; ++r) {
        __m256 acc = _mm256_setzero_ps();
        const float* __restrict ar = a + (i + r) * k + pc;
        for (int64_t kk = 0; kk < kc; ++kk) {
          acc = _mm256_fmadd_ps(_mm256_set1_ps(ar[kk]),
                                _mm256_loadu_ps(pb + kk * nc + j), acc);
        }
        float* __restrict cr = c + (i + r) * n + jc + j;
        _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), acc));
      }
    }
    // Tail tiles interleave the six independent row chains inside one kk
    // loop so the FMA latency of one row hides behind the other five; each
    // row's own chain is unchanged, so results stay bit-identical.
    for (; j + 4 <= nc; j += 4) {
      __m128 acc[6];
      for (auto& v : acc) v = _mm_setzero_ps();
      for (int64_t kk = 0; kk < kc; ++kk) {
        const __m128 bv = _mm_loadu_ps(pb + kk * nc + j);
        for (int r = 0; r < 6; ++r) {
          acc[r] = _mm_fmadd_ps(_mm_set1_ps(a[(i + r) * k + pc + kk]), bv,
                                acc[r]);
        }
      }
      for (int r = 0; r < 6; ++r) {
        float* __restrict cr = c + (i + r) * n + jc + j;
        _mm_storeu_ps(cr, _mm_add_ps(_mm_loadu_ps(cr), acc[r]));
      }
    }
    for (; j < nc; ++j) {
      float acc[6] = {};
      for (int64_t kk = 0; kk < kc; ++kk) {
        const float bv = pb[kk * nc + j];
        for (int r = 0; r < 6; ++r) {
          acc[r] = std::fmaf(a[(i + r) * k + pc + kk], bv, acc[r]);
        }
      }
      for (int r = 0; r < 6; ++r) c[(i + r) * n + jc + j] += acc[r];
    }
  }
  for (; i < i1; ++i) {
    int64_t j = 0;
    for (; j + 16 <= nc; j += 16) {
      __m256 lo = _mm256_setzero_ps();
      __m256 hi = _mm256_setzero_ps();
      const float* __restrict ar = a + i * k + pc;
      for (int64_t kk = 0; kk < kc; ++kk) {
        const __m256 av = _mm256_set1_ps(ar[kk]);
        const float* __restrict bp = pb + kk * nc + j;
        lo = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp), lo);
        hi = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp + 8), hi);
      }
      float* __restrict cr = c + i * n + jc + j;
      _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), lo));
      _mm256_storeu_ps(cr + 8, _mm256_add_ps(_mm256_loadu_ps(cr + 8), hi));
    }
    for (; j + 8 <= nc; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      const float* __restrict ar = a + i * k + pc;
      for (int64_t kk = 0; kk < kc; ++kk) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(ar[kk]),
                              _mm256_loadu_ps(pb + kk * nc + j), acc);
      }
      float* __restrict cr = c + i * n + jc + j;
      _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), acc));
    }
    for (; j + 4 <= nc; j += 4) {
      __m128 acc = _mm_setzero_ps();
      const float* __restrict ar = a + i * k + pc;
      for (int64_t kk = 0; kk < kc; ++kk) {
        acc = _mm_fmadd_ps(_mm_set1_ps(ar[kk]),
                           _mm_loadu_ps(pb + kk * nc + j), acc);
      }
      float* __restrict cr = c + i * n + jc + j;
      _mm_storeu_ps(cr, _mm_add_ps(_mm_loadu_ps(cr), acc));
    }
    for (; j < nc; ++j) {
      float acc = 0.0f;
      const float* __restrict ar = a + i * k + pc;
      for (int64_t kk = 0; kk < kc; ++kk) {
        acc = std::fmaf(ar[kk], pb[kk * nc + j], acc);
      }
      c[i * n + jc + j] += acc;
    }
  }
}
#endif  // CF_GEMM_X86

// C[i0:i1, :] += A[i0:i1, :] * B for row-major A[.,k], B[k,n], C[.,n].
// Blocked loops over (jc, pc) with B packed per panel; within one build,
// every row's accumulation order is fixed and independent of the strip
// decomposition, which is what makes threaded output bitwise equal to
// single-threaded output — and batched rows bitwise equal to the same rows
// of a smaller GEMM. The compute strip dispatches to the AVX2+FMA
// microkernel when the CPU supports it, with the portable scalar strip as
// the fallback.
void GemmCoreRows(int64_t i0, int64_t i1, int64_t k, int64_t n, const float* a,
                  const float* b, float* c) {
  thread_local std::vector<float> pack;
#ifdef CF_GEMM_X86
  const bool avx2 = HasAvx2Fma();
#endif
  // When n fits in one column block the B panel's natural row stride already
  // equals the packed stride (nc == n), so the strips can read B in place
  // and the packing copy is skipped. Same values, same order — bit-identical.
  const bool pack_needed = n > kNC;
  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nc = std::min(kNC, n - jc);
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      const float* pb = b + pc * n + jc;
      if (pack_needed) {
        pack.resize(static_cast<size_t>(kc * nc));
        float* dst = pack.data();
        for (int64_t kk = 0; kk < kc; ++kk) {
          const float* src = b + (pc + kk) * n + jc;
          std::copy(src, src + nc, dst + kk * nc);
        }
        pb = dst;
      }
#ifdef CF_GEMM_X86
      if (avx2) {
        StripAvx2(i0, i1, k, n, pc, jc, kc, nc, a, pb, c);
        continue;
      }
#endif
      StripScalar(i0, i1, k, n, pc, jc, kc, nc, a, pb, c);
    }
  }
}

// ---- Reduced-precision cores (DESIGN §6g) ----------------------------------

// Scalar int8 dot-product core over rows [i0, i1) of the interleaved tiled
// layout ([np/8][kp/4][8 cols][4 k]): exact int32 accumulation, so the SIMD
// variants below (AVX2 maddubs, VNNI vpdpbusd) produce bitwise-identical
// results.
void Int8RowsScalar(int64_t i0, int64_t i1, int64_t kp, int64_t np,
                    const int8_t* bt, const uint8_t* qa, int32_t* acc) {
  const int64_t kq = kp / kInt8KChunk;
  for (int64_t i = i0; i < i1; ++i) {
    const uint8_t* __restrict ar = qa + i * kp;
    int32_t* __restrict cr = acc + i * np;
    for (int64_t g = 0; g < np / kInt8ColGroup; ++g) {
      const int8_t* __restrict bg = bt + g * kq * 32;
      for (int64_t jl = 0; jl < kInt8ColGroup; ++jl) {
        int32_t s = 0;
        for (int64_t kk = 0; kk < kp; ++kk) {
          s += static_cast<int32_t>(ar[kk]) *
               static_cast<int32_t>(bg[(kk / 4) * 32 + jl * 4 + (kk % 4)]);
        }
        cr[g * kInt8ColGroup + jl] = s;
      }
    }
  }
}

#ifdef CF_GEMM_X86
// Broadcast 4 consecutive activation codes into every 32-bit lane; pairs with
// one 32-byte weight tile ([8 cols][4 k]) so a single dot step advances 8
// output columns by 4 depth values — accumulators ARE the output, no
// horizontal reductions.
__attribute__((target("avx2"))) inline __m256i BroadcastA4(const uint8_t* p) {
  int32_t w;
  std::memcpy(&w, p, sizeof(w));
  return _mm256_set1_epi32(w);
}

// AVX2 int8 dot core: vpmaddubsw (u8 x s8 -> pairwise s16 sums; activations
// are 7-bit and weights avoid -128, so the pair sums cannot saturate) widened
// via vpmaddwd against ones. 4-row x 16-column register blocks; the row tail
// runs the same tile loop one row at a time; there is no column tail (n is
// padded to the group width).
__attribute__((target("avx2"))) void Int8RowsAvx2(int64_t i0, int64_t i1,
                                                  int64_t kp, int64_t np,
                                                  const int8_t* bt,
                                                  const uint8_t* qa,
                                                  int32_t* acc) {
  const __m256i ones = _mm256_set1_epi16(1);
  const int64_t kq = kp / kInt8KChunk;
  const int64_t ngroups = np / kInt8ColGroup;
  int64_t g = 0;
  for (; g + 2 <= ngroups; g += 2) {
    const int8_t* __restrict b0p = bt + (g + 0) * kq * 32;
    const int8_t* __restrict b1p = bt + (g + 1) * kq * 32;
    int64_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      __m256i s[8];
      for (auto& v : s) v = _mm256_setzero_si256();
      for (int64_t q = 0; q < kq; ++q) {
        const __m256i b0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(b0p + q * 32));
        const __m256i b1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(b1p + q * 32));
        for (int r = 0; r < 4; ++r) {
          const __m256i av = BroadcastA4(qa + (i + r) * kp + q * 4);
          s[2 * r] = _mm256_add_epi32(
              s[2 * r], _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones));
          s[2 * r + 1] = _mm256_add_epi32(
              s[2 * r + 1],
              _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones));
        }
      }
      for (int r = 0; r < 4; ++r) {
        int32_t* __restrict cr = acc + (i + r) * np + g * kInt8ColGroup;
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr), s[2 * r]);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr + 8), s[2 * r + 1]);
      }
    }
    for (; i < i1; ++i) {
      __m256i s0 = _mm256_setzero_si256();
      __m256i s1 = _mm256_setzero_si256();
      for (int64_t q = 0; q < kq; ++q) {
        const __m256i av = BroadcastA4(qa + i * kp + q * 4);
        const __m256i b0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(b0p + q * 32));
        const __m256i b1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(b1p + q * 32));
        s0 = _mm256_add_epi32(
            s0, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones));
        s1 = _mm256_add_epi32(
            s1, _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones));
      }
      int32_t* __restrict cr = acc + i * np + g * kInt8ColGroup;
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr), s0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr + 8), s1);
    }
  }
  if (g < ngroups) {
    const int8_t* __restrict bp = bt + g * kq * 32;
    for (int64_t i = i0; i < i1; ++i) {
      __m256i s0 = _mm256_setzero_si256();
      for (int64_t q = 0; q < kq; ++q) {
        const __m256i av = BroadcastA4(qa + i * kp + q * 4);
        const __m256i bv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(bp + q * 32));
        s0 = _mm256_add_epi32(
            s0, _mm256_madd_epi16(_mm256_maddubs_epi16(av, bv), ones));
      }
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(acc + i * np + g * kInt8ColGroup), s0);
    }
  }
}

// VNNI int8 dot core: one vpdpbusd per (8 columns x 4 depth) tile, same
// blocking and exact int32 arithmetic as the AVX2 core.
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) void
Int8RowsVnni(int64_t i0, int64_t i1, int64_t kp, int64_t np, const int8_t* bt,
             const uint8_t* qa, int32_t* acc) {
  const int64_t kq = kp / kInt8KChunk;
  const int64_t ngroups = np / kInt8ColGroup;
  int64_t g = 0;
  for (; g + 2 <= ngroups; g += 2) {
    const int8_t* __restrict b0p = bt + (g + 0) * kq * 32;
    const int8_t* __restrict b1p = bt + (g + 1) * kq * 32;
    int64_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      __m256i s[8];
      for (auto& v : s) v = _mm256_setzero_si256();
      for (int64_t q = 0; q < kq; ++q) {
        const __m256i b0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(b0p + q * 32));
        const __m256i b1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(b1p + q * 32));
        for (int r = 0; r < 4; ++r) {
          const __m256i av = BroadcastA4(qa + (i + r) * kp + q * 4);
          s[2 * r] = _mm256_dpbusd_epi32(s[2 * r], av, b0);
          s[2 * r + 1] = _mm256_dpbusd_epi32(s[2 * r + 1], av, b1);
        }
      }
      for (int r = 0; r < 4; ++r) {
        int32_t* __restrict cr = acc + (i + r) * np + g * kInt8ColGroup;
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr), s[2 * r]);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr + 8), s[2 * r + 1]);
      }
    }
    for (; i < i1; ++i) {
      __m256i s0 = _mm256_setzero_si256();
      __m256i s1 = _mm256_setzero_si256();
      for (int64_t q = 0; q < kq; ++q) {
        const __m256i av = BroadcastA4(qa + i * kp + q * 4);
        const __m256i b0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(b0p + q * 32));
        const __m256i b1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(b1p + q * 32));
        s0 = _mm256_dpbusd_epi32(s0, av, b0);
        s1 = _mm256_dpbusd_epi32(s1, av, b1);
      }
      int32_t* __restrict cr = acc + i * np + g * kInt8ColGroup;
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr), s0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr + 8), s1);
    }
  }
  if (g < ngroups) {
    const int8_t* __restrict bp = bt + g * kq * 32;
    for (int64_t i = i0; i < i1; ++i) {
      __m256i s0 = _mm256_setzero_si256();
      for (int64_t q = 0; q < kq; ++q) {
        const __m256i av = BroadcastA4(qa + i * kp + q * 4);
        const __m256i bv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(bp + q * 32));
        s0 = _mm256_dpbusd_epi32(s0, av, bv);
      }
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(acc + i * np + g * kInt8ColGroup), s0);
    }
  }
}

bool HasVnni() {
  static const bool has = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512bw") &&
                          __builtin_cpu_supports("avx512vl") &&
                          __builtin_cpu_supports("avx512vnni");
  return has;
}

// AVX2 row min/max: comparisons only, so the lane order cannot change the
// result — bitwise identical to the scalar reduction. Returns the number of
// leading elements consumed; the caller folds the tail in scalar.
__attribute__((target("avx2"))) int64_t MinMaxRowAvx2(const float* x,
                                                      int64_t k, float* mn_out,
                                                      float* mx_out) {
  if (k < 16) return 0;
  __m256 mn0 = _mm256_loadu_ps(x);
  __m256 mx0 = mn0;
  __m256 mn1 = _mm256_loadu_ps(x + 8);
  __m256 mx1 = mn1;
  int64_t kk = 16;
  for (; kk + 16 <= k; kk += 16) {
    const __m256 v0 = _mm256_loadu_ps(x + kk);
    const __m256 v1 = _mm256_loadu_ps(x + kk + 8);
    mn0 = _mm256_min_ps(mn0, v0);
    mx0 = _mm256_max_ps(mx0, v0);
    mn1 = _mm256_min_ps(mn1, v1);
    mx1 = _mm256_max_ps(mx1, v1);
  }
  for (; kk + 8 <= k; kk += 8) {
    const __m256 v0 = _mm256_loadu_ps(x + kk);
    mn0 = _mm256_min_ps(mn0, v0);
    mx0 = _mm256_max_ps(mx0, v0);
  }
  mn0 = _mm256_min_ps(mn0, mn1);
  mx0 = _mm256_max_ps(mx0, mx1);
  __m128 n = _mm_min_ps(_mm256_castps256_ps128(mn0),
                        _mm256_extractf128_ps(mn0, 1));
  n = _mm_min_ps(n, _mm_movehl_ps(n, n));
  n = _mm_min_ss(n, _mm_shuffle_ps(n, n, 1));
  __m128 xx = _mm_max_ps(_mm256_castps256_ps128(mx0),
                         _mm256_extractf128_ps(mx0, 1));
  xx = _mm_max_ps(xx, _mm_movehl_ps(xx, xx));
  xx = _mm_max_ss(xx, _mm_shuffle_ps(xx, xx, 1));
  *mn_out = _mm_cvtss_f32(n);
  *mx_out = _mm_cvtss_f32(xx);
  return kk;
}

// AVX2 activation-row quantization inner loop: 8 codes per iteration via
// cvtps (round-to-nearest-even, exactly like the scalar lrintf), clamped to
// [0, 127] before the lossless narrowing packs.
__attribute__((target("avx2"))) int64_t QuantizeRowAvx2(const float* x,
                                                        int64_t k, float mn,
                                                        float inv,
                                                        uint8_t* q) {
  const __m256 vmn = _mm256_set1_ps(mn);
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i lo = _mm256_setzero_si256();
  const __m256i hi = _mm256_set1_epi32(127);
  int64_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    const __m256 v = _mm256_mul_ps(
        _mm256_sub_ps(_mm256_loadu_ps(x + kk), vmn), vinv);
    __m256i r = _mm256_cvtps_epi32(v);
    r = _mm256_min_epi32(_mm256_max_epi32(r, lo), hi);
    const __m128i a = _mm256_castsi256_si128(r);
    const __m128i b = _mm256_extracti128_si256(r, 1);
    const __m128i s16 = _mm_packs_epi32(a, b);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + kk),
                     _mm_packus_epi16(s16, s16));
  }
  return kk;
}

// AVX2 dequant epilogue: the same fmaf(acc, sa*sw, fmaf(mn, od, bias))
// expression as the scalar tail, eight elements at a time.
__attribute__((target("avx2,fma"))) int64_t DequantRowAvx2(
    const int32_t* acc, float sa, float mn, const float* sw, const float* od,
    const float* bias, int64_t n, float* c) {
  const __m256 vsa = _mm256_set1_ps(sa);
  const __m256 vmn = _mm256_set1_ps(mn);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 a = _mm256_cvtepi32_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + j)));
    const __m256 off = _mm256_fmadd_ps(vmn, _mm256_loadu_ps(od + j),
                                       _mm256_loadu_ps(bias + j));
    const __m256 v = _mm256_fmadd_ps(
        a, _mm256_mul_ps(vsa, _mm256_loadu_ps(sw + j)), off);
    _mm256_storeu_ps(c + j, v);
  }
  return j;
}
#endif  // CF_GEMM_X86

void Int8CoreRows(int64_t i0, int64_t i1, const Int8Pack& b, const uint8_t* qa,
                  int32_t* acc) {
#ifdef CF_GEMM_X86
  if (HasVnni()) {
    Int8RowsVnni(i0, i1, b.k_padded, b.n_padded, b.data.data(), qa, acc);
    return;
  }
  if (HasAvx2Fma()) {
    Int8RowsAvx2(i0, i1, b.k_padded, b.n_padded, b.data.data(), qa, acc);
    return;
  }
#endif
  Int8RowsScalar(i0, i1, b.k_padded, b.n_padded, b.data.data(), qa, acc);
}

// dst[cols, rows] = src[rows, cols]^T, blocked for cache locality.
void TransposeInto(const float* src, int64_t rows, int64_t cols, float* dst) {
  constexpr int64_t kB = 32;
  for (int64_t i0 = 0; i0 < rows; i0 += kB) {
    const int64_t i1 = std::min(rows, i0 + kB);
    for (int64_t j0 = 0; j0 < cols; j0 += kB) {
      const int64_t j1 = std::min(cols, j0 + kB);
      for (int64_t i = i0; i < i1; ++i) {
        for (int64_t j = j0; j < j1; ++j) dst[j * rows + i] = src[i * cols + j];
      }
    }
  }
}

}  // namespace

void SetKernelThreads(int n) {
  if (n <= 0) {
    n = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  cf::MutexLock lock(g_pool_mu);
  g_threads = n;
}

int KernelThreads() {
  cf::MutexLock lock(g_pool_mu);
  return g_threads;
}

void ParallelRanges(int64_t n, int64_t cost_per_item,
                    const std::function<void(int64_t, int64_t)>& fn) {
  // Dispatch-decision metrics for the kernel layer: how often a GEMM ran
  // inline vs. was sliced onto the pool, and how coarse the slices were.
  static auto* inline_dispatches =
      metrics::MetricsRegistry::Global().GetCounter(metrics::names::kKernelsDispatchInline);
  static auto* pooled_dispatches =
      metrics::MetricsRegistry::Global().GetCounter(metrics::names::kKernelsDispatchPooled);
  static auto* tasks_dispatched =
      metrics::MetricsRegistry::Global().GetCounter(metrics::names::kKernelsTasksDispatched);
  static auto* rows_per_dispatch =
      metrics::MetricsRegistry::Global().GetHistogram(
          metrics::names::kKernelsRowsPerDispatch);
  if (n <= 0) return;
  const int64_t cost = std::max<int64_t>(cost_per_item, 1);
  const int threads = KernelThreads();
  const double total = static_cast<double>(n) * static_cast<double>(cost);
  if (threads <= 1 || total < 2.0 * static_cast<double>(kGrainWork)) {
    inline_dispatches->Increment();
    fn(0, n);
    return;
  }
  int64_t num_ranges = std::min<int64_t>(
      threads, static_cast<int64_t>(total / static_cast<double>(kGrainWork)));
  num_ranges = std::clamp<int64_t>(num_ranges, 1, n);
  if (num_ranges <= 1) {
    inline_dispatches->Increment();
    fn(0, n);
    return;
  }
  pooled_dispatches->Increment();
  tasks_dispatched->Increment(num_ranges);
  rows_per_dispatch->Observe(static_cast<double>(n));
  CF_TRACE_SCOPE("kernels.gemm_pooled");
  const size_t grain =
      static_cast<size_t>((n + num_ranges - 1) / num_ranges);
  Pool()->ParallelForRanges(
      static_cast<size_t>(n), grain, [&fn](size_t begin, size_t end) {
        fn(static_cast<int64_t>(begin), static_cast<int64_t>(end));
      });
}

int64_t CountNonFinite(const float* x, int64_t n) {
  std::atomic<int64_t> total{0};
  // A float is non-finite iff its exponent field is all ones; comparing the
  // masked bits keeps the inner loop branch-free (auto-vectorizable) and,
  // unlike std::isfinite, immune to -ffast-math surprises.
  ParallelRanges(n, 1, [&total, x](int64_t begin, int64_t end) {
    int64_t local = 0;
    for (int64_t i = begin; i < end; ++i) {
      uint32_t bits;
      std::memcpy(&bits, &x[i], sizeof(bits));
      local += static_cast<int64_t>((bits & 0x7F800000u) == 0x7F800000u);
    }
    total.fetch_add(local, std::memory_order_relaxed);
  });
  return total.load(std::memory_order_relaxed);
}

void GemmAcc(int64_t m, int64_t k, int64_t n, const float* a, const float* b,
             float* c) {
  ParallelRanges(m, k * n, [=](int64_t i0, int64_t i1) {
    GemmCoreRows(i0, i1, k, n, a, b, c);
  });
}

void GemmAccSerial(int64_t m, int64_t k, int64_t n, const float* a,
                   const float* b, float* c) {
  GemmCoreRows(0, m, k, n, a, b, c);
}

void GemmBtAcc(int64_t m, int64_t k, int64_t n, const float* g, const float* b,
               float* c) {
  // C[m,k] += G[m,n] * B[k,n]^T == G[m,n] * Bt[n,k] with Bt row-major, so
  // one explicit transpose turns both backward products into the forward
  // core (contiguous inner loops instead of strided column walks).
  std::vector<float> bt(static_cast<size_t>(n * k));
  TransposeInto(b, k, n, bt.data());
  const float* btp = bt.data();
  ParallelRanges(m, n * k, [=](int64_t i0, int64_t i1) {
    GemmCoreRows(i0, i1, n, k, g, btp, c);
  });
}

void GemmBtAccSerial(int64_t m, int64_t k, int64_t n, const float* g,
                     const float* b, float* c) {
  std::vector<float> bt(static_cast<size_t>(n * k));
  TransposeInto(b, k, n, bt.data());
  GemmCoreRows(0, m, n, k, g, bt.data(), c);
}

void GemmAtAcc(int64_t m, int64_t k, int64_t n, const float* a, const float* g,
               float* c) {
  // C[k,n] += A[m,k]^T * G[m,n] == At[k,m] * G[m,n].
  std::vector<float> at(static_cast<size_t>(k * m));
  TransposeInto(a, m, k, at.data());
  const float* atp = at.data();
  ParallelRanges(k, m * n, [=](int64_t k0, int64_t k1) {
    GemmCoreRows(k0, k1, m, n, atp, g, c);
  });
}

void GemmAtAccSerial(int64_t m, int64_t k, int64_t n, const float* a,
                     const float* g, float* c) {
  std::vector<float> at(static_cast<size_t>(k * m));
  TransposeInto(a, m, k, at.data());
  GemmCoreRows(0, k, m, n, at.data(), g, c);
}

bool Int8GemmAccelerated() {
#ifdef CF_GEMM_X86
  return HasVnni() || HasAvx2Fma();
#else
  return false;
#endif
}

void QuantizeWeightsInt8(int64_t k, int64_t n, const float* b, int8_t* q,
                         float* scale) {
  for (int64_t j = 0; j < n; ++j) {
    float maxabs = 0.0f;
    for (int64_t i = 0; i < k; ++i) {
      maxabs = std::max(maxabs, std::fabs(b[i * n + j]));
    }
    // Codes stay in [-127, 127]: -128 never appears, so the u8 x s8 pair
    // sums in the AVX2 maddubs path cannot saturate int16.
    scale[j] = maxabs / 127.0f;
    const float inv = maxabs > 0.0f ? 127.0f / maxabs : 0.0f;
    for (int64_t i = 0; i < k; ++i) {
      const long r = lrintf(b[i * n + j] * inv);
      q[i * n + j] = static_cast<int8_t>(std::clamp<long>(r, -127, 127));
    }
  }
}

Int8Pack PackInt8Weights(int64_t k, int64_t n, const int8_t* q,
                         const float* scale) {
  Int8Pack pack;
  pack.k = k;
  pack.n = n;
  pack.k_padded = Int8PaddedDepth(k);
  pack.n_padded = Int8PaddedCols(n);
  const int64_t kq = pack.k_padded / kInt8KChunk;
  pack.data.assign(static_cast<size_t>((pack.n_padded / kInt8ColGroup) * kq) *
                       32,
                   0);
  pack.scale.assign(scale, scale + n);
  pack.offset_dot.resize(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) {
    int64_t col_sum = 0;
    int8_t* __restrict dst =
        pack.data.data() + (j / kInt8ColGroup) * kq * 32 + (j % kInt8ColGroup) * 4;
    for (int64_t i = 0; i < k; ++i) {
      dst[(i / 4) * 32 + (i % 4)] = q[i * n + j];
      col_sum += q[i * n + j];
    }
    // Row-offset correction term: min_i * scale[j] * sum_k qw[k][j] folds the
    // activation zero point into one fmaf per output element at dequant time.
    pack.offset_dot[static_cast<size_t>(j)] =
        pack.scale[static_cast<size_t>(j)] * static_cast<float>(col_sum);
  }
  return pack;
}

void QuantizeActivationRows(int64_t m, int64_t k, int64_t k_padded,
                            const float* a, uint8_t* q, float* row_scale,
                            float* row_min) {
#ifdef CF_GEMM_X86
  const bool avx2 = HasAvx2Fma();
#endif
  for (int64_t i = 0; i < m; ++i) {
    const float* __restrict ar = a + i * k;
    uint8_t* __restrict qr = q + i * k_padded;
    float mn = ar[0], mx = ar[0];
    int64_t mm = 0;
#ifdef CF_GEMM_X86
    if (avx2) mm = MinMaxRowAvx2(ar, k, &mn, &mx);
#endif
    for (int64_t kk = std::max<int64_t>(mm, 1); kk < k; ++kk) {
      mn = std::min(mn, ar[kk]);
      mx = std::max(mx, ar[kk]);
    }
    const float range = mx - mn;
    // 7-bit codes [0, 127]: with weight codes capped at |127| the maddubs
    // pair sums stay <= 2 * 127 * 127 < INT16_MAX. A constant row
    // (range == 0) maps to scale 0 / all-zero codes and is reconstructed
    // exactly by the offset_dot term.
    row_scale[i] = range / 127.0f;
    row_min[i] = mn;
    const float inv = range > 0.0f ? 127.0f / range : 0.0f;
    int64_t kk = 0;
#ifdef CF_GEMM_X86
    if (avx2) kk = QuantizeRowAvx2(ar, k, mn, inv, qr);
#endif
    for (; kk < k; ++kk) {
      const long r = lrintf((ar[kk] - mn) * inv);
      qr[kk] = static_cast<uint8_t>(std::clamp<long>(r, 0, 127));
    }
    // Zero padding codes multiply zero weight padding: no contribution.
    for (kk = k; kk < k_padded; ++kk) qr[kk] = 0;
  }
}

void Int8GemmI32Serial(int64_t m, const Int8Pack& b, const uint8_t* qa,
                       int32_t* acc) {
  Int8CoreRows(0, m, b, qa, acc);
}

void Int8GemmI32(int64_t m, const Int8Pack& b, const uint8_t* qa,
                 int32_t* acc) {
  ParallelRanges(m, b.k_padded * b.n, [&b, qa, acc](int64_t i0, int64_t i1) {
    Int8CoreRows(i0, i1, b, qa, acc);
  });
}

void Int8GemmI32Reference(int64_t m, const Int8Pack& b, const uint8_t* qa,
                          int32_t* acc) {
  Int8RowsScalar(0, m, b.k_padded, b.n_padded, b.data.data(), qa, acc);
}

void DequantBiasRows(int64_t m, const Int8Pack& b, const int32_t* acc,
                     const float* row_scale, const float* row_min,
                     const float* bias, bool gelu, float* c) {
  const int64_t n = b.n;
  const float* __restrict sw = b.scale.data();
  const float* __restrict od = b.offset_dot.data();
  for (int64_t i = 0; i < m; ++i) {
    const int32_t* __restrict ai = acc + i * b.n_padded;
    float* __restrict cr = c + i * n;
    const float sa = row_scale[i];
    const float mn = row_min[i];
    int64_t j = 0;
#ifdef CF_GEMM_X86
    if (HasAvx2Fma()) j = DequantRowAvx2(ai, sa, mn, sw, od, bias, n, cr);
#endif
    // Same expression as the AVX2 epilogue, one fmaf chain per element:
    // C = acc * (sa * sw) + (mn * offset_dot + bias).
    for (; j < n; ++j) {
      cr[j] = std::fmaf(static_cast<float>(ai[j]), sa * sw[j],
                        std::fmaf(mn, od[j], bias[j]));
    }
    if (gelu) {
      for (j = 0; j < n; ++j) cr[j] = GeluScalar(cr[j]);
    }
  }
}

}  // namespace kernels
}  // namespace tensor
}  // namespace chainsformer
