#include "graph/executor.h"

#include <algorithm>
#include <cstring>

#include "core/numeric_encoding.h"
#include "tensor/kernels.h"
#include "util/logging.h"

namespace chainsformer {
namespace graph {

namespace kernels = tensor::kernels;

namespace {

template <typename T>
void GrowTo(std::vector<T>& v, int64_t n) {
  if (static_cast<int64_t>(v.size()) < n) v.resize(static_cast<size_t>(n));
}

}  // namespace

void PlanExecutor::Fit(const Plan& p) {
  GrowTo(arena_, p.arena_floats);
  if (p.program == Program::kEncoder) {
    GrowTo(tokens_, p.chains * p.max_len);
    GrowTo(positions_, p.chains * p.max_len);
    GrowTo(end_rows_, p.chains);
  } else {
    GrowTo(lengths_, p.chains);
  }
  GrowTo(qa_, p.quant_qa_elems);
  GrowTo(qacc_, p.quant_acc_elems);
  GrowTo(qrow_scale_, p.quant_rows);
  GrowTo(qrow_min_, p.quant_rows);
}

const int64_t* PlanExecutor::IndexData(IndexArray which) const {
  switch (which) {
    case IndexArray::kTokens:
      return tokens_.data();
    case IndexArray::kPositions:
      return positions_.data();
    case IndexArray::kEndRows:
      return end_rows_.data();
    case IndexArray::kLengths:
      return lengths_.data();
  }
  return nullptr;
}

void PlanExecutor::BindEncoder(const Plan& p,
                               std::span<const core::RAChain* const> chains) {
  CF_CHECK(p.program == Program::kEncoder);
  CF_CHECK_LE(static_cast<int64_t>(chains.size()), p.chains);
  const int64_t nr = p.num_relation_ids;
  const int64_t end_token = nr + p.num_attributes;
  float* mask = arena_.data() + p.mask_offset;
  for (int64_t i = 0; i < p.chains; ++i) {
    int64_t* toks = tokens_.data() + i * p.max_len;
    int64_t* poss = positions_.data() + i * p.max_len;
    float* mrow = mask + i * p.max_len;
    int64_t len = 0;  // padding rows beyond the chains stay fully masked
    if (i < static_cast<int64_t>(chains.size())) {
      const core::RAChain& c = *chains[static_cast<size_t>(i)];
      len = c.num_tokens();
      CF_CHECK_LE(len, p.max_len);
      // ChainEncoder::Tokenize: source attribute, relations tail-to-head,
      // query attribute, end token.
      int64_t t = 0;
      toks[t++] = nr + c.source_attribute;
      for (auto it = c.relations.rbegin(); it != c.relations.rend(); ++it) {
        toks[t++] = *it;
      }
      toks[t++] = nr + c.query_attribute;
      toks[t++] = end_token;
      CF_CHECK_EQ(t, len);
    }
    for (int64_t pos = 0; pos < p.max_len; ++pos) {
      if (pos < len) {
        poss[pos] = std::min(pos, p.max_position - 1);
        mrow[pos] = 1.0f;
      } else {
        toks[pos] = end_token;
        poss[pos] = 0;
        mrow[pos] = 0.0f;
      }
    }
    end_rows_[static_cast<size_t>(i)] =
        i * p.max_len + std::max<int64_t>(len - 1, 0);
  }
}

void PlanExecutor::BindReasoner(const Plan& p,
                                const core::TreeOfChains& chains) {
  CF_CHECK(p.program == Program::kReasoner);
  CF_CHECK_EQ(static_cast<int64_t>(chains.size()), p.chains);
  float* bits = p.bits_offset >= 0 ? arena_.data() + p.bits_offset : nullptr;
  float* vn = arena_.data() + p.vn_offset;
  for (int64_t i = 0; i < p.chains; ++i) {
    const core::RAChain& c = chains[static_cast<size_t>(i)];
    lengths_[static_cast<size_t>(i)] =
        std::clamp<int64_t>(c.length(), 0, p.length_buckets - 1);
    if (bits != nullptr) {
      if (p.numeric_encoding == core::NumericEncoding::kFloat64Bits) {
        core::EncodeFloat64BitsInto(c.source_value, bits + i * 64);
      } else {
        core::EncodeLogFeaturesInto(c.source_value, bits + i * 64);
      }
    }
    CF_CHECK_LT(static_cast<size_t>(c.source_attribute),
                p.train_stats->size());
    vn[i] = static_cast<float>(
        (*p.train_stats)[static_cast<size_t>(c.source_attribute)].Normalize(
            c.source_value));
  }
}

const float* PlanExecutor::RunEncoder(
    const Plan& plan, std::span<const core::RAChain* const> chains) {
  Fit(plan);
  BindEncoder(plan, chains);
  Execute(plan);
  return arena_.data() + plan.result_offset;
}

const float* PlanExecutor::RunEncoder(const Plan& plan,
                                      const core::TreeOfChains& chains) {
  chain_ptrs_.clear();
  for (const core::RAChain& c : chains) chain_ptrs_.push_back(&c);
  return RunEncoder(plan, std::span<const core::RAChain* const>(chain_ptrs_));
}

float* PlanExecutor::Rows(const Plan& plan) {
  CF_CHECK(plan.program == Program::kReasoner);
  Fit(plan);
  return arena_.data() + plan.rows_offset;
}

float PlanExecutor::RunReasoner(const Plan& plan,
                                const core::TreeOfChains& chains) {
  Fit(plan);
  BindReasoner(plan, chains);
  Execute(plan);
  return arena_[static_cast<size_t>(plan.result_offset)];
}

void PlanExecutor::Execute(const Plan& plan) {
  float* a = arena_.data();
  for (const Step& st : plan.steps) {
    switch (st.kind) {
      case StepKind::kGatherTable: {
        const int64_t* idx = IndexData(st.index);
        float* out = a + st.out;
        for (int64_t r = 0; r < st.m; ++r) {
          std::memcpy(out + r * st.n, st.w0 + idx[r] * st.n,
                      static_cast<size_t>(st.n) * sizeof(float));
        }
        break;
      }
      case StepKind::kGatherRows: {
        const int64_t* idx = IndexData(st.index);
        const float* in = a + st.in0;
        float* out = a + st.out;
        for (int64_t r = 0; r < st.m; ++r) {
          std::memcpy(out + r * st.n, in + idx[r] * st.n,
                      static_cast<size_t>(st.n) * sizeof(float));
        }
        break;
      }
      case StepKind::kAdd: {
        const float* x = a + st.in0;
        const float* y = a + st.in1;
        float* out = a + st.out;
        for (int64_t i = 0; i < st.m; ++i) out[i] = x[i] + y[i];
        break;
      }
      case StepKind::kMulEw: {
        const float* x = a + st.in0;
        const float* y = a + st.in1;
        float* out = a + st.out;
        for (int64_t i = 0; i < st.m; ++i) out[i] = x[i] * y[i];
        break;
      }
      case StepKind::kAddScalar: {
        const float* x = a + st.in0;
        float* out = a + st.out;
        for (int64_t i = 0; i < st.m; ++i) out[i] = x[i] + st.scalar;
        break;
      }
      case StepKind::kBiasAdd:
        kernels::BiasAddRows(a + st.in0, st.w0, st.m, st.n, a + st.out);
        break;
      case StepKind::kBiasGelu:
        kernels::BiasGeluRows(a + st.in0, st.w0, st.m, st.n, a + st.out);
        break;
      case StepKind::kGemm: {
        float* out = a + st.out;
        std::fill(out, out + st.m * st.n, 0.0f);
        kernels::GemmAccSerial(st.m, st.k, st.n, a + st.in0, st.w0, out);
        break;
      }
      case StepKind::kBatchMatMul: {
        const float* x = a + st.in0;
        const float* y = a + st.in1;
        float* out = a + st.out;
        std::fill(out, out + st.extra * st.m * st.n, 0.0f);
        for (int64_t b = 0; b < st.extra; ++b) {
          kernels::GemmAccSerial(st.m, st.k, st.n, x + b * st.m * st.k,
                                 y + b * st.k * st.n, out + b * st.m * st.n);
        }
        break;
      }
      case StepKind::kScale: {
        const float* x = a + st.in0;
        float* out = a + st.out;
        for (int64_t i = 0; i < st.m; ++i) out[i] = x[i] * st.scalar;
        break;
      }
      case StepKind::kSoftmaxRows: {
        const float* x = a + st.in0;
        float* out = a + st.out;
        for (int64_t r = 0; r < st.m; ++r) {
          kernels::SoftmaxRow(x + r * st.n, st.n, out + r * st.n);
        }
        break;
      }
      case StepKind::kMaskedSoftmaxRows: {
        const float* x = a + st.in0;
        const float* mask = a + st.in1;
        float* out = a + st.out;
        for (int64_t r = 0; r < st.m; ++r) {
          kernels::MaskedSoftmaxRow(x + r * st.n, mask + (r / st.extra) * st.n,
                                    st.n, out + r * st.n);
        }
        break;
      }
      case StepKind::kResidualLayerNorm: {
        const float* x = a + st.in0;
        const float* res = a + st.in1;
        float* out = a + st.out;
        for (int64_t r = 0; r < st.m; ++r) {
          kernels::ResidualLayerNormRow(x + r * st.n, res + r * st.n, st.w0,
                                        st.w1, st.n, st.scalar, out + r * st.n);
        }
        break;
      }
      case StepKind::kSplitHeads: {
        const float* in = a + st.in0;
        float* out = a + st.out;
        for (int64_t b = 0; b < st.m; ++b) {
          for (int64_t h = 0; h < st.extra; ++h) {
            for (int64_t s = 0; s < st.k; ++s) {
              std::memcpy(out + ((b * st.extra + h) * st.k + s) * st.n,
                          in + (b * st.k + s) * st.extra * st.n + h * st.n,
                          static_cast<size_t>(st.n) * sizeof(float));
            }
          }
        }
        break;
      }
      case StepKind::kMergeHeads: {
        const float* in = a + st.in0;
        float* out = a + st.out;
        for (int64_t b = 0; b < st.m; ++b) {
          for (int64_t h = 0; h < st.extra; ++h) {
            for (int64_t s = 0; s < st.k; ++s) {
              std::memcpy(out + (b * st.k + s) * st.extra * st.n + h * st.n,
                          in + ((b * st.extra + h) * st.k + s) * st.n,
                          static_cast<size_t>(st.n) * sizeof(float));
            }
          }
        }
        break;
      }
      case StepKind::kPermute3: {
        const float* in = a + st.in0;
        float* out = a + st.out;
        const int64_t dims[3] = {st.m, st.k, st.n};
        const int64_t strides[3] = {st.k * st.n, st.n, 1};
        const int p0 = static_cast<int>(st.extra / 9);
        const int p1 = static_cast<int>((st.extra / 3) % 3);
        const int p2 = static_cast<int>(st.extra % 3);
        const int64_t s0 = strides[p0], s1 = strides[p1], s2 = strides[p2];
        int64_t w = 0;
        for (int64_t i = 0; i < dims[p0]; ++i) {
          for (int64_t j = 0; j < dims[p1]; ++j) {
            for (int64_t l = 0; l < dims[p2]; ++l) {
              out[w++] = in[i * s0 + j * s1 + l * s2];
            }
          }
        }
        break;
      }
      case StepKind::kSliceCols: {
        const float* in = a + st.in0;
        float* out = a + st.out;
        for (int64_t r = 0; r < st.m; ++r) {
          std::memcpy(out + r * st.n, in + r * st.k + st.extra,
                      static_cast<size_t>(st.n) * sizeof(float));
        }
        break;
      }
      case StepKind::kAddScalarMul:
        kernels::AddScalarMul(a + st.in0, st.scalar, a + st.in1, st.m,
                              a + st.out);
        break;
      case StepKind::kAdd3:
        kernels::Add3(a + st.in0, a + st.in1, a + st.in2, st.m, a + st.out);
        break;
      case StepKind::kFill: {
        float* out = a + st.out;
        std::fill(out, out + st.m, st.scalar);
        break;
      }
      case StepKind::kGemmInt8:
        kernels::QuantizeActivationRows(st.m, st.k, st.pack->k_padded,
                                        a + st.in0, qa_.data(),
                                        qrow_scale_.data(), qrow_min_.data());
        kernels::Int8GemmI32Serial(st.m, *st.pack, qa_.data(), qacc_.data());
        break;
      case StepKind::kDequantBias:
      case StepKind::kDequantBiasGelu:
        kernels::DequantBiasRows(st.m, *st.pack, qacc_.data(),
                                 qrow_scale_.data(), qrow_min_.data(), st.w0,
                                 st.kind == StepKind::kDequantBiasGelu,
                                 a + st.out);
        break;
      case StepKind::kDot: {
        const float* x = a + st.in0;
        const float* y = a + st.in1;
        double acc = 0.0;
        for (int64_t i = 0; i < st.m; ++i) {
          const float prod = x[i] * y[i];
          acc += static_cast<double>(prod);
        }
        a[st.out] = static_cast<float>(acc);
        break;
      }
    }
  }
}

float RunNormalized(ExecutorPair& executors, const Plan& encoder,
                    const Plan& reasoner, const core::TreeOfChains& chains) {
  const float* rows = executors.encoder.RunEncoder(encoder, chains);
  std::copy(rows, rows + static_cast<int64_t>(chains.size()) * reasoner.dim,
            executors.reasoner.Rows(reasoner));
  return executors.reasoner.RunReasoner(reasoner, chains);
}

}  // namespace graph
}  // namespace chainsformer
