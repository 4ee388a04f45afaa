#include "graph/plan.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "core/chain_encoder.h"
#include "core/chainsformer.h"
#include "core/numerical_reasoner.h"
#include "tensor/nn.h"
#include "util/logging.h"

namespace chainsformer {
namespace graph {
namespace {

using tensor::Tensor;
using tensor::nn::Linear;
using tensor::nn::Mlp;
using tensor::nn::MultiHeadAttention;
using tensor::nn::TransformerEncoderLayer;

// LayerNorm::Forward always uses the op-layer default epsilon.
constexpr float kLayerNormEps = 1e-5f;

// Arena buffers are aligned to 16 floats (64 bytes, one cache line).
constexpr int64_t kAlign = 16;

// Liveness interval of one virtual buffer. `def` is the index of the step
// that first writes it (-1 for binder-written inputs); `last_use` the last
// step that reads it (steps.size() for the result, which outlives the run).
struct BufInfo {
  int64_t size = 0;
  int64_t def = 0;
  int64_t last_use = -1;
  int64_t offset = -1;
};

/// Walks the frozen model and emits the Step program plus the expected eager
/// op-event skeleton side by side. Steps reference *virtual buffer ids*
/// while emitting; AssignOffsets() then runs liveness-based interval
/// allocation and rewrites every id to a float offset in one shared arena.
class Compiler {
 public:
  Compiler(const core::ChainsFormerModel& model, int64_t chains,
           int64_t max_len, std::shared_ptr<const Int8PackSet> int8)
      : model_(model), k_(chains), len_(max_len), int8_(int8.get()) {
    const core::ChainEncoder& enc = model.encoder();
    CF_CHECK(enc.encoder_type() == core::EncoderType::kTransformer)
        << "static graphs require the Transformer chain encoder";
    plan_.chains = chains;
    plan_.max_len = max_len;
    plan_.dim = enc.hidden_dim();
    plan_.num_relation_ids = model.dataset().graph.num_relation_ids();
    plan_.num_attributes = model.dataset().graph.num_attributes();
    plan_.max_position = enc.position_embedding().num_embeddings();
    plan_.length_buckets = core::NumericalReasoner::kMaxLengthBuckets;
    plan_.numeric_encoding = enc.numeric_encoding();
    plan_.use_numerical_aware = enc.use_numerical_aware();
    plan_.train_stats = &model.train_stats();
    if (int8 != nullptr) {
      plan_.precision = Precision::kInt8;
      plan_.pinned.push_back(std::move(int8));
    }
  }

  Plan BuildEncoder();
  Plan BuildReasoner();

 private:
  // ---- Virtual buffers -----------------------------------------------------

  int64_t NewBuf(int64_t size) {
    bufs_.push_back(BufInfo{size, /*def=*/-2, /*last_use=*/-1, -1});
    return static_cast<int64_t>(bufs_.size()) - 1;
  }

  int64_t NewInput(int64_t size) {
    const int64_t id = NewBuf(size);
    bufs_[static_cast<size_t>(id)].def = -1;
    return id;
  }

  Step& Push(StepKind kind) {
    plan_.steps.push_back(Step{});
    plan_.steps.back().kind = kind;
    return plan_.steps.back();
  }

  void Expect(const char* op, std::vector<int64_t> shape) {
    plan_.expected_events.push_back(TraceEvent{op, std::move(shape)});
  }

  const float* Pin(const Tensor& t) {
    CF_CHECK(t.defined());
    plan_.pinned.push_back(t.impl());
    return t.data().data();
  }

  // ---- Composite emitters --------------------------------------------------

  int64_t GatherTable(const Tensor& table, IndexArray index, int64_t rows) {
    const int64_t n = table.size(1);
    const int64_t out = NewBuf(rows * n);
    Step& s = Push(StepKind::kGatherTable);
    s.index = index;
    s.out = out;
    s.w0 = Pin(table);
    s.m = rows;
    s.n = n;
    return out;
  }

  int64_t AddEw(int64_t a, int64_t b, int64_t count) {
    const int64_t out = NewBuf(count);
    Step& s = Push(StepKind::kAdd);
    s.in0 = a;
    s.in1 = b;
    s.out = out;
    s.m = count;
    return out;
  }

  /// GEMM + (fused) bias of one Linear over `rows` rank-2 rows. Emits the
  /// "MatMul"/"Add" expected events; a fused GELU changes only the step
  /// kind — the caller emits the "Gelu" event where the eager op actually
  /// fires (it may be separated from the Add by Reshape events at rank-3
  /// call sites). In a reduced-precision plan the same call site lowers to
  /// the quantized step kinds instead; the expected-event skeleton is
  /// identical, so the eager trace cross-check is precision-agnostic.
  int64_t LinearCore(const Linear& lin, int64_t in, int64_t rows,
                     bool fuse_gelu) {
    const int64_t in_f = lin.in_features(), out_f = lin.out_features();
    CF_CHECK(lin.bias().defined());
    if (int8_ != nullptr) {
      const tensor::kernels::Int8Pack* pack = &int8_->For(lin);
      // kGemmInt8 consumes the float input into the executor's uint8/int32
      // scratch; the dequant step then materializes the float output. The
      // output buffer's live interval starts at the dequant step, so the
      // allocator may place it over the (already consumed) input — that is
      // safe precisely because nothing reads the input after the GEMM.
      const int64_t out_buf = NewBuf(rows * out_f);
      Step& g = Push(StepKind::kGemmInt8);
      g.in0 = in;
      g.m = rows;
      g.k = in_f;
      g.n = out_f;
      g.pack = pack;
      Expect("MatMul", {rows, out_f});
      Step& b = Push(fuse_gelu ? StepKind::kDequantBiasGelu
                               : StepKind::kDequantBias);
      b.out = out_buf;
      b.w0 = Pin(lin.bias());
      b.m = rows;
      b.n = out_f;
      b.pack = pack;
      Expect("Add", {rows, out_f});
      using tensor::kernels::Int8PaddedCols;
      using tensor::kernels::Int8PaddedDepth;
      plan_.quant_rows = std::max(plan_.quant_rows, rows);
      plan_.quant_qa_elems =
          std::max(plan_.quant_qa_elems, rows * Int8PaddedDepth(in_f));
      plan_.quant_acc_elems =
          std::max(plan_.quant_acc_elems, rows * Int8PaddedCols(out_f));
      return out_buf;
    }
    const int64_t gemm = NewBuf(rows * out_f);
    Step& g = Push(StepKind::kGemm);
    g.in0 = in;
    g.out = gemm;
    g.w0 = Pin(lin.weight());
    g.m = rows;
    g.k = in_f;
    g.n = out_f;
    Expect("MatMul", {rows, out_f});
    Step& b = Push(fuse_gelu ? StepKind::kBiasGelu : StepKind::kBiasAdd);
    b.in0 = gemm;
    b.out = gemm;  // elementwise, in-place
    b.w0 = Pin(lin.bias());
    b.m = rows;
    b.n = out_f;
    Expect("Add", {rows, out_f});
    return gemm;
  }

  /// Mlp::Forward over rank-2 rows: Linear stacks with GELU between layers.
  int64_t MlpEmit(const Mlp& mlp, int64_t in, int64_t rows) {
    int64_t h = in;
    const auto& layers = mlp.layers();
    for (size_t i = 0; i < layers.size(); ++i) {
      const bool gelu = i + 1 < layers.size();
      h = LinearCore(*layers[i], h, rows, gelu);
      if (gelu) Expect("Gelu", {rows, layers[i]->out_features()});
    }
    return h;
  }

  int64_t Permute(int64_t in, int64_t d0, int64_t d1, int64_t d2, int p0,
                  int p1, int p2) {
    const int64_t dims[3] = {d0, d1, d2};
    const int64_t out = NewBuf(d0 * d1 * d2);
    Step& s = Push(StepKind::kPermute3);
    s.in0 = in;
    s.out = out;
    s.m = d0;
    s.k = d1;
    s.n = d2;
    s.extra = p0 * 9 + p1 * 3 + p2;
    Expect("Permute3", {dims[p0], dims[p1], dims[p2]});
    return out;
  }

  int64_t Bmm(int64_t a, int64_t b, int64_t bs, int64_t m, int64_t k,
              int64_t n) {
    const int64_t out = NewBuf(bs * m * n);
    Step& s = Push(StepKind::kBatchMatMul);
    s.in0 = a;
    s.in1 = b;
    s.out = out;
    s.m = m;
    s.k = k;
    s.n = n;
    s.extra = bs;
    Expect("BatchMatMul", {bs, m, n});
    return out;
  }

  /// Fused residual + LayerNorm: out = LN(x + r). `event_shape` is the
  /// shape both the eager Add and LayerNorm report (rank-2 or rank-3).
  int64_t ResidualLn(int64_t x, int64_t r, const tensor::nn::LayerNorm& ln,
                     int64_t rows, int64_t n,
                     const std::vector<int64_t>& event_shape) {
    const int64_t out = NewBuf(rows * n);
    Step& s = Push(StepKind::kResidualLayerNorm);
    s.in0 = x;
    s.in1 = r;
    s.out = out;
    s.w0 = Pin(ln.gamma());
    s.w1 = Pin(ln.beta());
    s.m = rows;
    s.n = n;
    s.scalar = kLayerNormEps;
    Expect("Add", event_shape);
    Expect("LayerNorm", event_shape);
    return out;
  }

  /// One masked rank-3 encoder layer over [b, s, d] (ChainEncoder path).
  int64_t EncoderLayer(const TransformerEncoderLayer& layer, int64_t x,
                       int64_t b, int64_t s, int64_t mask) {
    const MultiHeadAttention& mha = layer.attention();
    const int64_t h = mha.num_heads(), hd = mha.head_dim(), d = h * hd;
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    auto proj = [&](const Linear& p) {
      Expect("Reshape", {b * s, d});
      const int64_t y = LinearCore(p, x, b * s, false);
      Expect("Reshape", {b, s, d});
      const int64_t sh = NewBuf(b * h * s * hd);
      Step& st = Push(StepKind::kSplitHeads);
      st.in0 = y;
      st.out = sh;
      st.m = b;
      st.k = s;
      st.n = hd;
      st.extra = h;
      Expect("SplitHeads", {b * h, s, hd});
      return sh;
    };
    const int64_t q = proj(mha.q_proj());
    const int64_t ky = proj(mha.k_proj());
    const int64_t v = proj(mha.v_proj());
    const int64_t kt = Permute(ky, b * h, s, hd, 0, 2, 1);
    const int64_t scores = Bmm(q, kt, b * h, s, hd, s);
    {
      Step& sc = Push(StepKind::kScale);
      sc.in0 = scores;
      sc.out = scores;
      sc.m = b * h * s * s;
      sc.scalar = scale;
      Expect("MulScalar", {b * h, s, s});
    }
    {
      Step& sm = Push(StepKind::kMaskedSoftmaxRows);
      sm.in0 = scores;
      sm.in1 = mask;
      sm.out = scores;  // row-wise, in-place
      sm.m = b * h * s;
      sm.n = s;
      sm.extra = h * s;  // rows per mask row (batch-major heads)
      Expect("MaskedSoftmax", {b * h, s, s});
    }
    const int64_t ctx = Bmm(scores, v, b * h, s, s, hd);
    const int64_t merged = NewBuf(b * s * d);
    {
      Step& mg = Push(StepKind::kMergeHeads);
      mg.in0 = ctx;
      mg.out = merged;
      mg.m = b;
      mg.k = s;
      mg.n = hd;
      mg.extra = h;
      Expect("MergeHeads", {b, s, d});
    }
    Expect("Reshape", {b * s, d});
    const int64_t attn = LinearCore(mha.out_proj(), merged, b * s, false);
    Expect("Reshape", {b, s, d});
    const int64_t h1 = ResidualLn(x, attn, layer.norm1(), b * s, d, {b, s, d});
    const int64_t ff_dim = layer.ff1().out_features();
    Expect("Reshape", {b * s, d});
    const int64_t f1 = LinearCore(layer.ff1(), h1, b * s, /*fuse_gelu=*/true);
    Expect("Reshape", {b, s, ff_dim});
    Expect("Gelu", {b, s, ff_dim});
    Expect("Reshape", {b * s, ff_dim});
    const int64_t f2 = LinearCore(layer.ff2(), f1, b * s, false);
    Expect("Reshape", {b, s, d});
    return ResidualLn(h1, f2, layer.norm2(), b * s, d, {b, s, d});
  }

  /// One unmasked rank-2 Treeformer layer over [k, d] (reasoner path).
  int64_t TreeformerLayer(const TransformerEncoderLayer& layer, int64_t x) {
    const MultiHeadAttention& mha = layer.attention();
    const int64_t h = mha.num_heads(), hd = mha.head_dim(), d = h * hd;
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    auto proj = [&](const Linear& p) {
      const int64_t y = LinearCore(p, x, k_, false);
      Expect("Reshape", {k_, h, hd});
      return Permute(y, k_, h, hd, 1, 0, 2);  // [h, k, hd]
    };
    const int64_t q = proj(mha.q_proj());
    const int64_t ky = proj(mha.k_proj());
    const int64_t v = proj(mha.v_proj());
    const int64_t kt = Permute(ky, h, k_, hd, 0, 2, 1);  // [h, hd, k]
    const int64_t scores = Bmm(q, kt, h, k_, hd, k_);
    {
      Step& sc = Push(StepKind::kScale);
      sc.in0 = scores;
      sc.out = scores;
      sc.m = h * k_ * k_;
      sc.scalar = scale;
      Expect("MulScalar", {h, k_, k_});
    }
    {
      Step& sm = Push(StepKind::kSoftmaxRows);
      sm.in0 = scores;
      sm.out = scores;
      sm.m = h * k_;
      sm.n = k_;
      Expect("Softmax", {h, k_, k_});
    }
    const int64_t ctx = Bmm(scores, v, h, k_, k_, hd);
    const int64_t cm = Permute(ctx, h, k_, hd, 1, 0, 2);  // [k, h, hd]
    Expect("Reshape", {k_, d});
    const int64_t attn = LinearCore(mha.out_proj(), cm, k_, false);
    const int64_t h1 = ResidualLn(x, attn, layer.norm1(), k_, d, {k_, d});
    const int64_t ff_dim = layer.ff1().out_features();
    const int64_t f1 = LinearCore(layer.ff1(), h1, k_, /*fuse_gelu=*/true);
    Expect("Gelu", {k_, ff_dim});
    const int64_t f2 = LinearCore(layer.ff2(), f1, k_, false);
    return ResidualLn(h1, f2, layer.norm2(), k_, d, {k_, d});
  }

  void AssignOffsets();

  const core::ChainsFormerModel& model_;
  const int64_t k_;
  const int64_t len_;
  const Int8PackSet* const int8_;  // null: fp64 Linears
  Plan plan_;
  std::vector<BufInfo> bufs_;
};

Plan Compiler::BuildEncoder() {
  plan_.program = Program::kEncoder;
  const core::ChainEncoder& enc = model_.encoder();
  const int64_t d = plan_.dim;
  const int64_t k = k_, len = len_;

  // ---- ChainEncoder::EndTokenRows ------------------------------------------
  const int64_t mask = NewInput(k * len);
  const int64_t tok =
      GatherTable(enc.token_embedding().table(), IndexArray::kTokens, k * len);
  Expect("Gather", {k * len, d});
  const int64_t pos = GatherTable(enc.position_embedding().table(),
                                  IndexArray::kPositions, k * len);
  Expect("Gather", {k * len, d});
  int64_t x = AddEw(tok, pos, k * len * d);
  Expect("Add", {k * len, d});
  Expect("Reshape", {k, len, d});
  for (const auto& layer : enc.transformer().layers()) {
    x = EncoderLayer(*layer, x, k, len, mask);
  }
  Expect("Reshape", {k * len, d});
  const int64_t e_c = NewBuf(k * d);
  {
    Step& g = Push(StepKind::kGatherRows);
    g.index = IndexArray::kEndRows;
    g.in0 = x;
    g.out = e_c;
    g.m = k;
    g.n = d;
    Expect("Gather", {k, d});
  }

  AssignOffsets();
  plan_.mask_offset = bufs_[static_cast<size_t>(mask)].offset;
  plan_.result_offset = bufs_[static_cast<size_t>(e_c)].offset;
  return std::move(plan_);
}

Plan Compiler::BuildReasoner() {
  plan_.program = Program::kReasoner;
  const core::ChainEncoder& enc = model_.encoder();
  const core::NumericalReasoner& reasoner = model_.reasoner();
  const int64_t d = plan_.dim;
  const int64_t k = k_;

  // Inputs: the end-token rows (written by the caller) and the binder's
  // per-chain values.
  const int64_t e_c = NewInput(k * d);
  const int64_t bits = plan_.use_numerical_aware ? NewInput(k * 64) : -1;
  const int64_t vn = NewInput(k);

  // ---- ChainEncoder::AffineTransfer ----------------------------------------
  int64_t reps = e_c;
  if (plan_.use_numerical_aware) {
    const int64_t alpha = MlpEmit(enc.mlp_alpha(), bits, k);  // [k, d*d]
    Expect("Reshape", {k, d, d});
    const int64_t beta = MlpEmit(enc.mlp_beta(), bits, k);  // [k, d]
    Expect("Reshape", {k, 1, d});
    const int64_t rotated = Bmm(e_c, alpha, k, 1, d, d);
    Expect("Reshape", {k, d});
    reps = NewBuf(k * d);
    Step& s = Push(StepKind::kAdd3);
    s.in0 = e_c;
    s.in1 = rotated;
    s.in2 = beta;
    s.out = reps;
    s.m = k * d;
    Expect("Add", {k, d});
    Expect("Add", {k, d});
  }

  // PredictOnChainSets slices this query's rows back out (identity here).
  Expect("SliceRows", {k, d});

  // ---- NumericalReasoner::Forward ------------------------------------------
  const int64_t raw = MlpEmit(reasoner.projection_mlp(), reps, k);
  const int64_t proj_out =
      reasoner.projection_mlp().layers().back()->out_features();
  int64_t pred = -1;
  switch (reasoner.projection()) {
    case core::ProjectionMode::kDirect:
      pred = raw;
      break;
    case core::ProjectionMode::kTranslation:
      pred = AddEw(raw, vn, k);
      Expect("Add", {k, 1});
      break;
    case core::ProjectionMode::kScaling: {
      pred = NewBuf(k);
      Step& s = Push(StepKind::kAddScalarMul);
      s.in0 = raw;
      s.in1 = vn;
      s.out = pred;
      s.m = k;
      s.scalar = 1.0f;
      Expect("AddScalar", {k, 1});
      Expect("Mul", {k, 1});
      break;
    }
    case core::ProjectionMode::kCombined: {
      CF_CHECK_EQ(proj_out, 2);
      auto slice = [&](int64_t begin) {
        const int64_t out = NewBuf(k);
        Step& s = Push(StepKind::kSliceCols);
        s.in0 = raw;
        s.out = out;
        s.m = k;
        s.k = 2;
        s.n = 1;
        s.extra = begin;
        Expect("SliceCols", {k, 1});
        return out;
      };
      const int64_t a0 = slice(0);
      const int64_t alpha = NewBuf(k);
      {
        Step& s = Push(StepKind::kAddScalar);
        s.in0 = a0;
        s.out = alpha;
        s.m = k;
        s.scalar = 1.0f;
        Expect("AddScalar", {k, 1});
      }
      const int64_t beta = slice(1);
      const int64_t shifted = AddEw(beta, vn, k);
      Expect("Add", {k, 1});
      pred = NewBuf(k);
      Step& s = Push(StepKind::kMulEw);
      s.in0 = alpha;
      s.in1 = shifted;
      s.out = pred;
      s.m = k;
      Expect("Mul", {k, 1});
      break;
    }
  }
  Expect("Reshape", {k});

  int64_t weights = -1;
  if (reasoner.use_chain_weighting() && k > 1) {
    const int64_t le = GatherTable(reasoner.length_embedding().table(),
                                   IndexArray::kLengths, k);
    Expect("Gather", {k, d});
    int64_t c0 = AddEw(reps, le, k * d);
    Expect("Add", {k, d});
    for (const auto& layer : reasoner.treeformer().layers()) {
      c0 = TreeformerLayer(*layer, c0);
    }
    const int64_t logits = MlpEmit(reasoner.weight_mlp(), c0, k);  // [k, 1]
    Expect("Reshape", {k});
    weights = logits;
    Step& sm = Push(StepKind::kSoftmaxRows);
    sm.in0 = logits;
    sm.out = logits;
    sm.m = 1;
    sm.n = k;
    Expect("Softmax", {k});
  } else {
    weights = NewBuf(k);
    Step& f = Push(StepKind::kFill);
    f.out = weights;
    f.m = k;
    f.scalar = 1.0f / static_cast<float>(k);
    // Tensor::Full is a factory, not an op: no expected event.
  }

  const int64_t result = NewBuf(1);
  {
    Step& s = Push(StepKind::kDot);
    s.in0 = weights;
    s.in1 = pred;
    s.out = result;
    s.m = k;
    Expect("Mul", {k});
    Expect("Sum", {1});
  }

  AssignOffsets();
  plan_.rows_offset = bufs_[static_cast<size_t>(e_c)].offset;
  plan_.bits_offset =
      bits >= 0 ? bufs_[static_cast<size_t>(bits)].offset : -1;
  plan_.vn_offset = bufs_[static_cast<size_t>(vn)].offset;
  plan_.result_offset = bufs_[static_cast<size_t>(result)].offset;
  return std::move(plan_);
}

void Compiler::AssignOffsets() {
  const int64_t num_steps = static_cast<int64_t>(plan_.steps.size());
  // Liveness: def = first write, last_use = last read.
  for (int64_t s = 0; s < num_steps; ++s) {
    const Step& st = plan_.steps[static_cast<size_t>(s)];
    for (int64_t in : {st.in0, st.in1, st.in2}) {
      if (in >= 0) bufs_[static_cast<size_t>(in)].last_use = s;
    }
    if (st.out >= 0) {
      BufInfo& b = bufs_[static_cast<size_t>(st.out)];
      if (b.def == -2) b.def = s;
      b.last_use = std::max(b.last_use, s);
    }
  }
  // Binder-written inputs are live from before step 0; the result must
  // survive the whole run.
  for (BufInfo& b : bufs_) {
    if (b.def == -1) b.last_use = std::max<int64_t>(b.last_use, 0);
    CF_CHECK(b.def != -2) << "virtual buffer never written";
  }
  // The result buffer is read by the host after the last step.
  // (Identified below by giving it a sentinel when assigning offsets — the
  // last step's out is the result.)
  if (!plan_.steps.empty() && plan_.steps.back().out >= 0) {
    bufs_[static_cast<size_t>(plan_.steps.back().out)].last_use = num_steps;
  }

  // Interval allocation: place buffers in definition order; a buffer may
  // share arena space only with buffers whose live intervals do not
  // overlap. Because an output's interval starts at the step that also
  // *reads* its inputs, an output can never alias a live input (fused
  // in-place steps reuse the same buffer id instead).
  std::vector<size_t> order(bufs_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return bufs_[a].def < bufs_[b].def;
  });
  int64_t arena = 0;
  std::vector<size_t> placed;
  for (size_t id : order) {
    BufInfo& b = bufs_[id];
    const int64_t size = ((b.size + kAlign - 1) / kAlign) * kAlign;
    // Occupied ranges of time-overlapping, already-placed buffers.
    std::vector<std::pair<int64_t, int64_t>> busy;
    for (size_t o : placed) {
      const BufInfo& ob = bufs_[o];
      if (ob.def <= b.last_use && b.def <= ob.last_use) {
        busy.emplace_back(ob.offset,
                          ob.offset + ((ob.size + kAlign - 1) / kAlign) * kAlign);
      }
    }
    std::sort(busy.begin(), busy.end());
    int64_t at = 0;
    for (const auto& [lo, hi] : busy) {
      if (at + size <= lo) break;
      at = std::max(at, hi);
    }
    b.offset = at;
    arena = std::max(arena, at + size);
    placed.push_back(id);
  }
  plan_.arena_floats = arena;

  // Rewrite virtual ids to arena offsets.
  for (Step& st : plan_.steps) {
    if (st.in0 >= 0) st.in0 = bufs_[static_cast<size_t>(st.in0)].offset;
    if (st.in1 >= 0) st.in1 = bufs_[static_cast<size_t>(st.in1)].offset;
    if (st.in2 >= 0) st.in2 = bufs_[static_cast<size_t>(st.in2)].offset;
    if (st.out >= 0) st.out = bufs_[static_cast<size_t>(st.out)].offset;
  }
}

}  // namespace

int64_t MaxTokens(const core::TreeOfChains& chains) {
  int64_t mx = 0;
  for (const core::RAChain& c : chains) mx = std::max(mx, c.num_tokens());
  return mx;
}

Plan CompileEncoderPlan(const core::ChainsFormerModel& model, int64_t chains,
                        int64_t max_len,
                        std::shared_ptr<const Int8PackSet> int8) {
  CF_CHECK_GT(chains, 0);
  CF_CHECK_GT(max_len, 0);
  return Compiler(model, chains, max_len, std::move(int8)).BuildEncoder();
}

Plan CompileReasonerPlan(const core::ChainsFormerModel& model, int64_t k,
                         std::shared_ptr<const Int8PackSet> int8) {
  CF_CHECK_GT(k, 0);
  return Compiler(model, k, /*max_len=*/0, std::move(int8)).BuildReasoner();
}

}  // namespace graph
}  // namespace chainsformer
