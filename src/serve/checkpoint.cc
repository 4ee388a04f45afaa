#include "serve/checkpoint.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace chainsformer {
namespace serve {
namespace {

using core::ChainsFormerConfig;

constexpr char kMagic[4] = {'C', 'F', 'S', 'M'};
// Version 1: config + vocab + stats + tensors. Version 2 adds the optional
// tagged-block section (currently only "quant_int8") between the stats
// block and the tensor section; it is written only when a block is present
// so quant-less checkpoints stay readable by version-1 binaries.
constexpr uint32_t kVersion = 1;
constexpr uint32_t kVersionTagged = 2;
constexpr char kQuantBlockName[] = "quant_int8";

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.good();
}

void WriteString(std::ostream& out, const std::string& s) {
  WritePod(out, static_cast<uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool ReadString(std::istream& in, std::string* s) {
  uint32_t len = 0;
  if (!ReadPod(in, &len)) return false;
  // 1 MiB sanity bound: a longer "name" means we are reading garbage.
  if (len > (1u << 20)) return false;
  s->resize(len);
  in.read(s->data(), static_cast<std::streamsize>(len));
  return in.good() || len == 0;
}

// --- Config block ----------------------------------------------------------
// Every architecture-relevant field travels as a named entry so that a
// checkpoint from a different build version fails with the offending key
// instead of a silent misparse. Enums are stored as int64.

enum : uint8_t { kKindInt = 0, kKindDouble = 1 };

struct ConfigField {
  const char* name;
  uint8_t kind;
  // kKindInt uses the int64 pair, kKindDouble the double pair; the unused
  // pair is empty. Ints never round-trip through double (seed is uint64).
  std::function<int64_t(const ChainsFormerConfig&)> get_int;
  std::function<void(ChainsFormerConfig&, int64_t)> set_int;
  std::function<double(const ChainsFormerConfig&)> get_double;
  std::function<void(ChainsFormerConfig&, double)> set_double;
};

template <typename T, typename M>
ConfigField IntField(const char* name, M T::*member) {
  return {name, kKindInt,
          [member](const ChainsFormerConfig& c) {
            return static_cast<int64_t>(c.*member);
          },
          [member](ChainsFormerConfig& c, int64_t v) {
            c.*member = static_cast<M>(v);
          },
          nullptr, nullptr};
}

template <typename T, typename M>
ConfigField FloatField(const char* name, M T::*member) {
  return {name, kKindDouble, nullptr, nullptr,
          [member](const ChainsFormerConfig& c) {
            return static_cast<double>(c.*member);
          },
          [member](ChainsFormerConfig& c, double v) {
            c.*member = static_cast<M>(v);
          }};
}

/// The saved subset of ChainsFormerConfig: everything that determines the
/// parameter shapes, the retrieval distribution or the forward math.
/// Execution knobs (kernel_threads, eval_threads, batched_encoder,
/// check_mode, verbose, training schedule) deliberately stay load-side.
const std::vector<ConfigField>& SavedFields() {
  using C = ChainsFormerConfig;
  static const std::vector<ConfigField> fields = {
      IntField<C>("max_hops", &C::max_hops),
      IntField<C>("num_walks", &C::num_walks),
      IntField<C>("top_k", &C::top_k),
      IntField<C>("same_attribute_only", &C::same_attribute_only),
      IntField<C>("retrieval_strategy", &C::retrieval_strategy),
      IntField<C>("hidden_dim", &C::hidden_dim),
      IntField<C>("encoder_layers", &C::encoder_layers),
      IntField<C>("reasoner_layers", &C::reasoner_layers),
      IntField<C>("num_heads", &C::num_heads),
      IntField<C>("filter_dim", &C::filter_dim),
      IntField<C>("filter_space", &C::filter_space),
      IntField<C>("encoder_type", &C::encoder_type),
      IntField<C>("use_numerical_aware", &C::use_numerical_aware),
      IntField<C>("numeric_encoding", &C::numeric_encoding),
      IntField<C>("projection", &C::projection),
      IntField<C>("use_chain_weighting", &C::use_chain_weighting),
      IntField<C>("use_chain_quality", &C::use_chain_quality),
      FloatField<C>("chain_quality_max_error", &C::chain_quality_max_error),
      FloatField<C>("curvature", &C::curvature),
      FloatField<C>("lambda", &C::lambda),
      IntField<C>("seed", &C::seed),
  };
  return fields;
}

void WriteConfigBlock(std::ostream& out, const ChainsFormerConfig& config) {
  const auto& fields = SavedFields();
  WritePod(out, static_cast<uint32_t>(fields.size()));
  for (const ConfigField& f : fields) {
    WriteString(out, f.name);
    WritePod(out, f.kind);
    if (f.kind == kKindInt) {
      WritePod(out, f.get_int(config));
    } else {
      WritePod(out, f.get_double(config));
    }
  }
}

bool ReadConfigBlock(std::istream& in, ChainsFormerConfig& config) {
  uint32_t count = 0;
  if (!ReadPod(in, &count) || count > 1024) return false;
  std::map<std::string, const ConfigField*> by_name;
  for (const ConfigField& f : SavedFields()) by_name[f.name] = &f;
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    uint8_t kind = 0;
    if (!ReadString(in, &name) || !ReadPod(in, &kind)) return false;
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      CF_LOG(Fatal) << "LoadModel: checkpoint config key \"" << name
                    << "\" is unknown to this binary (format version skew)";
    }
    const ConfigField* f = it->second;
    if (kind != f->kind) {
      CF_LOG(Fatal) << "LoadModel: checkpoint config key \"" << name
                    << "\" has the wrong value kind";
    }
    if (kind == kKindInt) {
      int64_t v = 0;
      if (!ReadPod(in, &v)) return false;
      f->set_int(config, v);
    } else {
      double v = 0.0;
      if (!ReadPod(in, &v)) return false;
      f->set_double(config, v);
    }
  }
  return true;
}

// --- Vocab block -----------------------------------------------------------

void WriteVocabBlock(std::ostream& out, const kg::KnowledgeGraph& graph) {
  WritePod(out, static_cast<int64_t>(graph.num_entities()));
  WritePod(out, static_cast<int64_t>(graph.num_relation_ids()));
  for (int64_t r = 0; r < graph.num_relation_ids(); ++r) {
    WriteString(out, graph.RelationName(static_cast<kg::RelationId>(r)));
  }
  WritePod(out, static_cast<int64_t>(graph.num_attributes()));
  for (int64_t a = 0; a < graph.num_attributes(); ++a) {
    WriteString(out, graph.AttributeName(static_cast<kg::AttributeId>(a)));
  }
}

bool ReadAndValidateVocabBlock(std::istream& in, const kg::KnowledgeGraph& graph) {
  int64_t num_entities = 0;
  if (!ReadPod(in, &num_entities)) return false;
  if (num_entities != graph.num_entities()) {
    CF_LOG(Fatal) << "LoadModel: checkpoint was trained on " << num_entities
                  << " entities, dataset has " << graph.num_entities();
  }
  int64_t num_relations = 0;
  if (!ReadPod(in, &num_relations)) return false;
  if (num_relations != graph.num_relation_ids()) {
    CF_LOG(Fatal) << "LoadModel: checkpoint has " << num_relations
                  << " relation ids, dataset has " << graph.num_relation_ids();
  }
  for (int64_t r = 0; r < num_relations; ++r) {
    std::string name;
    if (!ReadString(in, &name)) return false;
    const std::string& local = graph.RelationName(static_cast<kg::RelationId>(r));
    if (name != local) {
      CF_LOG(Fatal) << "LoadModel: relation id " << r << " is \"" << name
                    << "\" in the checkpoint but \"" << local
                    << "\" in the dataset";
    }
  }
  int64_t num_attributes = 0;
  if (!ReadPod(in, &num_attributes)) return false;
  if (num_attributes != graph.num_attributes()) {
    CF_LOG(Fatal) << "LoadModel: checkpoint has " << num_attributes
                  << " attributes, dataset has " << graph.num_attributes();
  }
  for (int64_t a = 0; a < num_attributes; ++a) {
    std::string name;
    if (!ReadString(in, &name)) return false;
    const std::string& local = graph.AttributeName(static_cast<kg::AttributeId>(a));
    if (name != local) {
      CF_LOG(Fatal) << "LoadModel: attribute id " << a << " is \"" << name
                    << "\" in the checkpoint but \"" << local
                    << "\" in the dataset";
    }
  }
  return true;
}

// --- Stats block -----------------------------------------------------------

void WriteStatsBlock(std::ostream& out,
                     const std::vector<kg::AttributeStats>& stats) {
  WritePod(out, static_cast<uint64_t>(stats.size()));
  for (const kg::AttributeStats& s : stats) {
    WritePod(out, s.count);
    WritePod(out, s.min);
    WritePod(out, s.max);
    WritePod(out, s.mean);
    WritePod(out, s.stddev);
  }
}

bool ReadStatsBlock(std::istream& in, size_t expected,
                    std::vector<kg::AttributeStats>& stats) {
  uint64_t count = 0;
  if (!ReadPod(in, &count)) return false;
  if (count != expected) {
    CF_LOG(Fatal) << "LoadModel: checkpoint has normalization stats for "
                  << count << " attributes, dataset has " << expected;
  }
  stats.resize(count);
  for (kg::AttributeStats& s : stats) {
    if (!ReadPod(in, &s.count) || !ReadPod(in, &s.min) || !ReadPod(in, &s.max) ||
        !ReadPod(in, &s.mean) || !ReadPod(in, &s.stddev)) {
      return false;
    }
  }
  return true;
}

// --- Tagged-block section (format version 2) -------------------------------

void WriteQuantBlockPayload(std::ostream& out, const graph::QuantStore& q) {
  WritePod(out, q.mae_delta);
  WritePod(out, q.calibration_queries);
  WritePod(out, static_cast<uint32_t>(q.linears.size()));
  for (const graph::QuantizedLinear& l : q.linears) {
    WriteString(out, l.name);
    WritePod(out, l.in);
    WritePod(out, l.out);
    out.write(reinterpret_cast<const char*>(l.scale.data()),
              static_cast<std::streamsize>(l.scale.size() * sizeof(float)));
    out.write(reinterpret_cast<const char*>(l.codes.data()),
              static_cast<std::streamsize>(l.codes.size()));
  }
}

/// Parses a "quant_int8" payload, aborting with the block name on anything
/// malformed: a corrupt scale array must never reach the serve path, where
/// it would silently dequantize to garbage.
graph::QuantStore ParseQuantBlock(std::istream& in, const std::string& path) {
  graph::QuantStore q;
  uint32_t count = 0;
  if (!ReadPod(in, &q.mae_delta) || !ReadPod(in, &q.calibration_queries) ||
      !ReadPod(in, &count) || count > (1u << 16)) {
    CF_LOG(Fatal) << "LoadModel: " << path
                  << " has a truncated quant_int8 block";
  }
  if (!std::isfinite(q.mae_delta) || q.mae_delta < 0.0) {
    CF_LOG(Fatal) << "LoadModel: quant_int8 block of " << path
                  << " records a non-finite or negative calibration error";
  }
  q.linears.resize(count);
  for (graph::QuantizedLinear& l : q.linears) {
    if (!ReadString(in, &l.name) || !ReadPod(in, &l.in) ||
        !ReadPod(in, &l.out) || l.in <= 0 || l.out <= 0 ||
        l.in > (1 << 20) || l.out > (1 << 20) ||
        l.in * l.out > (int64_t{1} << 28)) {
      CF_LOG(Fatal) << "LoadModel: quant_int8 block of " << path
                    << " has a corrupt linear header";
    }
    l.scale.resize(static_cast<size_t>(l.out));
    in.read(reinterpret_cast<char*>(l.scale.data()),
            static_cast<std::streamsize>(l.scale.size() * sizeof(float)));
    l.codes.resize(static_cast<size_t>(l.in * l.out));
    in.read(reinterpret_cast<char*>(l.codes.data()),
            static_cast<std::streamsize>(l.codes.size()));
    if (!in.good()) {
      CF_LOG(Fatal) << "LoadModel: quant_int8 block of " << path
                    << " is truncated inside " << l.name;
    }
    for (float s : l.scale) {
      if (!std::isfinite(s) || s < 0.0f) {
        CF_LOG(Fatal) << "LoadModel: quant_int8 block of " << path
                      << " has a corrupt scale array for " << l.name;
      }
    }
  }
  return q;
}

void WriteTaggedBlocks(std::ostream& out, const graph::QuantStore& quant) {
  WritePod(out, static_cast<uint32_t>(1));  // block count
  std::ostringstream payload(std::ios::binary);
  WriteQuantBlockPayload(payload, quant);
  const std::string bytes = payload.str();
  WriteString(out, kQuantBlockName);
  WritePod(out, static_cast<uint64_t>(bytes.size()));
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Reads the version-2 tagged-block section. Unrecognized block names are
/// skipped over by their recorded length so future writers stay readable.
bool ReadTaggedBlocks(std::istream& in, const std::string& path,
                      graph::QuantStore* quant_out) {
  uint32_t count = 0;
  if (!ReadPod(in, &count) || count > 64) return false;
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    uint64_t len = 0;
    if (!ReadString(in, &name) || !ReadPod(in, &len) ||
        len > (uint64_t{1} << 30)) {
      return false;
    }
    if (name == kQuantBlockName && quant_out != nullptr) {
      std::string bytes(static_cast<size_t>(len), '\0');
      in.read(bytes.data(), static_cast<std::streamsize>(len));
      if (!in.good()) return false;
      std::istringstream payload(bytes, std::ios::binary);
      *quant_out = ParseQuantBlock(payload, path);
    } else {
      in.seekg(static_cast<std::streamoff>(len), std::ios::cur);
      if (!in.good()) return false;
    }
  }
  return true;
}

}  // namespace

bool SaveModel(const core::ChainsFormerModel& model, const std::string& path) {
  return SaveModel(model, nullptr, path);
}

bool SaveModel(const core::ChainsFormerModel& model,
               const graph::QuantStore* quant, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) return false;
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, quant != nullptr ? kVersionTagged : kVersion);
  WriteConfigBlock(out, model.config());
  WriteVocabBlock(out, model.dataset().graph);
  WriteStatsBlock(out, model.train_stats());
  if (quant != nullptr) WriteTaggedBlocks(out, *quant);
  if (!model.SaveCheckpoint(out)) return false;
  return out.good();
}

std::unique_ptr<core::ChainsFormerModel> LoadModel(
    const kg::Dataset& dataset, const core::ChainsFormerConfig& base_config,
    const std::string& path, graph::QuantStore* quant_out) {
  if (quant_out != nullptr) *quant_out = graph::QuantStore{};
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    CF_LOG(Error) << "LoadModel: cannot open " << path;
    return nullptr;
  }
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    CF_LOG(Error) << "LoadModel: " << path << " is not a CFSM checkpoint";
    return nullptr;
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version)) return nullptr;
  if (version < kVersion || version > kVersionTagged) {
    CF_LOG(Fatal) << "LoadModel: " << path << " has format version " << version
                  << ", this binary reads versions " << kVersion << ".."
                  << kVersionTagged;
  }

  ChainsFormerConfig config = base_config;
  if (!ReadConfigBlock(in, config)) {
    CF_LOG(Error) << "LoadModel: " << path << " has a corrupt config block";
    return nullptr;
  }
  if (!ReadAndValidateVocabBlock(in, dataset.graph)) {
    CF_LOG(Error) << "LoadModel: " << path << " has a corrupt vocab block";
    return nullptr;
  }
  std::vector<kg::AttributeStats> stats;
  if (!ReadStatsBlock(in, static_cast<size_t>(dataset.graph.num_attributes()),
                      stats)) {
    CF_LOG(Error) << "LoadModel: " << path << " has a corrupt stats block";
    return nullptr;
  }
  if (version >= kVersionTagged && !ReadTaggedBlocks(in, path, quant_out)) {
    CF_LOG(Error) << "LoadModel: " << path
                  << " has a corrupt tagged-block section";
    return nullptr;
  }

  auto model = std::make_unique<core::ChainsFormerModel>(dataset, config);
  model->OverrideTrainStats(std::move(stats));
  if (!model->LoadCheckpoint(in)) {
    CF_LOG(Fatal) << "LoadModel: tensor section of " << path
                  << " does not match the model built from its own config "
                  << "block (corrupt file or incompatible binary)";
  }
  return model;
}

}  // namespace serve
}  // namespace chainsformer
