#include "core/query_retrieval.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/metric_names.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace chainsformer {
namespace core {
namespace {

/// True when `e` is one of the path's entities. Paths hold at most
/// max_hops + 1 entities, so a scan beats any set.
bool OnPath(std::span<const kg::EntityId> path, kg::EntityId e) {
  return std::find(path.begin(), path.end(), e) != path.end();
}

/// Duplicate key of the chain a walk would yield: its source entity, source
/// attribute and relations in chain (source -> query) order. Walk edges go
/// query -> source, so chain relation j is the inverse of walk edge l+1-j.
/// Computed from the walk, so only chains with a new key get built.
uint64_t ChainKey(kg::EntityId source_entity, kg::AttributeId source_attribute,
                  std::span<const kg::RelationId> walk_relations) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<uint32_t>(source_entity));
  mix(static_cast<uint32_t>(source_attribute));
  for (auto it = walk_relations.rbegin(); it != walk_relations.rend(); ++it) {
    mix(static_cast<uint32_t>(kg::KnowledgeGraph::InverseRelation(*it)) | (1u << 30));
  }
  return h;
}

/// Set of 64-bit keys in one flat linear-probing table, sized once for at
/// most `max_keys` (>= 1) inserts at load factor <= 1/2. A slot holding 0 is
/// empty, so a key of 0 is tracked by a flag: membership is exact for every
/// 64-bit key, which keeps duplicate decisions (key collisions included)
/// part of the bitwise retrieval contract.
class KeySet {
 public:
  explicit KeySet(size_t max_keys)
      : slots_(std::bit_ceil(2 * max_keys), 0),
        shift_(64 - std::countr_zero(slots_.size())),
        max_keys_(max_keys) {}

  /// Inserts `key`; returns false when it was already present.
  bool Insert(uint64_t key) {
    if (key == 0) return !std::exchange(has_zero_, true);
    const size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the top bits of key * 2^64/phi pick the home slot.
    for (size_t i = (key * 0x9E3779B97F4A7C15ull) >> shift_;; i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
      if (slots_[i] == 0) {
        CF_CHECK_LT(size_, max_keys_) << "KeySet over its insert budget";
        ++size_;
        slots_[i] = key;
        return true;
      }
    }
  }

 private:
  std::vector<uint64_t> slots_;
  int shift_;
  size_t max_keys_;
  size_t size_ = 0;
  bool has_zero_ = false;
};

}  // namespace

QueryRetrieval::QueryRetrieval(const kg::KnowledgeGraph& graph,
                               const kg::NumericIndex& numeric, int max_hops,
                               int num_walks, RetrievalStrategy strategy)
    : graph_(graph),
      numeric_(numeric),
      max_hops_(max_hops),
      num_walks_(num_walks),
      strategy_(strategy) {
  CF_CHECK(graph.finalized());
  CF_CHECK_GE(max_hops, 1);
  CF_CHECK_GE(num_walks, 1);
}

bool QueryRetrieval::SampleEdge(std::span<const kg::EntityId> path, Rng& rng,
                                kg::Edge* out) const {
  const auto neighbors = graph_.Neighbors(path.back());
  if (neighbors.empty()) return false;
  // A few tries to find an unvisited neighbor (cycle removal). Strategy
  // biases happen via weighted proposal, then the cycle check applies.
  for (int t = 0; t < 4; ++t) {
    const kg::Edge* proposal = nullptr;
    switch (strategy_) {
      case RetrievalStrategy::kUniform:
        proposal = &neighbors[rng.UniformInt(neighbors.size())];
        break;
      case RetrievalStrategy::kDegreeWeighted: {
        // Two uniform proposals, keep the higher-degree one.
        const kg::Edge& a = neighbors[rng.UniformInt(neighbors.size())];
        const kg::Edge& b = neighbors[rng.UniformInt(neighbors.size())];
        proposal = graph_.Degree(a.neighbor) >= graph_.Degree(b.neighbor) ? &a : &b;
        break;
      }
      case RetrievalStrategy::kEvidenceBiased: {
        // Two uniform proposals, prefer one carrying numeric facts.
        const kg::Edge& a = neighbors[rng.UniformInt(neighbors.size())];
        const kg::Edge& b = neighbors[rng.UniformInt(neighbors.size())];
        const bool a_has = !numeric_.Values(a.neighbor).empty();
        const bool b_has = !numeric_.Values(b.neighbor).empty();
        proposal = (a_has || !b_has) ? &a : &b;
        break;
      }
    }
    if (proposal != nullptr && !OnPath(path, proposal->neighbor)) {
      *out = *proposal;
      return true;
    }
  }
  return false;
}

TreeOfChains QueryRetrieval::Retrieve(const Query& query, Rng& rng) const {
  return RetrieveImpl(query, rng, /*same_attribute_only=*/false);
}

TreeOfChains QueryRetrieval::RetrieveSameAttribute(const Query& query,
                                                   Rng& rng) const {
  return RetrieveImpl(query, rng, /*same_attribute_only=*/true);
}

TreeOfChains QueryRetrieval::RetrieveImpl(const Query& query, Rng& rng,
                                          bool same_attribute_only) const {
  // Stage 1 of the pipeline. pipeline.retrieval.micros accumulates wall time
  // so the training loop can report per-stage epoch deltas.
  static auto& reg = metrics::MetricsRegistry::Global();
  static auto* stage_micros = reg.GetCounter(metrics::names::kPipelineRetrievalMicros);
  static auto* stage_calls = reg.GetCounter(metrics::names::kPipelineRetrievalCalls);
  static auto* walks_taken = reg.GetCounter(metrics::names::kRetrievalWalksTaken);
  static auto* walks_empty = reg.GetCounter(metrics::names::kRetrievalWalksEmpty);
  static auto* chains_generated = reg.GetCounter(metrics::names::kRetrievalChainsGenerated);
  static auto* duplicates = reg.GetCounter(metrics::names::kRetrievalDuplicatesSuppressed);
  static auto* toc_size = reg.GetHistogram(metrics::names::kRetrievalTocSize);
  CF_TRACE_SCOPE("retrieval");
  metrics::ScopedTimer timer(stage_micros, stage_calls);

  TreeOfChains toc;
  toc.reserve(static_cast<size_t>(num_walks_));
  const int max_attempts = num_walks_ * 4;
  // The walk's entities (query first) and the relations it traversed, query
  // -> source. Allocated once per call; each walk overwrites what follows
  // the query entity.
  std::vector<kg::EntityId> path(static_cast<size_t>(max_hops_) + 1);
  std::vector<kg::RelationId> walk_relations(static_cast<size_t>(max_hops_));
  path[0] = query.entity;
  // Duplicate suppression: the same (evidence fact, relation path) reached
  // by several walks adds no information but would crowd the top-k budget.
  // Every key inserted is a chain kept, and the loop stops at num_walks_
  // chains, which bounds the table.
  KeySet seen(static_cast<size_t>(num_walks_));
  // Counted here and published once per call, so walks share no cache line.
  int64_t num_walks_taken = 0;
  int64_t num_walks_empty = 0;
  int64_t num_duplicates = 0;

  for (int attempt = 0;
       attempt < max_attempts && static_cast<int>(toc.size()) < num_walks_;
       ++attempt) {
    ++num_walks_taken;
    const int depth = static_cast<int>(rng.UniformInt(1, max_hops_));
    size_t steps = 0;
    while (steps < static_cast<size_t>(depth)) {
      kg::Edge edge;
      if (!SampleEdge({path.data(), steps + 1}, rng, &edge)) break;
      walk_relations[steps] = edge.relation;
      path[++steps] = edge.neighbor;
    }
    if (steps == 0) {
      ++num_walks_empty;
      continue;
    }

    // Collect one (attribute, value) fact at the endpoint.
    const kg::EntityId source = path[steps];
    const auto facts = numeric_.Values(source);
    if (facts.empty()) continue;
    // Gather candidates (optionally restricted to the query attribute).
    size_t num_candidates = 0;
    std::pair<kg::AttributeId, double> chosen{-1, 0.0};
    for (const auto& f : facts) {
      if (same_attribute_only && f.first != query.attribute) continue;
      ++num_candidates;
      // Reservoir sampling of one candidate.
      if (rng.UniformInt(num_candidates) == 0) chosen = f;
    }
    if (num_candidates == 0) continue;

    const std::span<const kg::RelationId> relations(walk_relations.data(), steps);
    if (!seen.Insert(ChainKey(source, chosen.first, relations))) {
      ++num_duplicates;
      continue;
    }
    RAChain chain;
    chain.source_attribute = chosen.first;
    chain.query_attribute = query.attribute;
    chain.source_value = chosen.second;
    chain.source_entity = source;
    // Chain relations run source -> query: r_j = inverse(e_{l+1-j}).
    chain.relations.reserve(steps);
    for (auto it = relations.rbegin(); it != relations.rend(); ++it) {
      chain.relations.push_back(kg::KnowledgeGraph::InverseRelation(*it));
    }
    toc.push_back(std::move(chain));
  }
  walks_taken->Increment(num_walks_taken);
  walks_empty->Increment(num_walks_empty);
  chains_generated->Increment(static_cast<int64_t>(toc.size()));
  duplicates->Increment(num_duplicates);
  toc_size->Observe(static_cast<double>(toc.size()));
  return toc;
}

namespace {

/// `path` holds the entities from the start through `cur` = path.back().
int64_t CountChainsDfs(const kg::KnowledgeGraph& graph,
                       const kg::NumericIndex& numeric, int remaining_hops,
                       std::vector<kg::EntityId>& path, int64_t cap,
                       int64_t* count) {
  if (*count >= cap) return *count;
  for (const auto& e : graph.Neighbors(path.back())) {
    if (OnPath(path, e.neighbor)) continue;
    *count += static_cast<int64_t>(numeric.Values(e.neighbor).size());
    if (*count >= cap) return *count;
    if (remaining_hops > 1) {
      path.push_back(e.neighbor);
      CountChainsDfs(graph, numeric, remaining_hops - 1, path, cap, count);
      path.pop_back();
    }
  }
  return *count;
}

}  // namespace

int64_t QueryRetrieval::CountChains(const kg::KnowledgeGraph& graph,
                                    const kg::NumericIndex& numeric,
                                    kg::EntityId entity, int max_hops,
                                    int64_t cap) {
  std::vector<kg::EntityId> path{entity};
  path.reserve(static_cast<size_t>(std::max(max_hops, 0)) + 1);
  int64_t count = 0;
  CountChainsDfs(graph, numeric, max_hops, path, cap, &count);
  return std::min(count, cap);
}

}  // namespace core
}  // namespace chainsformer
