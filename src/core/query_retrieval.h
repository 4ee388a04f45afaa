#ifndef CHAINSFORMER_CORE_QUERY_RETRIEVAL_H_
#define CHAINSFORMER_CORE_QUERY_RETRIEVAL_H_

#include <span>

#include "core/config.h"
#include "core/ra_chain.h"
#include "kg/knowledge_graph.h"
#include "util/rng.h"

namespace chainsformer {
namespace core {

/// Query-guided retrieval (§IV-B): builds the Tree of Chains for a query by
/// running N_s random walks over the relational graph, pairing every reached
/// known numeric fact with the traversed relation path. Cycles are removed
/// (walks never revisit an entity), and the query's own triple can never be
/// used as evidence because walks have length >= 1 and are cycle-free.
///
/// A walk allocates nothing and touches no shared state: its path lives in
/// a per-call array, duplicates are rejected by key before a chain is built,
/// and the retrieval.* counters are published once per call (DESIGN §5a).
class QueryRetrieval {
 public:
  /// `numeric` must index only the facts the model may see (training split).
  QueryRetrieval(const kg::KnowledgeGraph& graph, const kg::NumericIndex& numeric,
                 int max_hops, int num_walks,
                 RetrievalStrategy strategy = RetrievalStrategy::kUniform);

  /// Retrieves up to num_walks chains for the query (Eq. 6). Deterministic
  /// given `rng`'s state.
  TreeOfChains Retrieve(const Query& query, Rng& rng) const;

  /// Retrieval restricted to chains whose source attribute equals the query
  /// attribute ("Same-attr" setting of Fig. 4 / Table IV).
  TreeOfChains RetrieveSameAttribute(const Query& query, Rng& rng) const;

  int max_hops() const { return max_hops_; }
  int num_walks() const { return num_walks_; }

  /// Exhaustively counts the logic chains connected to `entity` within
  /// `max_hops` (simple relation paths x numeric facts at the endpoint) —
  /// the quantity plotted in Fig. 2. `cap` bounds the DFS work.
  static int64_t CountChains(const kg::KnowledgeGraph& graph,
                             const kg::NumericIndex& numeric,
                             kg::EntityId entity, int max_hops,
                             int64_t cap = 100000000);

 private:
  TreeOfChains RetrieveImpl(const Query& query, Rng& rng,
                            bool same_attribute_only) const;

  /// Picks the next edge out of `path.back()` under the configured
  /// strategy; returns false when no admissible neighbor (one not on
  /// `path`) was found.
  bool SampleEdge(std::span<const kg::EntityId> path, Rng& rng,
                  kg::Edge* out) const;

  const kg::KnowledgeGraph& graph_;
  const kg::NumericIndex& numeric_;
  int max_hops_;
  int num_walks_;
  RetrievalStrategy strategy_;
};

}  // namespace core
}  // namespace chainsformer

#endif  // CHAINSFORMER_CORE_QUERY_RETRIEVAL_H_
