#ifndef CHAINSFORMER_CORE_RA_CHAIN_H_
#define CHAINSFORMER_CORE_RA_CHAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kg/knowledge_graph.h"

namespace chainsformer {
namespace core {

/// A numerical-reasoning query (v_q, a_q, ?) — predict the value of
/// attribute a_q on entity v_q (Definition 1).
struct Query {
  kg::EntityId entity;
  kg::AttributeId attribute;
};

/// Relation-Attribute Chain (Eq. 5): the tokenized reasoning pattern
/// c = (a_p, r_1, ..., r_l, a_q) of the logic chain
/// n_p --a_p--> v_p --r_1--> ... --r_l--> v_q --a_q--> n_q, paired with its
/// evidence value n_p and source entity v_p (kept for traceability).
///
/// `relations` is stored in source-to-query order (r_1 first). Relation ids
/// may be inverse ids (odd), matching the paper's chains such as
/// (capital_inv, longitude).
struct RAChain {
  kg::AttributeId source_attribute;      // a_p
  std::vector<kg::RelationId> relations; // r_1 ... r_l, l >= 1
  kg::AttributeId query_attribute;       // a_q
  double source_value;                   // n_p
  kg::EntityId source_entity;            // v_p

  int64_t length() const { return static_cast<int64_t>(relations.size()); }

  /// Length of the Chain Encoder's token sequence (Eq. 11),
  /// [a_p, r_l, ..., r_1, a_q, end]; ChainEncoder tokenizes.
  int64_t num_tokens() const { return length() + 3; }

  /// Pattern identity: two chains with equal (a_p, relations, a_q) express
  /// the same reasoning pattern regardless of n_p / v_p.
  bool SamePattern(const RAChain& other) const {
    return source_attribute == other.source_attribute &&
           query_attribute == other.query_attribute &&
           relations == other.relations;
  }

  /// Human-readable pattern, e.g. "(sibling, birth)" in the paper's Table V
  /// notation: relations in query-to-source traversal order followed by the
  /// source attribute.
  std::string PatternString(const kg::KnowledgeGraph& graph) const;
};

/// Tree of Chains (Eq. 6): the retrieved chain set for one query.
using TreeOfChains = std::vector<RAChain>;

}  // namespace core
}  // namespace chainsformer

#endif  // CHAINSFORMER_CORE_RA_CHAIN_H_
