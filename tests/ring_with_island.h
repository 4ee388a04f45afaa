#ifndef CHAINSFORMER_TESTS_RING_WITH_ISLAND_H_
#define CHAINSFORMER_TESTS_RING_WITH_ISLAND_H_

// A tiny graph whose queries split into ones with chains and one without,
// for tests that need an empty Tree of Chains.

#include <string>
#include <vector>

#include "kg/dataset.h"

namespace chainsformer {
namespace test_graphs {

/// People in a ring who each know the next one, plus one person nobody
/// knows: every ring member's age has chains, the island's has none. The
/// ring's ages are the train split; the island's is the test split.
inline kg::Dataset RingWithIsland() {
  kg::Dataset d;
  d.name = "ring";
  kg::KnowledgeGraph& g = d.graph;
  const kg::AttributeId age = g.AddAttribute("age");
  const kg::RelationId knows = g.AddRelation("knows");
  std::vector<kg::EntityId> ring;
  for (int i = 0; i < 12; ++i) ring.push_back(g.AddEntity("p" + std::to_string(i)));
  const kg::EntityId island = g.AddEntity("island");
  for (size_t i = 0; i < ring.size(); ++i) {
    const double value = 20.0 + 3.0 * static_cast<double>(i);
    g.AddTriple(ring[i], knows, ring[(i + 1) % ring.size()]);
    g.AddNumeric(ring[i], age, value);
    d.split.train.push_back({ring[i], age, value});
  }
  g.AddNumeric(island, age, 70.0);
  g.Finalize();
  d.split.test = {{island, age, 70.0}};
  return d;
}

}  // namespace test_graphs
}  // namespace chainsformer

#endif  // CHAINSFORMER_TESTS_RING_WITH_ISLAND_H_
