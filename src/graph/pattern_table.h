#ifndef CHAINSFORMER_GRAPH_PATTERN_TABLE_H_
#define CHAINSFORMER_GRAPH_PATTERN_TABLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/ra_chain.h"
#include "util/sync.h"

namespace chainsformer {
namespace graph {

/// Exact key of a chain's pattern (a_p, a_q, r_1 ... r_l): its ids, without
/// the value n_p or the source entity. Built without allocating for chains
/// of up to kInlineIds - 2 relations.
class PatternKey {
 public:
  explicit PatternKey(const core::RAChain& chain);

  PatternKey(const PatternKey&) = delete;
  PatternKey& operator=(const PatternKey&) = delete;

  std::span<const int32_t> ids() const;

 private:
  static constexpr size_t kInlineIds = 16;
  int32_t inline_[kInlineIds];
  std::vector<int32_t> spill_;  // longer chains only
  size_t size_ = 0;
};

/// The chains a PatternTable::Lookup did not find, grouped by pattern.
struct PatternMisses {
  std::vector<int64_t> chain;    // ToC index of every chain not found
  std::vector<int64_t> pattern;  // chain[i]'s pattern: an index into `first`
  std::vector<int64_t> first;    // ToC index of each pattern's first chain
};

/// A bounded map from chain pattern to its end-token row e_c (`dim`
/// floats), filled by the static-graph encoder program (DESIGN §6f). A
/// pattern's row has the same bits in any Tree of Chains, at any k and any
/// padded length, so a row computed once serves every later chain with that
/// pattern. Keys are compared exactly; the hash only picks the slot.
///
/// Rows are only ever added: a full table keeps what it holds and refuses
/// new patterns, whose chains the caller then encodes on every request.
/// Storage is flat — rows in fixed-size blocks, key ids in one array, an
/// open-addressing index of row numbers — so a row costs its d floats plus
/// a few dozen bytes.
///
/// Thread-safe. Rows are copied in and out under one leaf mutex, which is
/// never held while a program runs.
class PatternTable {
 public:
  /// Holds at most capacity_bytes / (dim * sizeof(float)) rows.
  PatternTable(int64_t dim, int64_t capacity_bytes);

  PatternTable(const PatternTable&) = delete;
  PatternTable& operator=(const PatternTable&) = delete;

  /// Copies the row of every chain whose pattern is present to
  /// rows + i * dim, and appends every other chain to *missing, which
  /// starts empty, grouped by pattern. Returns the number of chains found.
  /// Allocation-free when every pattern is present.
  int64_t Lookup(const core::TreeOfChains& chains, float* rows,
                 PatternMisses* missing) const;

  /// Inserts rows + i * dim under chains[i]'s pattern for every chain whose
  /// pattern is absent, while the table has room. Returns the rows added.
  int64_t Insert(std::span<const core::RAChain* const> chains,
                 const float* rows);

  int64_t dim() const { return dim_; }
  int64_t capacity_rows() const { return capacity_rows_; }
  int64_t rows() const;
  /// rows() * dim * sizeof(float): the row storage in use.
  int64_t bytes() const;

 private:
  // Rows live in fixed-size blocks, so a row's address never moves.
  static constexpr int64_t kBlockRows = 64;

  int64_t RowsLocked() const CF_REQUIRES(mu_);
  /// Index slot holding `ids` (whose HashIds is `hash`), or the empty slot
  /// where they would go. Requires a non-empty index.
  size_t Slot(std::span<const int32_t> ids, size_t hash) const
      CF_REQUIRES(mu_);
  /// Doubles the index and re-slots every row.
  void GrowIndex() CF_REQUIRES(mu_);
  float* Row(int64_t row) const CF_REQUIRES(mu_);

  const int64_t dim_;
  const int64_t capacity_rows_;
  mutable cf::Mutex mu_{"graph.pattern_table"};
  // Open addressing with linear probing: row + 1, or 0 for an empty slot.
  // A power of two in size, at most half full.
  std::vector<uint32_t> slots_ CF_GUARDED_BY(mu_);
  // Row r's key ids are key_ids_[key_begin_[r], key_begin_[r + 1]).
  std::vector<int32_t> key_ids_ CF_GUARDED_BY(mu_);
  std::vector<uint32_t> key_begin_ CF_GUARDED_BY(mu_) = {0};
  std::vector<std::unique_ptr<float[]>> blocks_ CF_GUARDED_BY(mu_);
};

}  // namespace graph
}  // namespace chainsformer

#endif  // CHAINSFORMER_GRAPH_PATTERN_TABLE_H_
