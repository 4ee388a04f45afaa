#include "graph/pattern_table.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"
#include "util/rng.h"

namespace chainsformer {
namespace graph {
namespace {

size_t HashIds(std::span<const int32_t> ids) {
  uint64_t h = ids.size();
  for (int32_t id : ids) h = Mix64(h ^ static_cast<uint32_t>(id));
  return static_cast<size_t>(h);
}

}  // namespace

PatternKey::PatternKey(const core::RAChain& chain)
    : size_(chain.relations.size() + 2) {
  int32_t* out = inline_;
  if (size_ > kInlineIds) {
    spill_.resize(size_);
    out = spill_.data();
  }
  out[0] = chain.source_attribute;
  out[1] = chain.query_attribute;
  std::copy(chain.relations.begin(), chain.relations.end(), out + 2);
}

std::span<const int32_t> PatternKey::ids() const {
  return {size_ > kInlineIds ? spill_.data() : inline_, size_};
}

PatternTable::PatternTable(int64_t dim, int64_t capacity_bytes)
    : dim_(dim),
      capacity_rows_(capacity_bytes /
                     (dim * static_cast<int64_t>(sizeof(float)))) {
  CF_CHECK_GT(dim, 0);
}

int64_t PatternTable::RowsLocked() const {
  return static_cast<int64_t>(key_begin_.size()) - 1;
}

float* PatternTable::Row(int64_t row) const {
  return blocks_[static_cast<size_t>(row / kBlockRows)].get() +
         (row % kBlockRows) * dim_;
}

size_t PatternTable::Slot(std::span<const int32_t> ids, size_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    if (slots_[i] == 0) return i;
    const size_t row = slots_[i] - 1;
    const auto begin = key_ids_.begin() + key_begin_[row];
    const auto end = key_ids_.begin() + key_begin_[row + 1];
    if (std::equal(ids.begin(), ids.end(), begin, end)) return i;
  }
}

void PatternTable::GrowIndex() {
  slots_.assign(std::max<size_t>(16, 2 * slots_.size()), 0);
  for (int64_t row = 0; row < RowsLocked(); ++row) {
    const std::span<const int32_t> ids(
        key_ids_.data() + key_begin_[static_cast<size_t>(row)],
        key_begin_[static_cast<size_t>(row) + 1] -
            key_begin_[static_cast<size_t>(row)]);
    slots_[Slot(ids, HashIds(ids))] = static_cast<uint32_t>(row + 1);
  }
}

int64_t PatternTable::Lookup(const core::TreeOfChains& chains, float* rows,
                             PatternMisses* missing) const {
  int64_t found = 0;
  std::vector<size_t> missed_hash;  // per distinct missed pattern
  cf::MutexLock lock(mu_);
  for (size_t i = 0; i < chains.size(); ++i) {
    const PatternKey key(chains[i]);
    const size_t hash = HashIds(key.ids());
    const uint32_t slot = slots_.empty() ? 0 : slots_[Slot(key.ids(), hash)];
    if (slot != 0) {
      std::memcpy(rows + static_cast<int64_t>(i) * dim_, Row(slot - 1),
                  static_cast<size_t>(dim_) * sizeof(float));
      ++found;
      continue;
    }
    // Group the miss with an earlier one of the same pattern: equal hashes
    // first, then the exact ids.
    size_t u = 0;
    while (u < missed_hash.size() &&
           !(missed_hash[u] == hash &&
             std::ranges::equal(
                 key.ids(),
                 PatternKey(chains[static_cast<size_t>(missing->first[u])])
                     .ids()))) {
      ++u;
    }
    if (u == missed_hash.size()) {
      missed_hash.push_back(hash);
      missing->first.push_back(static_cast<int64_t>(i));
    }
    missing->chain.push_back(static_cast<int64_t>(i));
    missing->pattern.push_back(static_cast<int64_t>(u));
  }
  return found;
}

int64_t PatternTable::Insert(std::span<const core::RAChain* const> chains,
                             const float* rows) {
  int64_t added = 0;
  cf::MutexLock lock(mu_);
  for (size_t i = 0; i < chains.size(); ++i) {
    const int64_t row = RowsLocked();
    if (row >= capacity_rows_) break;
    const PatternKey key(*chains[i]);
    const size_t hash = HashIds(key.ids());
    if (!slots_.empty() && slots_[Slot(key.ids(), hash)] != 0) continue;
    if (2 * static_cast<size_t>(row + 1) > slots_.size()) GrowIndex();
    if (row % kBlockRows == 0) {
      blocks_.push_back(
          std::make_unique<float[]>(static_cast<size_t>(kBlockRows * dim_)));
    }
    std::memcpy(Row(row), rows + static_cast<int64_t>(i) * dim_,
                static_cast<size_t>(dim_) * sizeof(float));
    slots_[Slot(key.ids(), hash)] = static_cast<uint32_t>(row + 1);
    key_ids_.insert(key_ids_.end(), key.ids().begin(), key.ids().end());
    key_begin_.push_back(static_cast<uint32_t>(key_ids_.size()));
    ++added;
  }
  return added;
}

int64_t PatternTable::rows() const {
  cf::MutexLock lock(mu_);
  return RowsLocked();
}

int64_t PatternTable::bytes() const {
  return rows() * dim_ * static_cast<int64_t>(sizeof(float));
}

}  // namespace graph
}  // namespace chainsformer
