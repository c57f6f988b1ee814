// One BFS (or trim) level: the touched vertices in sorted order, each
// carrying a StateSet whose words live in a single contiguous pool.
// Replaces the unordered_map<uint32_t, StateSet> levels of the original
// pipeline: no per-vertex heap allocation, cache-linear sweeps for the
// "for each (v, states) in level" loops, O(log n) point lookups, and a
// deterministic (sorted) iteration order — which in turn makes
// enumeration order deterministic across platforms.

#ifndef DSW_CORE_LEVEL_SETS_H_
#define DSW_CORE_LEVEL_SETS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/state_set.h"

namespace dsw {

class LevelSets {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  LevelSets() = default;
  explicit LevelSets(uint32_t num_bits)
      : num_bits_(num_bits),
        words_per_set_(
            static_cast<uint32_t>(state_set_detail::WordsFor(num_bits))) {}

  size_t size() const { return vertices_.size(); }
  bool empty() const { return vertices_.empty(); }
  uint32_t words_per_set() const { return words_per_set_; }
  const std::vector<uint32_t>& vertices() const { return vertices_; }

  uint32_t vertex(size_t i) const { return vertices_[i]; }
  StateSetView states(size_t i) const {
    return {&words_[i * words_per_set_], num_bits_};
  }

  /// States at vertex \p v, or a null view when v is not in the level.
  StateSetView Find(uint32_t v) const {
    size_t i = FindIndex(v);
    return i == npos ? StateSetView() : states(i);
  }

  /// Position of \p v in the sorted vertex array, or npos.
  size_t FindIndex(uint32_t v) const {
    auto it = std::lower_bound(vertices_.begin(), vertices_.end(), v);
    if (it == vertices_.end() || *it != v) return npos;
    return static_cast<size_t>(it - vertices_.begin());
  }

  /// Appends (v, states). Vertices must arrive in strictly increasing
  /// order; \p words points at words_per_set() words.
  void Append(uint32_t v, const uint64_t* words) {
    vertices_.push_back(v);
    words_.insert(words_.end(), words, words + words_per_set_);
  }

  void Reserve(size_t n) {
    vertices_.reserve(n);
    words_.reserve(n * words_per_set_);
  }

  /// Appends \p other's entries at positions [begin, end) wholesale.
  /// The same strictly-increasing-vertex contract as Append applies.
  void AppendRange(const LevelSets& other, size_t begin, size_t end) {
    vertices_.insert(vertices_.end(), other.vertices_.begin() + begin,
                     other.vertices_.begin() + end);
    words_.insert(words_.end(),
                  other.words_.begin() + begin * words_per_set_,
                  other.words_.begin() + end * words_per_set_);
  }

  /// Heap footprint estimate, for the plan cache's byte budget.
  size_t ApproxBytes() const {
    return vertices_.capacity() * sizeof(uint32_t) +
           words_.capacity() * sizeof(uint64_t);
  }

 private:
  uint32_t num_bits_ = 0;
  uint32_t words_per_set_ = 0;
  std::vector<uint32_t> vertices_;  // sorted
  std::vector<uint64_t> words_;     // size() * words_per_set_ words
};

}  // namespace dsw

#endif  // DSW_CORE_LEVEL_SETS_H_
