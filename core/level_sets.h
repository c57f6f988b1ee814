// One BFS (or trim) level: the touched vertices in sorted order, each
// carrying a StateSet. Replaces the unordered_map<uint32_t, StateSet>
// levels of the original pipeline: no per-vertex heap allocation,
// cache-linear sweeps for the "for each (v, states) in level" loops,
// O(log n) point lookups, and a deterministic (sorted) iteration order —
// which in turn makes enumeration order deterministic across platforms.
//
// Two layouts, chosen at construction by the level's role. Either is two
// heap blocks, the vertices and one block of words:
//
//  - Raw: each vertex's set, ceil(|Q|/64) words, in one contiguous pool,
//    so a state lookup is one indexed load. The trim's useful sets are
//    raw, because the enumerator reads them on every push; coding them
//    too read 6-16% slower first pages and 3-22% slower installs on
//    perfbench's write_mix (EXPERIMENTS.md E12, "A level stores each
//    state set once").
//  - Coded: a table of the level's distinct sets, each stored once,
//    followed in the same block by each set's use count (how many
//    vertices carry it) and one 4-byte set id per vertex; a level of one
//    set stores neither. Annotation levels are coded: only the trim and
//    a repair read them, and a level holds few distinct sets — on
//    perfbench's cold plans at most 16, about 2 on average, one in 70%
//    of levels — so a vertex costs 8 bytes (4 in a level of one set)
//    plus its share of the table, where the raw layout costs
//    4 + 8 ceil(|Q|/64). The use counts let a repair, which replaces a
//    few entries, find the sets no vertex uses any more at the cost of
//    its events rather than of the level.
//
// A raw level grows entry by entry (Append). A coded level takes its
// vertices first (AppendVertex, AppendVertices) and then its table,
// counts and ids at once (AssignSets), so its block is allocated to
// fit. Interning belongs to the builder: the product BFS hashes into its
// own scratch, and a merge copies runs of an old level's ids verbatim
// (AppendIdsTo).
//
// A view (states, Find, set) into a level stays valid only until the
// next Append or AssignSets on that level: either may reallocate the
// words the view points into.

#ifndef DSW_CORE_LEVEL_SETS_H_
#define DSW_CORE_LEVEL_SETS_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/state_set.h"

namespace dsw {

class LevelSets {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  /// How the level stores its sets (the header comment).
  enum class Layout : uint8_t { kRaw, kCoded };

  LevelSets() = default;
  LevelSets(uint32_t num_bits, Layout layout)
      : num_bits_(num_bits),
        words_per_set_(
            static_cast<uint32_t>(state_set_detail::WordsFor(num_bits))),
        coded_(layout == Layout::kCoded) {}

  size_t size() const { return vertices_.size(); }
  bool empty() const { return vertices_.empty(); }
  uint32_t words_per_set() const { return words_per_set_; }
  bool coded() const { return coded_; }
  const std::vector<uint32_t>& vertices() const { return vertices_; }

  uint32_t vertex(size_t i) const { return vertices_[i]; }
  StateSetView states(size_t i) const {
    return set(coded_ ? set_id(i) : static_cast<uint32_t>(i));
  }

  /// Sets stored: the table's in the coded layout, one per vertex in
  /// the raw one.
  size_t num_sets() const { return coded_ ? num_sets_ : vertices_.size(); }

  /// The set stored at \p id: the table entry of that id in the coded
  /// layout, the set of the vertex at position \p id in the raw one.
  StateSetView set(uint32_t id) const {
    assert(id < num_sets() && "set id past the level's table");
    return {&words_[static_cast<size_t>(id) * words_per_set_], num_bits_};
  }

  /// A coded level's set ids, one per position, read in place: a view,
  /// valid like the others until the next Append or AssignSets.
  class Ids {
   public:
    uint32_t operator[](size_t i) const {
      if (bytes_ == nullptr) return 0;  // a level of at most one set
      uint32_t id;
      std::memcpy(&id, bytes_ + i * sizeof id, sizeof id);
      return id;
    }

   private:
    friend class LevelSets;
    explicit Ids(const unsigned char* bytes) : bytes_(bytes) {}
    const unsigned char* bytes_;
  };

  /// The set ids of the level's positions (coded layout).
  Ids ids() const {
    assert(coded_);
    return Ids(num_sets_ > 1 ? UintBytes() + num_sets_ * sizeof(uint32_t)
                             : nullptr);
  }

  /// The id of the set at position \p i (coded layout).
  uint32_t set_id(size_t i) const {
    assert(i < size());
    return ids()[i];
  }

  /// How many vertices carry the set of id \p id (coded layout).
  uint32_t use_count(uint32_t id) const {
    assert(coded_ && id < num_sets_);
    if (num_sets_ == 1) return static_cast<uint32_t>(size());
    uint32_t uses;
    std::memcpy(&uses, UintBytes() + id * sizeof uses, sizeof uses);
    return uses;
  }

  /// Appends the ids of positions [begin, end) to \p out (coded layout).
  void AppendIdsTo(size_t begin, size_t end,
                   std::vector<uint32_t>* out) const {
    assert(coded_ && begin <= end && end <= size());
    const size_t at = out->size();
    out->resize(at + (end - begin));
    if (num_sets_ > 1 && end > begin)
      std::memcpy(out->data() + at,
                  UintBytes() + (num_sets_ + begin) * sizeof(uint32_t),
                  (end - begin) * sizeof(uint32_t));
  }

  /// The stored sets' words, num_sets() x words_per_set().
  std::span<const uint64_t> set_words() const {
    return {words_.data(), num_sets() * words_per_set_};
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

  /// Appends (v, states) (raw layout). Vertices must arrive in strictly
  /// increasing order; \p words points at words_per_set() words.
  void Append(uint32_t v, const uint64_t* words) {
    assert(!coded_);
    vertices_.push_back(v);
    words_.insert(words_.end(), words, words + words_per_set_);
  }

  /// Appends vertex \p v (coded layout), under the same order as
  /// Append; its set comes with AssignSets.
  void AppendVertex(uint32_t v) {
    assert(coded_);
    vertices_.push_back(v);
  }

  /// Appends \p other's vertices at positions [begin, end) (coded
  /// layout), under the same order as Append.
  void AppendVertices(const LevelSets& other, size_t begin, size_t end) {
    assert(coded_);
    vertices_.insert(vertices_.end(), other.vertices_.begin() + begin,
                     other.vertices_.begin() + end);
  }

  /// Gives every vertex its set (coded layout): \p sets holds the
  /// table, num_sets x words_per_set() words, \p uses each set's use
  /// count, and \p ids one id per vertex, in position order. The block
  /// is allocated to fit.
  void AssignSets(std::span<const uint64_t> sets,
                  std::span<const uint32_t> uses,
                  std::span<const uint32_t> ids) {
    assert(coded_ && ids.size() == size());
    num_sets_ = static_cast<uint32_t>(uses.size());
    assert(sets.size() == num_sets_ * words_per_set_);
    const size_t uint_bytes =
        num_sets_ > 1 ? (uses.size() + ids.size()) * sizeof(uint32_t) : 0;
    const size_t words = sets.size() + (uint_bytes + 7) / 8;
    std::vector<uint64_t> block;
    block.reserve(words);
    block.assign(sets.begin(), sets.end());
    block.resize(words);
    words_.swap(block);
    if (uint_bytes > 0) {
      unsigned char* at = reinterpret_cast<unsigned char*>(
          words_.data() + static_cast<size_t>(num_sets_) * words_per_set_);
      std::memcpy(at, uses.data(), uses.size() * sizeof(uint32_t));
      std::memcpy(at + uses.size() * sizeof(uint32_t), ids.data(),
                  ids.size() * sizeof(uint32_t));
    }
  }

  /// Reserves room for \p n entries: vertices, and pool words when raw.
  void Reserve(size_t n) {
    vertices_.reserve(n);
    if (!coded_) words_.reserve(n * words_per_set_);
  }

  /// Heap footprint estimate, for the plan cache's byte budget: the
  /// vertices, and the pool or the table, use counts and ids.
  size_t ApproxBytes() const {
    return vertices_.capacity() * sizeof(uint32_t) +
           words_.capacity() * sizeof(uint64_t);
  }

 private:
  // The use counts' and then the ids' bytes, after the table (coded
  // layout, num_sets_ > 1).
  const unsigned char* UintBytes() const {
    return reinterpret_cast<const unsigned char*>(
        words_.data() + static_cast<size_t>(num_sets_) * words_per_set_);
  }

  std::vector<uint32_t> vertices_;  // sorted
  // Raw: size() * words_per_set_ words. Coded: the table, num_sets_ *
  // words_per_set_ words, then, when num_sets_ > 1, a use count per set
  // and an id per vertex, 4 bytes each.
  std::vector<uint64_t> words_;
  uint32_t num_sets_ = 0;  // coded: the table's sets
  uint32_t num_bits_ = 0;
  uint32_t words_per_set_ = 0;
  bool coded_ = false;
};

}  // namespace dsw

#endif  // DSW_CORE_LEVEL_SETS_H_
