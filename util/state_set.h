// Dynamic bitset over automaton states. Product-BFS annotation, trimming
// and enumeration all manipulate sets of NFA states; |Q| is small (tens
// to a few hundred) so a flat word array beats std::set/unordered_set by
// a wide margin and gives O(|Q|/64) unions and intersections.
//
// Two types: StateSet owns its words; StateSetView is a non-owning
// (words, num_bits) pair over word storage owned elsewhere — the
// annotation levels and the trimmed index store thousands of sets in
// contiguous pools and hand out views, so the hot paths never allocate
// or copy per set. A default-constructed view is "null" (tests false),
// which is the lookup-miss sentinel throughout the pipeline.

#ifndef DSW_UTIL_STATE_SET_H_
#define DSW_UTIL_STATE_SET_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dsw {

namespace state_set_detail {

constexpr size_t WordsFor(uint32_t num_bits) { return (num_bits + 63) / 64; }

template <typename Fn>
void ForEachBit(const uint64_t* words, size_t num_words, Fn&& fn) {
  for (size_t wi = 0; wi < num_words; ++wi) {
    uint64_t w = words[wi];
    while (w) {
      uint32_t bit = static_cast<uint32_t>(std::countr_zero(w));
      fn(static_cast<uint32_t>(wi * 64 + bit));
      w &= w - 1;
    }
  }
}

}  // namespace state_set_detail

/// Non-owning view of a bitset whose words live in someone else's pool.
/// Null (default-constructed) views test false; they stand for "no set
/// here" in level/index lookups.
class StateSetView {
 public:
  constexpr StateSetView() = default;
  constexpr StateSetView(const uint64_t* words, uint32_t num_bits)
      : words_(words), num_bits_(num_bits) {}

  explicit operator bool() const { return words_ != nullptr; }
  uint32_t capacity() const { return num_bits_; }
  const uint64_t* words() const { return words_; }
  size_t num_words() const { return state_set_detail::WordsFor(num_bits_); }

  bool Test(uint32_t i) const {
    // A null view is the lookup-miss sentinel: callers must branch on
    // the view (or its capacity) before probing bits. Dereferencing the
    // null words pointer is UB that usually reads as "bit not set" —
    // die loudly instead, like the index generation checks.
    assert(words_ != nullptr && "Test on a null StateSetView");
    assert(i < num_bits_ && "Test past the view's capacity");
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  bool Any() const {
    for (size_t i = 0; i < num_words(); ++i)
      if (words_[i]) return true;
    return false;
  }
  bool None() const { return !Any(); }

  uint32_t Count() const {
    uint32_t n = 0;
    for (size_t i = 0; i < num_words(); ++i)
      n += static_cast<uint32_t>(std::popcount(words_[i]));
    return n;
  }

  bool Intersects(StateSetView o) const {
    size_t n = num_words() < o.num_words() ? num_words() : o.num_words();
    for (size_t i = 0; i < n; ++i)
      if (words_[i] & o.words_[i]) return true;
    return false;
  }

  /// Calls \p fn(state) for every set bit, in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    // A null view happens to iterate zero words today, but calling
    // ForEach on one is a missed lookup-miss branch at the call site —
    // surface the misuse instead of masking it.
    assert(words_ != nullptr && "ForEach on a null StateSetView");
    state_set_detail::ForEachBit(words_, num_words(), fn);
  }

 private:
  const uint64_t* words_ = nullptr;
  uint32_t num_bits_ = 0;
};

class StateSet {
 public:
  StateSet() = default;
  explicit StateSet(uint32_t num_bits)
      : num_bits_(num_bits), words_(state_set_detail::WordsFor(num_bits), 0) {}

  uint32_t capacity() const { return num_bits_; }

  /// Raw word access for the word-parallel hot paths. Writers must keep
  /// bits above capacity() clear in the last word (Resize defensively
  /// re-clears the tail when growing, so stale dirt never resurfaces).
  const uint64_t* words() const { return words_.data(); }
  uint64_t* mutable_words() { return words_.data(); }
  size_t num_words() const { return words_.size(); }

  /// Implicit read-only view; lets every view-taking helper accept an
  /// owning set directly.
  operator StateSetView() const { return {words_.data(), num_bits_}; }
  StateSetView view() const { return {words_.data(), num_bits_}; }

  void Resize(uint32_t num_bits) {
    if (num_bits > num_bits_) {
      // Growing: bits in [num_bits_, 64 * num_words()) of the old last
      // word may be dirty (raw word writers), and would silently come
      // into range — clear them before they do.
      ClearTail();
      words_.resize(state_set_detail::WordsFor(num_bits), 0);
    } else if (num_bits < num_bits_) {
      words_.resize(state_set_detail::WordsFor(num_bits), 0);
      num_bits_ = num_bits;
      ClearTail();  // clear stale bits above the new size
      return;
    }
    num_bits_ = num_bits;
  }

  /// *this = o (capacity and bits).
  void Assign(StateSetView o) {
    num_bits_ = o.capacity();
    words_.assign(o.words(), o.words() + o.num_words());
  }

  void Set(uint32_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Clear(uint32_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  bool Test(uint32_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  bool Any() const {
    for (uint64_t w : words_)
      if (w) return true;
    return false;
  }
  bool None() const { return !Any(); }

  uint32_t Count() const {
    uint32_t n = 0;
    for (uint64_t w : words_) n += static_cast<uint32_t>(std::popcount(w));
    return n;
  }

  void ZeroAll() {
    for (uint64_t& w : words_) w = 0;
  }

  /// *this |= o, growing capacity if needed; returns true iff any bit
  /// was newly set — the fixed-point loops (closure saturation,
  /// backward sweeps) key on the changed-flag instead of re-comparing.
  bool UnionWith(StateSetView o) {
    if (o.capacity() > num_bits_) Resize(o.capacity());
    return UnionWithWords(o.words(), o.num_words());
  }

  /// Word-parallel OR of \p n raw words (n <= num_words()); returns
  /// true iff any bit changed.
  bool UnionWithWords(const uint64_t* w, size_t n) {
    uint64_t changed = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t add = w[i] & ~words_[i];
      changed |= add;
      words_[i] |= add;
    }
    return changed != 0;
  }

  StateSet& operator|=(const StateSet& o) {
    UnionWith(o.view());
    return *this;
  }

  StateSet& operator&=(StateSetView o) {
    for (size_t i = 0; i < words_.size(); ++i)
      words_[i] &= i < o.num_words() ? o.words()[i] : 0;
    return *this;
  }
  StateSet& operator&=(const StateSet& o) { return *this &= o.view(); }

  bool Intersects(StateSetView o) const { return view().Intersects(o); }

  /// Calls \p fn(state) for every set bit, in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    state_set_detail::ForEachBit(words_.data(), words_.size(), fn);
  }

  friend bool operator==(const StateSet& a, const StateSet& b) {
    size_t n = a.words_.size() > b.words_.size() ? a.words_.size()
                                                 : b.words_.size();
    for (size_t i = 0; i < n; ++i) {
      uint64_t wa = i < a.words_.size() ? a.words_[i] : 0;
      uint64_t wb = i < b.words_.size() ? b.words_[i] : 0;
      if (wa != wb) return false;
    }
    return true;
  }

 private:
  void ClearTail() {
    uint32_t tail = num_bits_ & 63;
    if (!words_.empty() && tail != 0)
      words_.back() &= (uint64_t{1} << tail) - 1;
  }

  uint32_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace dsw

#endif  // DSW_UTIL_STATE_SET_H_
