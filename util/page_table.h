// A table over dense ids [0, count) split into pages of 2^Bits
// consecutive ids, each an immutable object behind a shared_ptr. A table
// derived from an earlier one copies only the page pointers and rebuilds
// the pages its caller touches, so two generations of an append-only
// structure share every page a write left alone, and deriving costs the
// page table plus the rebuilt pages rather than the whole structure.
//
// The label index (core/database.h) pages its adjacency by vertex and
// its per-edge records by edge id through this helper, and the reverse
// adjacency of the delta-repair layer (core/delta_annotate.h) pages its
// in-neighbour lists by vertex.

#ifndef DSW_UTIL_PAGE_TABLE_H_
#define DSW_UTIL_PAGE_TABLE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace dsw {

template <typename Page, uint32_t Bits>
class PageTable {
 public:
  static constexpr uint32_t kPageSize = uint32_t{1} << Bits;

  /// The slot of id \p i within its page.
  static uint32_t SlotOf(uint32_t i) { return i & (kPageSize - 1); }

  /// Number of pages that hold ids [0, count).
  static uint32_t PagesFor(uint32_t count) {
    return static_cast<uint32_t>((uint64_t{count} + kPageSize - 1) >> Bits);
  }

  /// The page holding id \p i; i must be below the table's count.
  const Page& PageHolding(uint32_t i) const { return *pages_[i >> Bits]; }

  /// Identity of the page holding id \p i: two tables share that page
  /// iff they return the same pointer.
  const void* PageId(uint32_t i) const { return pages_[i >> Bits].get(); }

  /// Derives a table of ids [0, count) from \p prev, the table of ids
  /// [0, prev_count), prev_count <= count. Every page of prev is shared
  /// except those holding an id in [prev_count, count) and those holding
  /// an id passed to Touch; each of these is a new, default-constructed
  /// page that the caller fills through the reference Touch returns.
  /// The caller must not share the builder's table until it is done.
  class Builder {
   public:
    Builder(const PageTable& prev, uint32_t prev_count, uint32_t count)
        : prev_(prev), table_(prev), count_(count),
          fresh_(PagesFor(count), nullptr) {
      assert(prev_count <= count);
      table_.pages_.resize(PagesFor(count));
      if (prev_count < count)
        for (uint32_t p = prev_count >> Bits; p < PagesFor(count); ++p)
          Touch(p << Bits);
    }

    /// The new page holding id \p i (i < count), made on the first call
    /// for its page.
    Page& Touch(uint32_t i) {
      const uint32_t p = i >> Bits;
      if (fresh_[p] == nullptr) {
        auto page = std::make_shared<Page>();
        fresh_[p] = page.get();
        table_.pages_[p] = std::move(page);
        touched_.push_back(p);
      }
      return *fresh_[p];
    }

    /// The new page number \p p, or null when it is shared.
    Page* Fresh(uint32_t p) const { return fresh_[p]; }

    /// prev's page number \p p, or null when prev has none.
    const Page* Prev(uint32_t p) const {
      return p < prev_.pages_.size() ? prev_.pages_[p].get() : nullptr;
    }

    /// Number of ids page \p p holds: the page size, except in the last.
    uint32_t SizeOf(uint32_t p) const {
      return std::min(kPageSize, count_ - (p << Bits));
    }

    /// The numbers of the new pages, ascending.
    const std::vector<uint32_t>& touched() {
      std::sort(touched_.begin(), touched_.end());
      return touched_;
    }

    /// The derived table.
    PageTable Finish() && { return std::move(table_); }

   private:
    const PageTable& prev_;
    PageTable table_;
    const uint32_t count_;
    std::vector<Page*> fresh_;  // page number -> new page, or null
    std::vector<uint32_t> touched_;
  };

 private:
  std::vector<std::shared_ptr<const Page>> pages_;
};

}  // namespace dsw

#endif  // DSW_UTIL_PAGE_TABLE_H_
