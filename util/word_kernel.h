// Kernel policies behind the execution-tier layer (core/query_traits.h).
//
// Every hot loop of the pipeline — the product-BFS frontier move in
// core/annotate.cc, the trim reverse sweep in core/trimmed_index.cc, the
// enumerators' AdvanceStates and the certificate's NextLive — is
// word-width generic: it iterates ceil(|Q|/64) words per state set. For
// |Q| <= 64 (the common RPQ case) that loop runs exactly once, and the
// loop control, pointer arithmetic and unknown trip count cost more than
// the single OR/AND they guard. The policies here let each hot function
// be written once, templated over a kernel, and instantiated twice:
//
//  - MultiWordKernel carries the runtime word count; its instantiation
//    is the exact loop structure the pipeline always had, so the general
//    tier is bit-identical to the pre-tier code by construction.
//  - SingleWordKernel's wps() is a compile-time 1: after inlining, every
//    loop below folds to one scalar uint64_t operation — the
//    "one-uint64_t kernels" of the single-word tier.
//
// Dispatch happens at the entry points (Annotate, trim_detail::
// TrimVertex, enumerator_detail::AdvanceStates, BList::NextLive) on
// words-per-set == 1; callers never name a kernel. Tests and benches
// force the multi-word instantiation onto a one-word query's whole plan
// (AnnotateOptions::force_multi_word, recorded on the Annotation) to
// assert bit-identity and to measure the kernel win in isolation.

#ifndef DSW_UTIL_WORD_KERNEL_H_
#define DSW_UTIL_WORD_KERNEL_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace dsw {

/// Shared op vocabulary over raw word arrays of Derived::wps() words.
/// CRTP instead of a virtual interface: the whole point is that the
/// compiler sees the trip count (a constant 1 for SingleWordKernel) and
/// erases the loops.
template <typename Derived>
struct WordKernelOps {
  uint32_t W() const { return static_cast<const Derived&>(*this).wps(); }

  void Zero(uint64_t* dst) const {
    for (uint32_t w = 0; w < W(); ++w) dst[w] = 0;
  }

  void Or(uint64_t* dst, const uint64_t* src) const {
    for (uint32_t w = 0; w < W(); ++w) dst[w] |= src[w];
  }

  void And(uint64_t* dst, const uint64_t* src) const {
    for (uint32_t w = 0; w < W(); ++w) dst[w] &= src[w];
  }

  bool Any(const uint64_t* a) const {
    uint64_t acc = 0;
    for (uint32_t w = 0; w < W(); ++w) acc |= a[w];
    return acc != 0;
  }

  bool Equal(const uint64_t* a, const uint64_t* b) const {
    for (uint32_t w = 0; w < W(); ++w)
      if (a[w] != b[w]) return false;
    return true;
  }

  /// add = src & ~seen, word by word; returns the OR of add (nonzero iff
  /// any genuinely new bit). The product BFS's per-edge relax step.
  uint64_t NewBits(uint64_t* add, const uint64_t* src,
                   const uint64_t* seen) const {
    uint64_t any = 0;
    for (uint32_t w = 0; w < W(); ++w) {
      add[w] = src[w] & ~seen[w];
      any |= add[w];
    }
    return any;
  }

  /// a |= add and b |= add in one pass — committing new bits to the seen
  /// matrix and the next-frontier accumulator together.
  void CommitInto(uint64_t* a, uint64_t* b, const uint64_t* add) const {
    for (uint32_t w = 0; w < W(); ++w) {
      a[w] |= add[w];
      b[w] |= add[w];
    }
  }

  /// fn(bit index) for every set bit of \p a, ascending.
  template <typename Fn>
  void ForEachBit(const uint64_t* a, Fn&& fn) const {
    for (uint32_t wi = 0; wi < W(); ++wi) {
      uint64_t w = a[wi];
      while (w) {
        fn(static_cast<uint32_t>(wi * 64 +
                                 static_cast<uint32_t>(std::countr_zero(w))));
        w &= w - 1;
      }
    }
  }

  /// fn(bit index) for every set bit of a & b, ascending, without
  /// materializing the intersection.
  template <typename Fn>
  void ForEachAnd(const uint64_t* a, const uint64_t* b, Fn&& fn) const {
    for (uint32_t wi = 0; wi < W(); ++wi) {
      uint64_t w = a[wi] & b[wi];
      while (w) {
        fn(static_cast<uint32_t>(wi * 64 +
                                 static_cast<uint32_t>(std::countr_zero(w))));
        w &= w - 1;
      }
    }
  }
};

/// General tier: runtime word count, arbitrary |Q|.
struct MultiWordKernel : WordKernelOps<MultiWordKernel> {
  explicit MultiWordKernel(uint32_t wps) : wps_(wps) {}
  uint32_t wps() const { return wps_; }
  uint32_t wps_;
};

/// Single-word tier (|Q| <= 64): the trip count is a compile-time 1, so
/// every WordKernelOps loop disappears after inlining.
struct SingleWordKernel : WordKernelOps<SingleWordKernel> {
  explicit SingleWordKernel(uint32_t wps = 1) {
    assert(wps == 1 && "SingleWordKernel requires |Q| <= 64");
    (void)wps;
  }
  static constexpr uint32_t wps() { return 1; }
};

}  // namespace dsw

#endif  // DSW_UTIL_WORD_KERNEL_H_
