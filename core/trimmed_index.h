// Stage 2 of the pipeline: trimming. A product pair (v, q) at level i is
// *useful* if it lies on some shortest accepting product path, i.e. its
// BFS level is i and it reaches (target, f) with f final in exactly
// lambda - i level-increasing product steps. The trimmed index keeps,
// per level:
//
//  - useful(i, v): the useful states of v at level i, and
//  - for each useful v at level i < lambda, one *queue*: the candidate
//    edges, i.e. the data edges e out of v that appear in at least one
//    answer at position i, each carrying its label and the position of
//    its destination's useful set at level i + 1. The enumerator
//    advances a reachable-state set across a candidate edge by ORing
//    the annotation's precompiled delta rows and masking with that
//    useful set — O(|A|) per edge with no per-edge move storage, and no
//    reference back to the Nfa (whose lifetime it does not control; the
//    Annotation snapshot carries the delta).
//
// Each queue is numbered once, slot_base_[level] + position in the
// useful level, and every per-queue structure sits in a flat pool under
// that number: the candidates, the B-list block and the seek ranks
// (below).
//
// Construction is one backward sweep over the annotation, on the same
// label-stratified structures as the forward BFS: the CSR LabelIndex
// supplies the per-(vertex, label) edge groups, and the states with a
// surviving move across an edge are computed word-parallel as
// (union over useful q' of rev-delta[l][q']) AND annotated(v, i) — one
// OR per useful next state plus one AND, shared across parallel edges
// with the same destination. There is one builder: per level it
// re-trims the vertices a dirty set names and copies every other
// useful slot of a previous index, remapping only the next-level
// positions. A build from scratch is that sweep from an empty index
// with every annotated vertex dirty; DeltaTrim (core/delta_annotate.h)
// passes the previous generation's index and the vertices an
// insert-only delta can have changed. Every
// other vertex would re-trim to its old slot, so a repaired index is
// bit-identical to a rebuilt one.
//
// All useful sets live in contiguous word pools (LevelSets' raw
// layout, one pool entry per useful vertex); the useful sets, the
// candidate pool and the rank pool stay O(|D| x |A|) in cost and size.
// The certificate blocks below are the one structure
// that does not: they are *dense* per-state next-usable arrays, so they
// cost sum over useful (level, v) of |useful states| x (num_cand + 1)
// entries — O(|D| x |A| x |Q|) worst case — trading a |Q| space factor
// for O(1) probes in the enumerator's hot loop. (A sparse per-state
// B-list with binary-searched seeks would restore O(|D| x |A|) space
// at an O(log fanout) probe cost; switch if index size ever bites.)
//
// The index also stores the *certificate* structure behind the paper's
// Theorem 2 delay bound (the B-lists). A candidate edge of (i, v) is
// usable from state q iff q has a surviving move across it — the very
// set the backward sweep computes per edge — and a candidate is *live*
// for a prefix with reachable-run set R iff it is usable from some
// q in R. Per useful (i, v) and per useful state q there (slot j = rank
// of q in useful(i, v)), the index keeps a next-usable array over the
// vertex's candidate list:
//
//   nxt[j][c] = smallest candidate position >= c usable from q
//               (num_cand when none)
//
// so "first live candidate at or after position c for R" is a min of
// one O(1) load per state of R (BList::NextLive) — the enumerators
// never touch a dead candidate, which is what makes their delay the
// honest O(lambda x |A|) of Theorem 2 instead of degrading with the
// dead-candidate fanout.
//
// The seek ranks serve the memoryless enumeration of Theorem 18
// (core/resumable_index.h). A queue is ascending in each edge's rank
// among its source's out-edges (LabelIndex::PositionOf), the order the
// sweep walks them in, and it keeps one entry per out-edge of its
// vertex:
//
//   rank[k] = #candidates of the queue whose PositionOf < k
//
// so "first candidate at or after this out-edge" is one load. Whether an
// edge id is one of those out-edges is its source (LabelIndex::SourceOf)
// against the queue's vertex. Ranks are per source and nothing in a
// queue names a position in the snapshot's LabelIndex, so a repair
// copies a clean queue verbatim.

#ifndef DSW_CORE_TRIMMED_INDEX_H_
#define DSW_CORE_TRIMMED_INDEX_H_

#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/annotate.h"
#include "core/database.h"
#include "core/level_sets.h"
#include "util/state_set.h"
#include "util/word_kernel.h"

namespace dsw {

class DeltaContext;

class TrimmedIndex {
 public:
  /// A data edge appearing in >= 1 answer at its level. label
  /// denormalizes the edge record; next_pos is the position of the
  /// edge's destination in useful level + 1 (see UsefulStates,
  /// UsefulLevel), resolved at build time so the enumerator's hot loop
  /// does no lookups at all.
  struct CandidateEdge {
    uint32_t edge;
    uint32_t label;
    uint32_t next_pos;
  };

  /// The Theorem 2 certificate view of one useful (level, vertex): the
  /// per-state next-usable-candidate arrays, with the useful set as the
  /// slot domain. Positions are relative to the vertex's candidate list
  /// (the CandidatesAt span, which RanksAt also indexes).
  struct BList {
    const uint32_t* nxt = nullptr;  // useful.Count() rows, num_cand+1 each
    uint32_t num_cand = 0;
    StateSetView useful;  // slot domain; any queried R satisfies R ⊆ useful

    /// Smallest candidate position >= \p from live for the reachable-run
    /// set \p r (precondition: r ⊆ useful, which every enumerator frame
    /// maintains), or num_cand when the frame is exhausted. One word-
    /// parallel walk over r's slots: O(|r|) loads plus O(|Q|/64) word
    /// ops, independent of num_cand. When \p probes is non-null it is
    /// incremented by the number of slot loads (the op-count proxy the
    /// delay tests assert on — identical in both kernel tiers).
    uint32_t NextLive(const StateSet& r, uint32_t from,
                      uint64_t* probes = nullptr) const {
      const uint32_t n = static_cast<uint32_t>(useful.num_words());
      if (n == 1)
        return NextLiveWith(SingleWordKernel(), r, from, probes);
      return NextLiveWith(MultiWordKernel(n), r, from, probes);
    }

    /// The kernel-generic body (see util/word_kernel.h for the tier
    /// story); prefer NextLive, which dispatches.
    template <typename Kernel>
    uint32_t NextLiveWith(Kernel ker, const StateSet& r, uint32_t from,
                          uint64_t* probes) const {
      const uint64_t* uw = useful.words();
      const uint64_t* rw = r.words();
      // Fast path: when every useful state is reachable (r == useful),
      // every remaining candidate is live — each one is usable from
      // some useful state by construction — so the next live candidate
      // is `from` itself. This is the common case on non-adversarial
      // prefixes and costs one word-compare per set word.
      if (ker.Equal(uw, rw)) {
        if (probes) ++*probes;
        return from;
      }
      const uint32_t stride = num_cand + 1;
      uint32_t best = num_cand;
      uint32_t base = 0;
      uint64_t count = 0;
      for (uint32_t wi = 0; wi < ker.wps(); ++wi) {
        const uint64_t u = uw[wi];
        uint64_t both = u & rw[wi];
        while (both) {
          const uint32_t bit = static_cast<uint32_t>(std::countr_zero(both));
          const uint32_t j =
              base + static_cast<uint32_t>(
                         std::popcount(u & ((uint64_t{1} << bit) - 1)));
          const uint32_t nx = nxt[static_cast<size_t>(j) * stride + from];
          if (nx < best) best = nx;
          ++count;
          both &= both - 1;
        }
        base += static_cast<uint32_t>(std::popcount(u));
      }
      if (probes) *probes += count;
      return best;
    }
  };

  /// Builds the trimmed structure from a frozen snapshot: the backward
  /// sweep from an empty index, every annotated vertex dirty. A pure
  /// read of the snapshot, safe to run concurrently with other readers.
  /// The index keeps no reference to the snapshot.
  TrimmedIndex(const Snapshot& snap, const Annotation& ann);

  /// Number of useful (v, q, level) triples; 0 iff no answer exists.
  size_t num_slots() const { return num_slots_; }
  bool empty() const { return num_slots_ == 0; }
  uint32_t words_per_set() const { return wps_; }

  /// Useful states at a (level, position) slot, e.g. a position
  /// recorded in CandidateEdge::next_pos; O(1). A useful level is raw,
  /// so its set at position pos is the one stored under id pos.
  StateSetView UsefulStates(uint32_t level, uint32_t pos) const {
    return useful_[level].set(pos);
  }

  /// Number of useful levels (lambda + 1 when an answer exists, else 0).
  uint32_t num_levels() const { return static_cast<uint32_t>(useful_.size()); }

  /// The whole useful level — sorted vertices with their state sets.
  /// Below lambda, position pos in it is the queue CandidatesAt,
  /// BListAt and RanksAt address, and vertex(pos) is the queue's vertex.
  const LevelSets& UsefulLevel(uint32_t level) const {
    return useful_[level];
  }

  /// Candidates of the vertex at position \p pos of useful level
  /// \p level (level < lambda); O(1).
  std::span<const CandidateEdge> CandidatesAt(uint32_t level,
                                              size_t pos) const {
    const size_t s = slot_base_[level] + pos;
    return {cand_pool_.data() + queues_[s].cand,
            cand_pool_.data() + queues_[s + 1].cand};
  }

  /// Certificate (B-list) structure of the vertex at position \p pos of
  /// useful level \p level (level < lambda); O(1), same positions as
  /// CandidatesAt.
  BList BListAt(uint32_t level, size_t pos) const {
    const size_t s = slot_base_[level] + pos;
    return BList{nxt_pool_.data() + queues_[s].blist,
                 queues_[s + 1].cand - queues_[s].cand,
                 useful_[level].set(static_cast<uint32_t>(pos))};
  }

  /// Seek ranks of the queue at position \p pos of useful level
  /// \p level (level < lambda): one entry per out-edge of its vertex,
  /// entry k the number of its candidates whose LabelIndex::PositionOf
  /// is below k.
  std::span<const uint32_t> RanksAt(uint32_t level, size_t pos) const {
    const size_t s = slot_base_[level] + pos;
    return {rank_pool_.data() + queues_[s].rank,
            rank_pool_.data() + queues_[s + 1].rank};
  }

  /// Heap footprint estimate, for the plan cache's byte budget.
  size_t ApproxBytes() const {
    size_t bytes = sizeof(TrimmedIndex) +
                   slot_base_.capacity() * sizeof(uint32_t) +
                   queues_.capacity() * sizeof(Queue) +
                   cand_pool_.capacity() * sizeof(CandidateEdge) +
                   nxt_pool_.capacity() * sizeof(uint32_t) +
                   rank_pool_.capacity() * sizeof(uint32_t);
    for (const LevelSets& lvl : useful_) bytes += lvl.ApproxBytes();
    return bytes;
  }

 private:
  friend TrimmedIndex DeltaTrim(
      const Snapshot& snap, const Annotation& ann,
      const TrimmedIndex& old_index, const AnnotationRepair& rep,
      const EdgeDelta& delta,
      const std::function<const DeltaContext&()>& context);

  /// Returns the sorted vertices to re-trim at level \p i, given the
  /// rebuilt useful level i + 1 and the sorted vertices whose useful set
  /// there differs from the previous index's. The span need only stay
  /// valid until the next call.
  using DirtyAt = std::function<std::span<const uint32_t>(
      uint32_t i, const LevelSets& next_useful,
      std::span<const uint32_t> changed_next)>;

  TrimmedIndex() = default;  // no levels: the predecessor of a first build

  /// The one builder: sweeps lambda - 1 down to 0, re-trimming the
  /// vertices dirty_at names and copying every other useful slot of
  /// \p old. Bit-identical to a build from scratch whenever every vertex
  /// left clean would re-trim to its slot in \p old (same useful set,
  /// candidates, B-list block and ranks); \p old must be empty or have
  /// the same lambda as \p ann.
  TrimmedIndex(const Snapshot& snap, const Annotation& ann,
               const TrimmedIndex& old, const DirtyAt& dirty_at);

  /// Where one queue's structures start in the pools; each ends where
  /// the next queue's start, and queues_ ends with a sentinel entry.
  struct Queue {
    size_t blist;   // first entry of the B-list block in nxt_pool_
    uint32_t cand;  // first candidate in cand_pool_
    uint32_t rank;  // first seek rank in rank_pool_
  };

  uint32_t wps_ = 0;
  std::vector<LevelSets> useful_;  // per level, sorted vertices
  // Level -> number of its first queue; size lambda. The sweep lays the
  // levels out from lambda - 1 down to 0.
  std::vector<uint32_t> slot_base_;
  std::vector<Queue> queues_;  // #queues + 1
  std::vector<CandidateEdge> cand_pool_;
  // B-list blocks: useful-state-major rows of num_cand + 1 next-usable
  // entries each (see BList).
  std::vector<uint32_t> nxt_pool_;
  std::vector<uint32_t> rank_pool_;  // one entry per queue out-edge
  size_t num_slots_ = 0;
};

}  // namespace dsw

#endif  // DSW_CORE_TRIMMED_INDEX_H_
