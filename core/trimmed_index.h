// Stage 2 of the pipeline: trimming. A product pair (v, q) at level i is
// *useful* if it lies on some shortest accepting product path, i.e. its
// BFS level is i and it reaches (target, f) with f final in exactly
// lambda - i level-increasing product steps. The trimmed index keeps,
// per level:
//
//  - useful(i, v): the useful states of v at level i, and
//  - candidate edges: for each v at level i < lambda, the data edges e
//    out of v that appear in at least one answer at position i, each
//    carrying its label and the position of its destination's useful
//    set at level i + 1. The enumerator advances a reachable-state set
//    across a candidate edge by ORing the annotation's precompiled
//    delta rows and masking with that useful set — O(|A|) per edge with
//    no per-edge move storage, and no reference back to the Nfa (whose
//    lifetime it does not control; the Annotation snapshot carries the
//    delta).
//
// Construction is one backward sweep over the annotation, on the same
// label-stratified structures as the forward BFS: the CSR LabelIndex
// supplies the per-(vertex, label) edge groups, and the states with a
// surviving move across an edge are computed word-parallel as
// (union over useful q' of rev-delta[l][q']) AND annotated(v, i) — one
// OR per useful next state plus one AND, shared across parallel edges
// with the same destination, instead of nested per-transition lambda
// scans. All useful sets live in contiguous word pools (LevelSets);
// the useful sets and the candidate pool stay O(|D| x |A|) in cost and
// size. The certificate blocks below are the one structure that does
// not: they are *dense* per-state next-usable arrays, so they cost
// sum over useful (level, v) of |useful states| x (num_cand + 1)
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

#ifndef DSW_CORE_TRIMMED_INDEX_H_
#define DSW_CORE_TRIMMED_INDEX_H_

#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/annotate.h"
#include "core/database.h"
#include "core/level_sets.h"
#include "util/state_set.h"
#include "util/word_kernel.h"

namespace dsw {

class TrimmedIndex {
 public:
  /// A data edge appearing in >= 1 answer at its level. dst and label
  /// denormalize the edge record; next_pos is the position of dst's
  /// useful set in level + 1 (see UsefulStates), resolved at build time
  /// so the enumerator's hot loop does no lookups at all.
  struct CandidateEdge {
    uint32_t edge;
    uint32_t dst;
    uint32_t label;
    uint32_t next_pos;
  };

  /// The Theorem 2 certificate view of one useful (level, vertex): the
  /// per-state next-usable-candidate arrays, with the useful set as the
  /// slot domain. Positions are relative to the vertex's candidate list
  /// (Candidates/CandidatesAt spans, which ResumableIndex::SeekGe also
  /// indexes).
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
    /// \p allow_single_word false runs the generic multi-word
    /// instantiation on a one-word query (the enumerator passes its
    /// plan's Annotation::single_word).
    uint32_t NextLive(const StateSet& r, uint32_t from,
                      uint64_t* probes = nullptr,
                      bool allow_single_word = true) const {
      const uint32_t n = static_cast<uint32_t>(useful.num_words());
      if (n == 1 && allow_single_word)
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

  /// Builds the trimmed structure from a frozen snapshot (one backward
  /// sweep over the annotation); a pure read of the snapshot, safe to
  /// run concurrently with other readers. The index keeps no reference
  /// to the snapshot. With opts.num_shards > 1 the sweep runs sharded
  /// (one thread per shard, superstep per level;
  /// core/sharded_annotate.h) and produces a bit-identical structure.
  /// The sweep runs the kernels the annotation records
  /// (Annotation::single_word).
  TrimmedIndex(const Snapshot& snap, const Annotation& ann,
               const AnnotateOptions& opts = {});

  /// Number of useful (v, q, level) triples; 0 iff no answer exists.
  size_t num_slots() const { return num_slots_; }
  bool empty() const { return num_slots_ == 0; }
  uint32_t words_per_set() const { return wps_; }

  /// Useful states at (level, v); null view if none.
  StateSetView Useful(uint32_t level, uint32_t v) const {
    return level < useful_.size() ? useful_[level].Find(v) : StateSetView();
  }

  /// Useful states at a (level, position) slot — the O(1) variant for
  /// positions recorded in CandidateEdge::next_pos.
  StateSetView UsefulStates(uint32_t level, uint32_t pos) const {
    return useful_[level].states(pos);
  }

  /// Number of useful levels (lambda + 1 when an answer exists, else 0).
  uint32_t num_levels() const { return static_cast<uint32_t>(useful_.size()); }

  /// The whole useful level — sorted vertices with their state sets.
  /// Positions in it address CandidatesAt/BListAt; ResumableIndex walks
  /// these to lay out its per-(level, vertex) rank arrays.
  const LevelSets& UsefulLevel(uint32_t level) const {
    return useful_[level];
  }

  /// Candidates of the vertex at position \p pos of useful level
  /// \p level (level < lambda) — the O(1) positional variant of
  /// Candidates() for callers already iterating UsefulLevel(level).
  std::span<const CandidateEdge> CandidatesAt(uint32_t level,
                                              size_t pos) const {
    const auto& [begin, end] = cand_ranges_[level][pos];
    return {cand_pool_.data() + begin, cand_pool_.data() + end};
  }

  /// Certificate (B-list) structure of the vertex at position \p pos of
  /// useful level \p level (level < lambda); O(1), same positions as
  /// CandidatesAt.
  BList BListAt(uint32_t level, size_t pos) const {
    const auto& [begin, end] = cand_ranges_[level][pos];
    return BList{nxt_pool_.data() + blist_off_[level][pos], end - begin,
                 useful_[level].states(pos)};
  }

  /// Heap footprint estimate, for the plan cache's byte budget.
  size_t ApproxBytes() const {
    size_t bytes = sizeof(TrimmedIndex) +
                   cand_pool_.capacity() * sizeof(CandidateEdge) +
                   nxt_pool_.capacity() * sizeof(uint32_t);
    for (const LevelSets& lvl : useful_) bytes += lvl.ApproxBytes();
    for (const auto& r : cand_ranges_)
      bytes += r.capacity() * sizeof(std::pair<uint32_t, uint32_t>);
    for (const auto& o : blist_off_) bytes += o.capacity() * sizeof(size_t);
    return bytes;
  }

  /// Candidate edges out of \p v at \p level (level < lambda). Empty for
  /// vertices with no useful states.
  std::span<const CandidateEdge> Candidates(uint32_t level,
                                            uint32_t v) const {
    if (level >= cand_ranges_.size()) return {};
    size_t i = useful_[level].FindIndex(v);
    if (i == LevelSets::npos) return {};
    const auto& [begin, end] = cand_ranges_[level][i];
    return {cand_pool_.data() + begin, cand_pool_.data() + end};
  }

 private:
  // The sharded builder (core/sharded_annotate.cc) assembles the same
  // private structure from per-shard pieces.
  friend void ShardedTrimBuild(TrimmedIndex&, const Snapshot&,
                               const Annotation&, const AnnotateOptions&);
  // The delta-repair path (core/delta_annotate.cc) assembles a patched
  // copy of an existing index against an insert-only edge delta; it
  // reads the old index through the public accessors.
  friend class DeltaTrimmer;
  TrimmedIndex() = default;

  // The sequential backward sweep (the num_shards <= 1 path).
  void BuildSequential(const Snapshot& snap, const Annotation& ann);

  uint32_t wps_ = 0;
  std::vector<LevelSets> useful_;  // per level, sorted vertices
  // Per level, parallel to useful_[level]'s vertices: the vertex's
  // [begin, end) range in cand_pool_. (Level lambda has no candidates.)
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> cand_ranges_;
  std::vector<CandidateEdge> cand_pool_;
  // B-lists, parallel to cand_ranges_: per (level, pos) the offset of
  // the vertex's block in nxt_pool_ (useful-state-major rows of
  // num_cand + 1 next-usable entries each; see BList).
  std::vector<std::vector<size_t>> blist_off_;
  std::vector<uint32_t> nxt_pool_;
  size_t num_slots_ = 0;
};

namespace trim_detail {

/// Scratch reused across TrimVertex calls by one sweeping thread.
struct Scratch {
  explicit Scratch(uint32_t num_states)
      : useful_here(num_states), edge_q(num_states) {}
  StateSet useful_here;
  StateSet edge_q;
  std::vector<uint64_t> cand_src;
};

/// The per-vertex unit of the backward sweep, shared verbatim between
/// the sequential TrimmedIndex constructor and the sharded builder —
/// which is what makes the two paths bit-identical by construction.
/// Appends the candidate edges of annotated vertex \p v (state set
/// \p states) to *cand_pool, and — iff v turns out useful — its B-list
/// block to *nxt_pool; returns that usefulness, with the useful set
/// left in scratch->useful_here. CandidateEdge::next_pos is a position
/// into \p next_useful, so passing the *merged* next level keeps the
/// sharded build's positions global. Dispatches to the single-word
/// kernel when wps == 1 unless \p force_multi_word (the annotation's
/// recorded AnnotateOptions::force_multi_word; results are
/// bit-identical either way).
bool TrimVertex(const LabelIndex& adj, const CompiledDelta& delta,
                uint32_t wps, uint32_t v, StateSetView states,
                const LevelSets& next_useful, Scratch* scratch,
                std::vector<TrimmedIndex::CandidateEdge>* cand_pool,
                std::vector<uint32_t>* nxt_pool,
                bool force_multi_word = false);

}  // namespace trim_detail

}  // namespace dsw

#endif  // DSW_CORE_TRIMMED_INDEX_H_
