// The memoryless enumeration index (Section 4.2 / Theorem 18). The
// enumerator keeps *nothing* between pages — given only the previous
// answer, the next one is recomputed in O(lambda x |A|) by a guided run
// that repositions every level's cursor from the answer's edges alone.
// That makes enumeration pageable and restartable: a server can ship an
// answer to a client, drop the query's enumeration state entirely, and
// resume from the answer echoed back later.
//
// ResumableIndex is the structure that makes the guided run cheap, as a
// thin seek layer over data that already exists. It owns the
// TrimmedIndex and holds the Snapshot it was built from. Each trimmed
// candidate list of a useful (level, vertex) is the queue of that
// choice point as is: it is ascending in the global target-pool rank
// (LabelIndex::PositionOf — within one vertex, exactly the order the
// enumerator tries candidates in). On top, each queue gets a flat rank
// array over the vertex's out-edge span:
//
//   rank[k] = #candidates of the queue whose (PositionOf - span_begin) < k
//
// so SeekGe(edge) — "position of the first candidate at or after this
// edge" — is one subtraction and one load, O(1), instead of the linear
// queue re-advance that costs an extra in-degree factor d (the E8
// strawman). Rank arrays cost O(sum of out-degrees over useful
// (level, vertex) pairs) <= O(|D| x |A|) words, within the paper's
// index budget; nothing here is sized by |V| or |E| — the seek key is
// read from the snapshot's LabelIndex, which the held Snapshot keeps
// alive. Reading it through the Snapshot also carries the one
// staleness guard: debug builds assert (Snapshot::AssertFresh) when the
// Database mutated after the freeze.

#ifndef DSW_CORE_RESUMABLE_INDEX_H_
#define DSW_CORE_RESUMABLE_INDEX_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/annotate.h"
#include "core/database.h"
#include "core/trimmed_index.h"

namespace dsw {

class ResumableIndex {
 public:
  /// Builds the trimmed structure (one backward sweep) and the rank
  /// arrays on top; a pure read of the snapshot, safe to run
  /// concurrently with other readers. \p opts selects the sequential or
  /// sharded backward sweep (same structure either way).
  ResumableIndex(const Snapshot& snap, const Annotation& ann,
                 const AnnotateOptions& opts = {});

  /// Same rank arrays on top of an already-built trimmed structure
  /// (taken by value; move it in). This is the delta-repair path:
  /// DeltaTrim patched the old TrimmedIndex against an insert-only
  /// delta and only the rank arrays remain to be rebuilt. \p trimmed
  /// must describe \p ann against \p snap.
  ResumableIndex(const Snapshot& snap, const Annotation& ann,
                 TrimmedIndex trimmed);

  /// The underlying trimmed structure: useful sets, and per useful
  /// (level, position) the candidate queue (CandidatesAt) and its
  /// certificate structure (BListAt).
  const TrimmedIndex& trimmed() const { return trimmed_; }
  bool empty() const { return trimmed_.empty(); }

  /// The snapshot the index was built from; its generation is the one
  /// the plan is valid for.
  const Snapshot& snapshot() const { return snap_; }

  /// True iff \p edge is an out-edge of the vertex at position \p pos
  /// of useful level \p level (level < lambda) — the precondition of
  /// SeekGe. Any edge id is safe to pass: ids the frozen LabelIndex
  /// does not know (garbage, or inserted after the freeze) are rejected.
  bool SpanContains(uint32_t level, uint32_t pos, uint32_t edge) const {
    const LabelIndex& adj = snap_.label_index();
    const uint32_t s = level_base_[level] + pos;
    return edge < adj.num_edges() &&
           adj.PositionOf(edge) - span_begin_[s] <
               rank_off_[s + 1] - rank_off_[s];
  }

  /// Position in trimmed().CandidatesAt(level, pos) of the first
  /// candidate whose target-pool rank is >= that of \p edge (== the
  /// candidate \p edge itself when it is one); the queue's size when
  /// all candidates precede it. O(1): one rank-array load.
  /// Precondition: SpanContains(level, pos, edge).
  uint32_t SeekGe(uint32_t level, uint32_t pos, uint32_t edge) const {
    assert(SpanContains(level, pos, edge) &&
           "SeekGe: edge is not an out-edge of the queue's vertex");
    const uint32_t s = level_base_[level] + pos;
    return rank_pool_[rank_off_[s] + snap_.label_index().PositionOf(edge) -
                      span_begin_[s]];
  }

  /// Heap footprint estimate (including the owned TrimmedIndex), for
  /// the plan cache's byte budget. The shared LabelIndex is the
  /// snapshot's, not the plan's, and is not counted.
  size_t ApproxBytes() const {
    auto u32 = [](const std::vector<uint32_t>& v) {
      return v.capacity() * sizeof(uint32_t);
    };
    return sizeof(ResumableIndex) - sizeof(TrimmedIndex) +
           trimmed_.ApproxBytes() + u32(level_base_) + u32(span_begin_) +
           u32(rank_off_) + u32(rank_pool_);
  }

 private:
  // Lays out the rank arrays from trimmed_ (shared tail of both
  // constructors).
  void BuildRanks();

  Snapshot snap_;
  TrimmedIndex trimmed_;

  // One queue ("slot") per useful (level, vertex) below lambda, laid
  // out level-major in useful-level order: slot == level_base_[level] +
  // position-in-level, and every array below is indexed by slot.
  std::vector<uint32_t> level_base_;  // level -> first slot; size lambda+1
  std::vector<uint32_t> span_begin_;  // vertex's first target-pool rank
  // Slot s's rank array is rank_pool_[rank_off_[s], rank_off_[s + 1]),
  // one entry per out-edge of its vertex; size #slots + 1.
  std::vector<uint32_t> rank_off_;
  std::vector<uint32_t> rank_pool_;
};

}  // namespace dsw

// The memoryless subsystem is one unit: every consumer of the index
// also wants the enumerator that drives it. The include sits below the
// class so either header can be included first.
#include "core/resumable_enumerator.h"  // IWYU pragma: export

#endif  // DSW_CORE_RESUMABLE_INDEX_H_
