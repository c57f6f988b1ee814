// The memoryless enumeration index (Section 4.2 / Theorem 18). The
// enumerator keeps *nothing* between pages — given only the previous
// answer, the next one is recomputed in O(lambda x |A|) by a guided run
// that repositions every level's cursor from the answer's edges alone.
// That makes enumeration pageable and restartable: a server can ship an
// answer to a client, drop the query's enumeration state entirely, and
// resume from the answer echoed back later.
//
// ResumableIndex is the structure that makes the guided run cheap. It
// holds only the Snapshot it was built from and the TrimmedIndex it
// owns, which already keeps, per queue (useful (level, vertex) below
// lambda), the candidate list, ascending in each edge's rank among its
// source's out-edges (LabelIndex::PositionOf — exactly the order the
// enumerator tries candidates in), and a flat rank array over the
// vertex's out-edge span:
//
//   rank[k] = #candidates of the queue whose PositionOf < k
//
// so SeekGe(edge) — "position of the first candidate at or after this
// edge" — is one load, O(1), instead of the linear queue re-advance
// that costs an extra in-degree factor d (the E8 strawman). Rank arrays
// cost O(sum of out-degrees over useful (level, vertex) pairs) <=
// O(|D| x |A|) words, within the paper's index budget; nothing here is
// sized by |V| or |E| — the seek key is read from the snapshot's
// LabelIndex, which the held Snapshot keeps alive, so the plan answers
// for its own generation however the Database grows afterwards.

#ifndef DSW_CORE_RESUMABLE_INDEX_H_
#define DSW_CORE_RESUMABLE_INDEX_H_

#include <cassert>
#include <cstdint>
#include <utility>

#include "core/annotate.h"
#include "core/database.h"
#include "core/trimmed_index.h"

namespace dsw {

class ResumableIndex {
 public:
  /// Builds the trimmed structure, seek ranks included (one backward
  /// sweep); a pure read of the snapshot, safe to run concurrently with
  /// other readers.
  ResumableIndex(const Snapshot& snap, const Annotation& ann)
      : snap_(snap), trimmed_(snap, ann) {}

  /// Wraps an already-built trimmed structure (taken by value; move it
  /// in). This is the delta-repair path: DeltaTrim patched the old
  /// TrimmedIndex against an insert-only delta. \p trimmed must
  /// describe \p ann against \p snap.
  ResumableIndex(const Snapshot& snap, const Annotation& /*ann*/,
                 TrimmedIndex trimmed)
      : snap_(snap), trimmed_(std::move(trimmed)) {}

  /// The underlying trimmed structure: useful sets, and per useful
  /// (level, position) the candidate queue (CandidatesAt), its
  /// certificate structure (BListAt) and its seek ranks (RanksAt).
  const TrimmedIndex& trimmed() const { return trimmed_; }
  bool empty() const { return trimmed_.empty(); }

  /// The snapshot the index was built from; its generation is the one
  /// the plan is valid for.
  const Snapshot& snapshot() const { return snap_; }

  /// True iff \p edge is an out-edge of the vertex at position \p pos
  /// of useful level \p level (level < lambda) — the precondition of
  /// SeekGe: the edge's source is the queue's vertex. Any edge id is
  /// safe to pass: ids the frozen LabelIndex does not know (garbage, or
  /// inserted after the freeze) are rejected.
  bool SpanContains(uint32_t level, uint32_t pos, uint32_t edge) const {
    const LabelIndex& adj = snap_.label_index();
    return edge < adj.num_edges() &&
           adj.SourceOf(edge) == trimmed_.UsefulLevel(level).vertex(pos);
  }

  /// Position in trimmed().CandidatesAt(level, pos) of the first
  /// candidate whose rank (LabelIndex::PositionOf) is >= that of \p edge
  /// (== the candidate \p edge itself when it is one); the queue's size
  /// when all candidates precede it. O(1): one rank-array load.
  /// Precondition: SpanContains(level, pos, edge).
  uint32_t SeekGe(uint32_t level, uint32_t pos, uint32_t edge) const {
    assert(SpanContains(level, pos, edge) &&
           "SeekGe: edge is not an out-edge of the queue's vertex");
    return trimmed_.RanksAt(level, pos)[snap_.label_index().PositionOf(edge)];
  }

  /// Heap footprint estimate (including the owned TrimmedIndex), for
  /// the plan cache's byte budget. The shared LabelIndex is the
  /// snapshot's, not the plan's, and is not counted.
  size_t ApproxBytes() const {
    return sizeof(ResumableIndex) - sizeof(TrimmedIndex) +
           trimmed_.ApproxBytes();
  }

 private:
  Snapshot snap_;
  TrimmedIndex trimmed_;
};

}  // namespace dsw

// The memoryless subsystem is one unit: every consumer of the index
// also wants the enumerator that drives it. The include sits below the
// class so either header can be included first.
#include "core/resumable_enumerator.h"  // IWYU pragma: export

#endif  // DSW_CORE_RESUMABLE_INDEX_H_
