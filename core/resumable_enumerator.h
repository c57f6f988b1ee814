// Stage 3 of the pipeline: enumeration of the distinct shortest walks,
// in the memoryless form of Theorem 18.
//
// Distinctness is the crux: one walk can carry many accepting runs (the
// duplicate blow-up of the naive baseline, E7). The enumerator therefore
// walks the prefix tree of *edge sequences*, not product paths. Each
// stack frame holds the set R of useful states reachable by some run of
// the current prefix; extending by a candidate edge e advances R in
// O(|A|) as a word-parallel OR of the annotation's precompiled delta
// rows (label of e), masked by the destination's useful set at the next
// level. By the trimming invariant, R nonempty means the prefix extends
// to at least one answer, so every interior node of the explored tree
// leads to output and every answer is emitted exactly once, in
// depth-first order over candidate-edge lists.
//
// Delay (Theorem 2): each frame derives its *live* candidate positions
// from the reachable set R through the index's certificate structure
// (TrimmedIndex::BList) — the next candidate is a min over R of O(1)
// next-usable loads, never a trial advance over a possibly-dead edge.
// Every candidate the enumerator touches therefore extends to an
// answer, and the worst-case gap between two outputs is at most lambda
// pops plus lambda pushes, each O(|A|): the paper's O(lambda x |A|)
// delay, independent of |D| and of dead-candidate fanout. OpStats
// counts the work so the bound is testable without a timer.
//
// All answers have length exactly lambda (shortest-walk semantics);
// lambda == 0 (source == target, query accepts the empty word) yields
// the single empty walk.
//
// SeekAfter(w) is the memoryless entry point: given any answer w (and
// *only* w; no retained enumeration state is consulted), reposition
// onto w and advance to the lexicographically next answer. It is a
// guided run over w's edges: starting from R_0 = useful(0, source), each
// level's reachable-run set R_{i+1} is re-derived with the same
// word-parallel delta-row OR the DFS uses, and each level's cursor is
// repositioned with the index's O(1) SeekGe — total O(lambda x |A|),
// independent of the in-degrees along w (the linear-reseek strawman of
// bench_memoryless pays an extra factor d there). After the guided run
// the stack is bit-for-bit the state the DFS had when emitting w, so
// one ordinary Next() lands on the successor.
//
// Contract for walks that are NOT answers (wrong length, an edge that
// is no candidate at its level, a prefix whose reachable-run set dies):
// debug builds assert (see the death tests in resumable_test); release
// builds reject gracefully — SeekAfter returns false and the enumerator
// invalidates. SeekAfter returns true iff w was accepted as an answer;
// Valid() afterwards says whether a successor exists (false when w was
// the last answer). walk() is only meaningful while Valid().

#ifndef DSW_CORE_RESUMABLE_ENUMERATOR_H_
#define DSW_CORE_RESUMABLE_ENUMERATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/annotate.h"
#include "core/database.h"
#include "core/resumable_index.h"
#include "core/trimmed_index.h"
#include "core/walk.h"
#include "util/state_set.h"
#include "util/word_kernel.h"

namespace dsw {

namespace enumerator_detail {

/// The kernel-generic body of AdvanceStates (see util/word_kernel.h for
/// the execution-tier story); prefer AdvanceStates, which dispatches.
template <typename Kernel>
inline bool AdvanceStatesWith(Kernel ker, const CompiledDelta& delta,
                              const StateSet& from, uint32_t label,
                              StateSetView useful_next, StateSet* out,
                              uint64_t* row_ors) {
  uint64_t* ow = out->mutable_words();
  ker.Zero(ow);
  uint64_t rows = 0;
  ker.ForEachBit(from.words(), [&](uint32_t q) {
    ++rows;
    ker.Or(ow, delta.SuccessorWords(label, q));
  });
  if (row_ors) *row_ors += rows;
  ker.And(ow, useful_next.words());
  return ker.Any(ow);
}

/// One enumeration step of the reachable-run set, shared by
/// ResumableEnumerator and the trial-filter baseline: out = (union over
/// q in from of delta[label][q]) AND useful_next. Returns whether any
/// run of the extended prefix survives — false means the candidate edge
/// is dead for this prefix. \p out must have capacity >= the delta's
/// state count; \p wps is the word count of one set. When \p row_ors is
/// non-null it is incremented by the number of delta-row ORs performed
/// (the count falls out of the bit walk for free — identical in both
/// kernel tiers).
inline bool AdvanceStates(const CompiledDelta& delta, uint32_t wps,
                          const StateSet& from, uint32_t label,
                          StateSetView useful_next, StateSet* out,
                          uint64_t* row_ors = nullptr) {
  if (wps == 1)
    return AdvanceStatesWith(SingleWordKernel(), delta, from, label,
                             useful_next, out, row_ors);
  return AdvanceStatesWith(MultiWordKernel(wps), delta, from, label,
                           useful_next, out, row_ors);
}

}  // namespace enumerator_detail

class ResumableEnumerator {
 public:
  /// Operation counts of the work SeekAfter/Next actually perform —
  /// the CI-stable proxy for the Theorem 2 / Theorem 18 delay bound
  /// (wall clock is too noisy to assert on). Between two outputs of
  /// Next, row_ors <= lambda x |R| and probes <= (2 x lambda + 1) x |R|
  /// with |R| <= |Q|; both are independent of |D| and of the candidate
  /// fanout. O(1) index arithmetic (queue and rank-array loads) is not
  /// counted.
  struct OpStats {
    uint64_t seeks = 0;    // SeekGe repositionings (one per level)
    uint64_t cells = 0;    // queue entries taken by Next/FindNext
    uint64_t row_ors = 0;  // delta-row ORs (state-set advances)
    uint64_t probes = 0;   // certificate next-usable loads (NextLive)
    uint64_t total() const { return seeks + cells + row_ors + probes; }
  };

  /// An enumerator over no plan: Valid() is false until Reset() points
  /// it at one.
  ResumableEnumerator() = default;

  /// Reset(ann, index) and then Rewind(): positions on the first answer.
  /// \p source and \p target must match the annotation's.
  ResumableEnumerator(const Annotation& ann, const ResumableIndex& index,
                      uint32_t source, uint32_t target);

  /// Points the enumerator at the plan (ann, index), which must stay
  /// alive while the enumerator runs on it; positions on nothing
  /// (Valid() false) until Rewind() or SeekAfter(). Stats are kept.
  /// The frames only grow, so an enumerator reused across plans stops
  /// allocating once it has seen its largest lambda and word count.
  /// The database is not consulted — the index denormalizes
  /// everything — so any number of enumerators can run concurrently
  /// over one shared (annotation, index) pair.
  void Reset(const Annotation& ann, const ResumableIndex& index);

  /// Repositions on the first answer (stats are kept): a fresh
  /// enumeration of the current plan, where SeekAfter() resumes one.
  void Rewind();

  /// True while positioned on an answer.
  bool Valid() const { return valid_; }

  /// Advances to the next answer, or invalidates the enumerator.
  void Next();

  /// The current answer; only meaningful while Valid().
  const Walk& walk() const { return walk_; }

  /// Memoryless reposition: accepts the answer \p prev and advances to
  /// the answer after it (Valid() false when prev was last). Returns
  /// false — invalidating the enumerator — when prev is not an answer;
  /// debug builds assert instead. Works regardless of the enumerator's
  /// current position, including after it invalidated.
  bool SeekAfter(const Walk& prev);

  const OpStats& stats() const { return stats_; }
  void ResetStats() { stats_ = OpStats(); }

 private:
  struct Frame {
    StateSet states;    // reachable-run set R of the prefix
    uint32_t cur = 0;   // next candidate position to consider
    // Candidate queue and certificate structure of the frame's
    // (level, vertex), resolved once when the frame is entered.
    // blist.useful is the mask states was built with, so states ⊆
    // blist.useful — the NextLive precondition. A frame rebuilt by
    // SeekAfter is indistinguishable from one the DFS left behind.
    std::span<const TrimmedIndex::CandidateEdge> cand;
    TrimmedIndex::BList blist;
  };

  // Points \p f at the queue of the vertex at position \p pos of useful
  // level \p level, resuming at candidate position \p cur.
  void Enter(Frame& f, uint32_t level, uint32_t pos, uint32_t cur);
  bool RejectSeek();
  void FindNext();

  const ResumableIndex* index_ = nullptr;
  const CompiledDelta* delta_ = nullptr;
  int32_t lambda_ = 0;
  uint32_t wps_ = 0;
  uint32_t source_pos_ = 0;  // source's position in useful level 0
  StateSet r0_;  // useful(0, source), the root of every (re)run
  bool has_answers_ = false;
  // Reset allocates the lambda + 1 frames up front and never shrinks
  // them, so enumeration performs no heap allocation (the per-output
  // delay must not depend on the allocator). stack_[i] is the position
  // after i edges; frames above depth_ are scratch.
  std::vector<Frame> stack_;
  uint32_t depth_ = 0;
  Walk walk_;
  bool valid_ = false;
  OpStats stats_;
};

}  // namespace dsw

#endif  // DSW_CORE_RESUMABLE_ENUMERATOR_H_
