#include "core/resumable_enumerator.h"

#include <cassert>

namespace dsw {

ResumableEnumerator::ResumableEnumerator(const Annotation& ann,
                                         const ResumableIndex& index,
                                         uint32_t source, uint32_t target) {
  // The endpoints are baked into the annotation and index; the
  // parameters exist for symmetry with the rest of the pipeline and a
  // mismatch is a caller bug, not a valid different query.
  assert(source == ann.source && target == ann.target);
  (void)source;
  (void)target;
  Reset(ann, index);
  Rewind();
}

void ResumableEnumerator::Reset(const Annotation& ann,
                                const ResumableIndex& index) {
  index_ = &index;
  delta_ = &ann.delta;
  lambda_ = ann.lambda;
  wps_ = ann.words_per_set();
  has_answers_ = false;
  valid_ = false;
  depth_ = 0;
  walk_.edges.clear();
  if (!ann.reachable() || index.empty()) return;
  const LevelSets& level0 = index.trimmed().UsefulLevel(0);
  const size_t pos = level0.FindIndex(ann.source);
  if (pos == LevelSets::npos) return;
  source_pos_ = static_cast<uint32_t>(pos);
  r0_.Assign(level0.states(pos));
  // StateSet::Resize keeps its storage when it shrinks, so neither a
  // shorter lambda nor fewer words frees what a larger plan allocated.
  const size_t frames = static_cast<size_t>(lambda_) + 1;
  if (stack_.size() < frames) stack_.resize(frames);
  for (size_t i = 0; i < frames; ++i) stack_[i].states.Resize(ann.num_states);
  has_answers_ = true;  // only once the frames fit (an allocation may throw)
}

void ResumableEnumerator::Enter(Frame& f, uint32_t level, uint32_t pos,
                                uint32_t cur) {
  const TrimmedIndex& trimmed = index_->trimmed();
  f.cand = trimmed.CandidatesAt(level, pos);
  f.blist = trimmed.BListAt(level, pos);
  f.cur = cur;
}

void ResumableEnumerator::Rewind() {
  valid_ = false;
  walk_.edges.clear();
  if (!has_answers_) return;
  stack_[0].states.Assign(r0_);
  depth_ = 0;
  if (lambda_ == 0) {
    valid_ = true;  // the single empty walk
    return;
  }
  Enter(stack_[0], 0, source_pos_, 0);
  FindNext();
}

void ResumableEnumerator::Next() {
  if (!valid_) return;
  valid_ = false;
  if (depth_ == 0) return;  // lambda == 0: the empty walk was the answer
  --depth_;                 // leave the complete answer
  walk_.edges.pop_back();
  FindNext();
}

void ResumableEnumerator::FindNext() {
  // Invariant: depth_ < lambda on entry. Depth-lambda frames are
  // complete answers and are returned (and later popped) immediately.
  //
  // The certificate structure guarantees every candidate NextLive hands
  // back is live for the frame's reachable set, so AdvanceStates below
  // cannot fail and the loop does at most lambda pops + lambda pushes
  // between outputs — the Theorem 2 delay.
  const TrimmedIndex& trimmed = index_->trimmed();
  while (true) {
    Frame& f = stack_[depth_];
    const uint32_t c = f.blist.NextLive(f.states, f.cur, &stats_.probes);
    if (c < f.blist.num_cand) {
      const TrimmedIndex::CandidateEdge& ce = f.cand[c];
      f.cur = c + 1;
      ++stats_.cells;
      Frame& next = stack_[depth_ + 1];
      const bool alive = enumerator_detail::AdvanceStates(
          *delta_, wps_, f.states, ce.label,
          trimmed.UsefulStates(depth_ + 1, ce.next_pos), &next.states,
          &stats_.row_ors);
      assert(alive && "certificate handed out a dead candidate");
      (void)alive;
      walk_.edges.push_back(ce.edge);
      ++depth_;
      if (static_cast<int32_t>(depth_) == lambda_) {
        valid_ = true;
        return;
      }
      // ce's destination is useful at depth_ (< lambda), so its queue
      // exists; next_pos locates it in O(1), no binary search.
      Enter(next, depth_, ce.next_pos, 0);
      continue;
    }
    if (depth_ == 0) return;  // root exhausted: enumeration done
    --depth_;
    walk_.edges.pop_back();
  }
}

bool ResumableEnumerator::RejectSeek() {
  assert(false && "SeekAfter: the given walk is not an answer");
  valid_ = false;
  return false;
}

bool ResumableEnumerator::SeekAfter(const Walk& prev) {
  valid_ = false;
  if (!has_answers_) return RejectSeek();
  if (prev.edges.size() != static_cast<size_t>(lambda_))
    return RejectSeek();
  if (lambda_ == 0) {
    // The empty walk is the unique answer and has no successor.
    depth_ = 0;
    walk_.edges.clear();
    return true;
  }

  // Guided run (Theorem 18): re-derive the reachable-run sets R level
  // by level from prev's edges alone and point every level's cursor
  // just past prev's edge. O(lambda x |A|) total — the SeekGe calls are
  // O(1) each, so no in-degree factor anywhere; each level's queue
  // follows from the previous candidate's next_pos.
  const TrimmedIndex& trimmed = index_->trimmed();
  walk_.edges.assign(prev.edges.begin(), prev.edges.end());
  stack_[0].states.Assign(r0_);
  uint32_t pos = source_pos_;
  for (uint32_t i = 0; i < static_cast<uint32_t>(lambda_); ++i) {
    Frame& f = stack_[i];
    const uint32_t e = walk_.edges[i];
    ++stats_.seeks;
    if (!index_->SpanContains(i, pos, e)) return RejectSeek();
    const uint32_t c = index_->SeekGe(i, pos, e);
    Enter(f, i, pos, c + 1);  // resume strictly after prev's choice
    if (c >= f.cand.size() || f.cand[c].edge != e)
      return RejectSeek();  // e survived no answer at this level
    const TrimmedIndex::CandidateEdge& ce = f.cand[c];
    if (!enumerator_detail::AdvanceStates(
            *delta_, wps_, f.states, ce.label,
            trimmed.UsefulStates(i + 1, ce.next_pos), &stack_[i + 1].states,
            &stats_.row_ors))
      return RejectSeek();  // no accepting run threads through prev
    pos = ce.next_pos;
  }

  // The stack is now exactly what the DFS holds when emitting prev; one
  // ordinary Next() yields the successor (or the clean end).
  depth_ = static_cast<uint32_t>(lambda_);
  valid_ = true;
  Next();
  return true;
}

}  // namespace dsw
