// The pre-certificate enumerator, kept as a strawman baseline and as
// the independent order oracle of the served one: it walks the same
// trimmed candidate lists in the same order as ResumableEnumerator, but
// discovers whether a candidate is live for the current prefix by
// *trial* AdvanceStates — exactly the enumerator this repo shipped
// before the Theorem 2 certificate machinery landed. It shares no
// certificate or seek code with ResumableEnumerator.
//
// A candidate edge of (level, v) is usable from at least one useful
// state of (level, v), but can still be dead for the reachable-run set
// R of the *current* prefix; the trial filter pays one O(|R|) delta-row
// OR to find that out, per dead candidate, so an adversarial
// high-fanout vertex (many candidates, all dead for one prefix's R)
// makes the gap between two outputs grow linearly with the fanout —
// the honest-delay gap bench_delay's E3b and tests/delay_bound_test.cc
// measure. Answer sequence and order are byte-identical to
// ResumableEnumerator's (the property tests/resumable_test.cc and
// tests/delay_bound_test.cc pin), only the delay differs.

#ifndef DSW_BASELINE_TRIAL_FILTER_ENUMERATOR_H_
#define DSW_BASELINE_TRIAL_FILTER_ENUMERATOR_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "core/annotate.h"
#include "core/database.h"
#include "core/resumable_enumerator.h"  // enumerator_detail::AdvanceStates
#include "core/trimmed_index.h"
#include "core/walk.h"
#include "util/state_set.h"

namespace dsw {

class TrialFilterEnumerator {
 public:
  struct OpStats {
    uint64_t row_ors = 0;  // delta-row ORs, dead-candidate trials included
    uint64_t total() const { return row_ors; }
  };

  TrialFilterEnumerator(const Annotation& ann, const TrimmedIndex& index,
                        uint32_t source, uint32_t target)
      : index_(&index),
        delta_(&ann.delta),
        lambda_(ann.lambda),
        wps_(index.words_per_set()) {
    assert(source == ann.source && target == ann.target);
    (void)source;
    (void)target;
    if (!ann.reachable() || index.empty()) return;
    StateSetView r0 = index.Useful(0, ann.source);
    if (!r0 || r0.None()) return;

    stack_.resize(static_cast<size_t>(lambda_) + 1);
    for (Frame& f : stack_) f.states = StateSet(ann.num_states);
    stack_[0].vertex = ann.source;
    stack_[0].states.Assign(r0);
    depth_ = 0;
    if (lambda_ == 0) {
      valid_ = true;
      return;
    }
    stack_[0].cand = index.Candidates(0, ann.source);
    FindNext();
  }

  bool Valid() const { return valid_; }

  void Next() {
    if (!valid_) return;
    valid_ = false;
    if (depth_ == 0) return;
    --depth_;
    walk_.edges.pop_back();
    FindNext();
  }

  const Walk& walk() const { return walk_; }

  const OpStats& stats() const { return stats_; }
  void ResetStats() { stats_ = OpStats(); }

 private:
  struct Frame {
    uint32_t vertex = 0;
    StateSet states;
    size_t edge_pos = 0;
    std::span<const TrimmedIndex::CandidateEdge> cand;
  };

  void FindNext() {
    while (true) {
      Frame& f = stack_[depth_];
      bool pushed = false;
      while (f.edge_pos < f.cand.size()) {
        const TrimmedIndex::CandidateEdge& ce = f.cand[f.edge_pos++];
        Frame& next = stack_[depth_ + 1];
        // The trial: a candidate can be dead for the *current* prefix
        // (empty result) even though some other prefix takes it.
        if (!enumerator_detail::AdvanceStates(
                *delta_, wps_, f.states, ce.label,
                index_->UsefulStates(depth_ + 1, ce.next_pos), &next.states,
                &stats_.row_ors))
          continue;  // no run of the prefix fits
        next.vertex = ce.dst;
        next.edge_pos = 0;
        walk_.edges.push_back(ce.edge);
        ++depth_;
        if (static_cast<int32_t>(depth_) < lambda_)
          next.cand = index_->Candidates(depth_, next.vertex);
        pushed = true;
        break;
      }
      if (pushed) {
        if (static_cast<int32_t>(depth_) == lambda_) {
          valid_ = true;
          return;
        }
        continue;
      }
      if (depth_ == 0) return;
      --depth_;
      walk_.edges.pop_back();
    }
  }

  const TrimmedIndex* index_;
  const CompiledDelta* delta_;
  int32_t lambda_;
  uint32_t wps_ = 0;
  std::vector<Frame> stack_;
  uint32_t depth_ = 0;
  Walk walk_;
  bool valid_ = false;
  OpStats stats_;
};

}  // namespace dsw

#endif  // DSW_BASELINE_TRIAL_FILTER_ENUMERATOR_H_
