#include "core/resumable_index.h"

#include <span>
#include <utility>

namespace dsw {

ResumableIndex::ResumableIndex(const Snapshot& snap, const Annotation& ann,
                               const AnnotateOptions& opts)
    : snap_(snap), trimmed_(snap, ann, opts) {
  BuildRanks();
}

ResumableIndex::ResumableIndex(const Snapshot& snap,
                               const Annotation& /*ann*/,
                               TrimmedIndex trimmed)
    : snap_(snap), trimmed_(std::move(trimmed)) {
  BuildRanks();
}

void ResumableIndex::BuildRanks() {
  if (trimmed_.empty()) return;
  const uint32_t lambda = trimmed_.num_levels() - 1;
  const LabelIndex& adj = snap_.label_index();

  // Every useful vertex below level lambda owns one queue (the trimmed
  // sweep only records a vertex as useful when it has >= 1 candidate).
  level_base_.assign(lambda + 1, 0);
  uint32_t n = 0;
  for (uint32_t i = 0; i < lambda; ++i) {
    level_base_[i] = n;
    n += static_cast<uint32_t>(trimmed_.UsefulLevel(i).size());
  }
  level_base_[lambda] = n;
  span_begin_.resize(n);
  rank_off_.assign(n + 1, 0);

  uint32_t s = 0;
  for (uint32_t i = 0; i < lambda; ++i) {
    const LevelSets& lvl = trimmed_.UsefulLevel(i);
    for (size_t vi = 0; vi < lvl.size(); ++vi, ++s) {
      // The vertex's out-edges sit contiguously in the target pool
      // (BuildLabelIndex emits them vertex by vertex); the span is the
      // domain of the slot's rank array.
      std::span<const LabelIndex::Group> groups = adj.GroupsOf(lvl.vertex(vi));
      const uint32_t sb = groups.front().begin;
      const uint32_t len = groups.back().end - sb;
      span_begin_[s] = sb;
      rank_off_[s + 1] = rank_off_[s] + len;

      // rank[k] = #candidates with (rank - sb) < k: one merge over the
      // span, O(out-degree) per slot. The trimmed candidate list is
      // already ascending in target-pool rank: the sweep walks groups
      // in label order and targets in pool order.
      std::span<const TrimmedIndex::CandidateEdge> cand =
          trimmed_.CandidatesAt(i, vi);
      uint32_t k = 0;
      for (uint32_t c = 0; c < cand.size(); ++c) {
        const uint32_t key = adj.PositionOf(cand[c].edge) - sb;
        assert(k <= key && key < len &&
               "candidate list not ascending in target-pool rank");
        for (; k <= key; ++k) rank_pool_.push_back(c);
      }
      for (; k < len; ++k)
        rank_pool_.push_back(static_cast<uint32_t>(cand.size()));
    }
  }
}

}  // namespace dsw
