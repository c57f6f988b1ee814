#include "core/trimmed_index.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace dsw {
namespace {

// Scratch reused across TrimVertex calls by one sweeping thread.
struct Scratch {
  explicit Scratch(uint32_t num_states)
      : useful_here(num_states), edge_q(num_states) {}
  StateSet useful_here;
  StateSet edge_q;
  std::vector<uint64_t> cand_src;
  std::vector<uint32_t> cand_rank;  // each candidate's PositionOf
};

// The kernel-generic body of TrimVertex (see util/word_kernel.h): one
// instantiation per execution tier, bit-identical results.
template <typename Kernel>
bool TrimVertexImpl(Kernel ker, const LabelIndex& adj,
                    const CompiledDelta& delta, uint32_t v,
                    StateSetView states, const LevelSets& next_useful,
                    Scratch* scratch,
                    std::vector<TrimmedIndex::CandidateEdge>* cand_pool,
                    std::vector<uint32_t>* nxt_pool,
                    std::vector<uint32_t>* rank_pool) {
  const uint32_t wps = ker.wps();
  StateSet& useful_here = scratch->useful_here;
  StateSet& edge_q = scratch->edge_q;
  std::vector<uint64_t>& cand_src = scratch->cand_src;
  std::vector<uint32_t>& cand_rank = scratch->cand_rank;
  uint64_t* uhw = useful_here.mutable_words();
  uint64_t* eqw = edge_q.mutable_words();
  ker.Zero(uhw);
  cand_src.clear();
  cand_rank.clear();
  const LabelIndex::OutEdges out = adj.Out(v);
  for (const LabelIndex::Group& group : out.groups) {
    if (!delta.HasLabel(group.label)) continue;
    uint32_t last_dst = UINT32_MAX;
    uint32_t last_pos = 0;
    bool last_ok = false;
    for (uint32_t k = group.begin; k < group.end; ++k) {
      const LabelIndex::Target& t = out.targets[k];
      if (t.dst != last_dst) {  // parallel edges share the move set
        last_dst = t.dst;
        size_t pos = next_useful.FindIndex(t.dst);
        if (pos == LevelSets::npos) {
          last_ok = false;
        } else {
          last_pos = static_cast<uint32_t>(pos);
          ker.Zero(eqw);
          ker.ForEachBit(next_useful.set(last_pos).words(), [&](uint32_t q_next) {
            ker.Or(eqw, delta.ReverseWords(group.label, q_next));
          });
          ker.And(eqw, states.words());
          last_ok = ker.Any(eqw);
        }
      }
      if (!last_ok) continue;
      cand_pool->push_back(
          TrimmedIndex::CandidateEdge{t.edge, group.label, last_pos});
      cand_rank.push_back(k);
      cand_src.insert(cand_src.end(), edge_q.words(), edge_q.words() + wps);
      ker.Or(uhw, edge_q.words());
    }
  }
  if (!ker.Any(uhw)) return false;

  // The vertex's B-list block: one next-usable row per useful state.
  // useful_here is exactly the union of the candidates' usable-source
  // sets, so every row has >= 1 usable candidate. O(|useful| x ncand) —
  // the same order as the block itself.
  const uint32_t ncand = static_cast<uint32_t>(cand_rank.size());
  const size_t block_off = nxt_pool->size();
  nxt_pool->resize(block_off + static_cast<size_t>(useful_here.Count()) *
                                   (ncand + 1));
  uint32_t* block = nxt_pool->data() + block_off;
  uint32_t j = 0;
  useful_here.ForEach([&](uint32_t q) {
    uint32_t* row = block + static_cast<size_t>(j) * (ncand + 1);
    uint32_t cur = ncand;  // sentinel: no usable candidate >= c
    row[ncand] = ncand;
    for (uint32_t c = ncand; c-- > 0;) {
      if ((cand_src[static_cast<size_t>(c) * wps + (q >> 6)] >> (q & 63)) & 1)
        cur = c;
      row[c] = cur;
    }
    ++j;
  });

  // The queue's seek ranks, one per out-edge: rank[k] is the number of
  // candidates ranked below k. The loop above met the out-edges in rank
  // order, so the candidates are ascending in rank.
  const uint32_t degree = static_cast<uint32_t>(out.targets.size());
  uint32_t c = 0;
  for (uint32_t k = 0; k < degree; ++k) {
    rank_pool->push_back(c);
    if (c < ncand && cand_rank[c] == k) ++c;
  }
  return true;
}

// The per-vertex unit of the backward sweep. Appends the candidate
// edges of annotated vertex v (state set `states`) to *cand_pool, and —
// iff v turns out useful — its B-list block to *nxt_pool and its seek
// ranks to *rank_pool; returns that usefulness, with the useful set left
// in scratch->useful_here. CandidateEdge::next_pos is a position into
// next_useful. Dispatches to the single-word kernel when wps == 1.
bool TrimVertex(const LabelIndex& adj, const CompiledDelta& delta,
                uint32_t wps, uint32_t v, StateSetView states,
                const LevelSets& next_useful, Scratch* scratch,
                std::vector<TrimmedIndex::CandidateEdge>* cand_pool,
                std::vector<uint32_t>* nxt_pool,
                std::vector<uint32_t>* rank_pool) {
  if (wps == 1)
    return TrimVertexImpl(SingleWordKernel(), adj, delta, v, states,
                          next_useful, scratch, cand_pool, nxt_pool,
                          rank_pool);
  return TrimVertexImpl(MultiWordKernel(wps), adj, delta, v, states,
                        next_useful, scratch, cand_pool, nxt_pool, rank_pool);
}

// The position of the first member of sorted \p xs at or after \p from
// that is not below \p v: a linear probe of a few members, then a
// binary search of the rest. A walk that visits every member pays O(1)
// per step, and one that skips far pays O(log n).
size_t SeekFrom(const std::vector<uint32_t>& xs, size_t from, uint32_t v) {
  constexpr size_t kProbe = 8;
  for (const size_t end = std::min(xs.size(), from + kProbe); from < end;
       ++from)
    if (xs[from] >= v) return from;
  return static_cast<size_t>(
      std::lower_bound(xs.begin() + from, xs.end(), v) - xs.begin());
}

// Diffs a useful level of the previous index against the one just
// built: *changed collects (sorted) every vertex whose membership or
// state words differ, and *pos_map maps each old position to the
// vertex's new position (UINT32_MAX when it vanished) — the shift the
// copied candidates of the level below must remap through.
void DiffLevels(const LevelSets& old_level, const LevelSets& new_level,
                uint32_t wps, std::vector<uint32_t>* changed,
                std::vector<uint32_t>* pos_map) {
  changed->clear();
  pos_map->assign(old_level.size(), UINT32_MAX);
  size_t oi = 0, ni = 0;
  while (oi < old_level.size() || ni < new_level.size()) {
    uint32_t ov = oi < old_level.size() ? old_level.vertex(oi) : UINT32_MAX;
    uint32_t nv = ni < new_level.size() ? new_level.vertex(ni) : UINT32_MAX;
    if (ov < nv) {
      changed->push_back(ov);
      ++oi;
    } else if (nv < ov) {
      changed->push_back(nv);
      ++ni;
    } else {
      (*pos_map)[oi] = static_cast<uint32_t>(ni);
      if (std::memcmp(old_level.states(oi).words(),
                      new_level.states(ni).words(),
                      static_cast<size_t>(wps) * sizeof(uint64_t)) != 0)
        changed->push_back(ov);
      ++oi;
      ++ni;
    }
  }
}

}  // namespace

TrimmedIndex::TrimmedIndex(const Snapshot& snap, const Annotation& ann)
    : TrimmedIndex(snap, ann, TrimmedIndex(),
                   [&ann](uint32_t i, const LevelSets&,
                          std::span<const uint32_t>) {
                     return std::span<const uint32_t>(
                         ann.levels[i].vertices());
                   }) {}

TrimmedIndex::TrimmedIndex(const Snapshot& snap, const Annotation& ann,
                           const TrimmedIndex& old, const DirtyAt& dirty_at) {
  if (!ann.reachable()) return;
  const uint32_t lambda = static_cast<uint32_t>(ann.lambda);
  assert((old.useful_.empty() || old.num_levels() == lambda + 1) &&
         "the previous index must be empty or share lambda");
  wps_ = ann.words_per_set();
  useful_.assign(lambda + 1,
                 LevelSets(ann.num_states, LevelSets::Layout::kRaw));
  slot_base_.resize(lambda);
  const LevelSets none;
  auto old_level = [&](uint32_t i) -> const LevelSets& {
    return old.useful_.empty() ? none : old.useful_[i];
  };

  // Level lambda: only (target, final) pairs are useful. The annotation
  // keeps only the target's entry there: other vertices at distance
  // lambda — even ones carrying final states — end no answer walk.
  if (StateSetView at_target = ann.StatesAt(lambda, ann.target)) {
    StateSet fin(ann.num_states);
    fin.Assign(at_target);
    fin &= ann.final_states;
    if (fin.Any()) useful_[lambda].Append(ann.target, fin.words());
  }

  // Backward sweep: q is useful at (v, i) iff some step
  // label(e) . eps* out of q along an edge e from v lands on a useful q'
  // at level i + 1. The "eps* before the edge" half of an effective step
  // needs no handling here: annotation levels are closure-saturated and
  // every epsilon-mate a shortest run can occupy sits on the same level
  // (a smaller BFS distance would splice into a shorter answer), so the
  // mate is scanned in its own right — composing the before-side closure
  // would only duplicate moves. The after side is already inside the
  // delta rows.
  const LabelIndex& adj = snap.label_index();
  Scratch scratch(ann.num_states);
  // changed_next / pos_map describe level i + 1 (old vs new) while the
  // sweep builds level i.
  std::vector<uint32_t> changed_next, pos_map;
  DiffLevels(old_level(lambda), useful_[lambda], wps_, &changed_next,
             &pos_map);
  for (uint32_t i = lambda; i-- > 0;) {
    slot_base_[i] = static_cast<uint32_t>(queues_.size());
    const LevelSets& level = ann.levels[i];
    const LevelSets& old_useful = old_level(i);
    const LevelSets& next_useful = useful_[i + 1];
    if (!next_useful.empty()) {  // else nothing below is useful
      const std::span<const uint32_t> dirty =
          dirty_at(i, next_useful, changed_next);
      // One merge of the old useful vertices with the dirty ones; a
      // dirty vertex's states are found by a search of the annotation
      // level from the previous dirty vertex's position, so a few dirty
      // vertices cost O(log) each and a build from scratch, where every
      // annotated vertex is dirty, O(1).
      const std::vector<uint32_t>& annotated = level.vertices();
      size_t oi = 0, di = 0, ai = 0;
      while (oi < old_useful.size() || di < dirty.size()) {
        const uint32_t ov =
            oi < old_useful.size() ? old_useful.vertex(oi) : UINT32_MAX;
        const uint32_t dv = di < dirty.size() ? dirty[di] : UINT32_MAX;
        const uint32_t v = std::min(ov, dv);
        const size_t block_off = nxt_pool_.size();
        const uint32_t cand_begin = static_cast<uint32_t>(cand_pool_.size());
        const uint32_t rank_begin = static_cast<uint32_t>(rank_pool_.size());
        const uint64_t* words;
        if (dv == v) {
          ++di;
          if (ov == v) ++oi;
          ai = SeekFrom(annotated, ai, v);
          if (ai == annotated.size() || annotated[ai] != v) continue;
          if (!TrimVertex(adj, ann.delta, wps_, v, level.states(ai),
                          next_useful, &scratch, &cand_pool_, &nxt_pool_,
                          &rank_pool_))
            continue;
          words = scratch.useful_here.words();
        } else {
          // Clean: same useful set, candidates, B-list block and ranks
          // as in the previous index; only the next-level positions
          // shift.
          for (CandidateEdge ce : old.CandidatesAt(i, oi)) {
            assert(ce.next_pos < pos_map.size() &&
                   pos_map[ce.next_pos] != UINT32_MAX &&
                   "clean vertex points at a vanished next slot");
            ce.next_pos = pos_map[ce.next_pos];
            cand_pool_.push_back(ce);
          }
          const BList b = old.BListAt(i, oi);
          nxt_pool_.insert(nxt_pool_.end(), b.nxt,
                           b.nxt + b.useful.Count() *
                                       (static_cast<size_t>(b.num_cand) + 1));
          const std::span<const uint32_t> ranks = old.RanksAt(i, oi);
          rank_pool_.insert(rank_pool_.end(), ranks.begin(), ranks.end());
          words = old_useful.states(oi).words();
          ++oi;
        }
        useful_[i].Append(v, words);
        queues_.push_back(Queue{block_off, cand_begin, rank_begin});
      }
    }
    DiffLevels(old_useful, useful_[i], wps_, &changed_next, &pos_map);
  }
  queues_.push_back(Queue{nxt_pool_.size(),
                          static_cast<uint32_t>(cand_pool_.size()),
                          static_cast<uint32_t>(rank_pool_.size())});

  for (const LevelSets& level : useful_)
    for (size_t i = 0; i < level.size(); ++i)
      num_slots_ += level.states(i).Count();
}

}  // namespace dsw
