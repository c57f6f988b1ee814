#include "core/trimmed_index.h"

#include "core/shard_plan.h"
#include "core/sharded_annotate.h"

namespace dsw {

namespace trim_detail {
namespace {

// The kernel-generic body of TrimVertex (see util/word_kernel.h): one
// instantiation per execution tier, bit-identical results.
template <typename Kernel>
bool TrimVertexImpl(Kernel ker, const LabelIndex& adj,
                    const CompiledDelta& delta, uint32_t v,
                    StateSetView states, const LevelSets& next_useful,
                    Scratch* scratch,
                    std::vector<TrimmedIndex::CandidateEdge>* cand_pool,
                    std::vector<uint32_t>* nxt_pool) {
  const uint32_t wps = ker.wps();
  StateSet& useful_here = scratch->useful_here;
  StateSet& edge_q = scratch->edge_q;
  std::vector<uint64_t>& cand_src = scratch->cand_src;
  uint64_t* uhw = useful_here.mutable_words();
  uint64_t* eqw = edge_q.mutable_words();
  ker.Zero(uhw);
  cand_src.clear();
  const size_t cand_begin = cand_pool->size();
  for (const LabelIndex::Group& group : adj.GroupsOf(v)) {
    if (!delta.HasLabel(group.label)) continue;
    uint32_t last_dst = UINT32_MAX;
    uint32_t last_pos = 0;
    bool last_ok = false;
    for (const LabelIndex::Target& t : adj.Targets(group)) {
      if (t.dst != last_dst) {  // parallel edges share the move set
        last_dst = t.dst;
        size_t pos = next_useful.FindIndex(t.dst);
        if (pos == LevelSets::npos) {
          last_ok = false;
        } else {
          last_pos = static_cast<uint32_t>(pos);
          ker.Zero(eqw);
          ker.ForEachBit(next_useful.states(pos).words(), [&](uint32_t q_next) {
            ker.Or(eqw, delta.ReverseWords(group.label, q_next));
          });
          ker.And(eqw, states.words());
          last_ok = ker.Any(eqw);
        }
      }
      if (!last_ok) continue;
      cand_pool->push_back(TrimmedIndex::CandidateEdge{t.edge, t.dst,
                                                       group.label, last_pos});
      cand_src.insert(cand_src.end(), edge_q.words(), edge_q.words() + wps);
      ker.Or(uhw, edge_q.words());
    }
  }
  if (!ker.Any(uhw)) return false;

  // The vertex's B-list block: one next-usable row per useful state.
  // useful_here is exactly the union of the candidates' usable-source
  // sets, so every row has >= 1 usable candidate. O(|useful| x ncand) —
  // the same order as the block itself.
  const uint32_t ncand = static_cast<uint32_t>(cand_pool->size() - cand_begin);
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
  return true;
}

}  // namespace

bool TrimVertex(const LabelIndex& adj, const CompiledDelta& delta,
                uint32_t wps, uint32_t v, StateSetView states,
                const LevelSets& next_useful, Scratch* scratch,
                std::vector<TrimmedIndex::CandidateEdge>* cand_pool,
                std::vector<uint32_t>* nxt_pool, bool force_multi_word) {
  if (wps == 1 && !force_multi_word)
    return TrimVertexImpl(SingleWordKernel(), adj, delta, v, states,
                          next_useful, scratch, cand_pool, nxt_pool);
  return TrimVertexImpl(MultiWordKernel(wps), adj, delta, v, states,
                        next_useful, scratch, cand_pool, nxt_pool);
}

}  // namespace trim_detail

TrimmedIndex::TrimmedIndex(const Snapshot& snap, const Annotation& ann,
                           const AnnotateOptions& opts) {
  if (ShardPlan::ClampShards(opts.num_shards, snap.num_vertices()) > 1 &&
      ann.reachable()) {
    ShardedTrimBuild(*this, snap, ann, opts);
    return;
  }
  BuildSequential(snap, ann);
}

void TrimmedIndex::BuildSequential(const Snapshot& snap,
                                   const Annotation& ann) {
  if (!ann.reachable()) return;
  const uint32_t lambda = static_cast<uint32_t>(ann.lambda);
  wps_ = ann.words_per_set();
  useful_.assign(lambda + 1, LevelSets(ann.num_states));
  cand_ranges_.resize(lambda);
  blist_off_.resize(lambda);

  // Level lambda: only (target, final) pairs are useful. Other vertices
  // annotated at this level — even ones carrying final states — end no
  // answer walk.
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
  // delta rows. The per-vertex unit (word-parallel reverse-row move
  // sets, candidate list, B-list block) lives in trim_detail::TrimVertex,
  // shared with the sharded builder.
  const LabelIndex& adj = snap.label_index();
  const CompiledDelta& delta = ann.delta;
  trim_detail::Scratch scratch(ann.num_states);

  for (uint32_t i = lambda; i-- > 0;) {
    const LevelSets& level = ann.levels[i];
    const LevelSets& next_useful = useful_[i + 1];
    if (next_useful.empty()) continue;  // nothing below is useful
    for (size_t vi = 0; vi < level.size(); ++vi) {
      const uint32_t v = level.vertex(vi);
      const uint32_t cand_begin = static_cast<uint32_t>(cand_pool_.size());
      const size_t block_off = nxt_pool_.size();
      if (!trim_detail::TrimVertex(adj, delta, wps_, v, level.states(vi),
                                   next_useful, &scratch, &cand_pool_,
                                   &nxt_pool_, ann.force_multi_word))
        continue;
      useful_[i].Append(v, scratch.useful_here.words());
      cand_ranges_[i].emplace_back(cand_begin,
                                   static_cast<uint32_t>(cand_pool_.size()));
      blist_off_[i].push_back(block_off);
    }
  }

  for (const LevelSets& level : useful_)
    for (size_t i = 0; i < level.size(); ++i)
      num_slots_ += level.states(i).Count();
}

}  // namespace dsw
