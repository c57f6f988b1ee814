#include "core/annotate.h"

#include <algorithm>
#include <utility>

#include "util/word_kernel.h"

namespace dsw {
namespace {

constexpr uint32_t kNoSlot = UINT32_MAX;

// The product BFS, templated over the word kernel (the
// execution-tier layer, util/word_kernel.h): MultiWordKernel is the
// pre-tier loop structure verbatim, SingleWordKernel collapses every
// per-set loop to one uint64_t op for |Q| <= 64. Fills ann->levels and
// ann->lambda; the caller has already seeded the metadata and rejected
// the trivial cases.
template <typename Kernel>
void ProductBfs(const Snapshot& snap, const Nfa& query, Kernel ker,
                Annotation* out) {
  Annotation& ann = *out;
  const uint32_t source = ann.source;
  const uint32_t target = ann.target;
  const LabelIndex& adj = snap.label_index();
  const CompiledDelta& delta = ann.delta;
  const uint32_t num_vertices = snap.num_vertices();
  const uint32_t wps = ker.wps();

  // seen: flat V x |Q| bit matrix of product pairs already assigned a
  // level. One zeroed calloc-style allocation; the BFS itself touches
  // only visited rows.
  std::vector<uint64_t> seen(static_cast<size_t>(num_vertices) * wps, 0);

  // Next-frontier accumulator: dense per-vertex slot table + touched
  // list, so building a level is O(touched) with no hashing. Sealing
  // sorts the touched vertices when they are sparse and linear-scans the
  // slot table when they are dense (>= 1/16 of V) — the scan is cheaper
  // than the sort's branchy compares at that density.
  std::vector<uint32_t> slot(num_vertices, kNoSlot);
  std::vector<uint32_t> touched;
  std::vector<uint32_t> sorted;
  std::vector<uint64_t> slot_words;

  // Level 0: closure-saturated initial states at the source. Later
  // levels stay saturated by induction — delta rows compose the
  // after-side closure, and a union of closed sets is closed.
  StateSet init = query.initial();
  if (ann.has_epsilon()) {
    StateSet saturated(ann.num_states);
    init.ForEach(
        [&](uint32_t q) { saturated.UnionWith(ann.eps_closure[q]); });
    init = std::move(saturated);
  }
  for (uint32_t w = 0; w < wps; ++w)
    seen[static_cast<size_t>(source) * wps + w] = init.words()[w];

  LevelSets frontier(ann.num_states);
  frontier.Append(source, init.words());

  StateSet moved(ann.num_states);
  std::vector<uint64_t> add_buf(wps);  // new bits of one relaxed edge

  while (!frontier.empty()) {
    ann.levels.push_back(std::move(frontier));
    const LevelSets& current = ann.levels.back();
    if (StateSetView at_target = current.Find(target);
        at_target && at_target.Intersects(ann.final_states)) {
      ann.lambda = static_cast<int32_t>(ann.levels.size() - 1);
      return;
    }

    touched.clear();
    slot_words.clear();
    for (size_t vi = 0; vi < current.size(); ++vi) {
      const uint32_t v = current.vertex(vi);
      const StateSetView states = current.states(vi);
      for (const LabelIndex::Group& group : adj.GroupsOf(v)) {
        if (!delta.HasLabel(group.label)) continue;
        // One move per (vertex, label), shared by every edge of the
        // group: word-parallel OR of the frontier's delta rows, visiting
        // only states that actually carry this label.
        uint64_t* mw = moved.mutable_words();
        ker.Zero(mw);
        ker.ForEachAnd(states.words(), delta.Sources(group.label).words(),
                       [&](uint32_t q) {
                         ker.Or(mw, delta.SuccessorWords(group.label, q));
                       });
        if (!ker.Any(mw)) continue;
        for (const LabelIndex::Target& t : adj.Targets(group)) {
          uint64_t* sw = &seen[static_cast<size_t>(t.dst) * wps];
          if (ker.NewBits(add_buf.data(), mw, sw) == 0)
            continue;  // every pair already leveled
          uint32_t s = slot[t.dst];
          if (s == kNoSlot) {
            s = static_cast<uint32_t>(touched.size());
            slot[t.dst] = s;
            touched.push_back(t.dst);
            slot_words.resize(slot_words.size() + wps, 0);
          }
          uint64_t* nw = &slot_words[static_cast<size_t>(s) * wps];
          ker.CommitInto(sw, nw, add_buf.data());
        }
      }
    }

    // Seal the next level: sorted vertices, contiguous words.
    frontier = LevelSets(ann.num_states);
    if (touched.size() >= num_vertices / 16) {
      for (uint32_t v = 0; v < num_vertices; ++v) {
        if (slot[v] == kNoSlot) continue;
        frontier.Append(v, &slot_words[static_cast<size_t>(slot[v]) * wps]);
        slot[v] = kNoSlot;
      }
    } else {
      sorted.assign(touched.begin(), touched.end());
      std::sort(sorted.begin(), sorted.end());
      for (uint32_t v : sorted)
        frontier.Append(v, &slot_words[static_cast<size_t>(slot[v]) * wps]);
      for (uint32_t v : touched) slot[v] = kNoSlot;
    }
  }

  // Product exhausted without reaching (target, final): no answer.
  ann.levels.clear();
}

}  // namespace

Annotation Annotate(const Snapshot& snap, const Nfa& query, uint32_t source,
                    uint32_t target) {
  Annotation ann;
  ann.num_states = query.num_states();
  ann.source = source;
  ann.target = target;
  ann.final_states = query.final_states();
  if (query.has_epsilon()) ann.eps_closure = query.EpsilonClosures();
  ann.delta = CompiledDelta(query, ann.eps_closure);  // closures shared

  if (source >= snap.num_vertices() || target >= snap.num_vertices() ||
      query.num_states() == 0 || query.initial().None())
    return ann;

  // Kernel dispatch on the word count: one-word queries run the
  // collapsed single-word kernels.
  const uint32_t wps = ann.words_per_set();
  if (wps == 1)
    ProductBfs(snap, query, SingleWordKernel(), &ann);
  else
    ProductBfs(snap, query, MultiWordKernel(wps), &ann);
  return ann;
}

}  // namespace dsw
