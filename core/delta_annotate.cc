#include "core/delta_annotate.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "core/level_sets.h"
#include "util/state_set.h"

namespace dsw {
namespace {

// One pending or applied level move of a product pair.
struct PairEvent {
  uint32_t level;
  uint32_t vertex;
  uint32_t state;
};

}  // namespace

DeltaContext::DeltaContext(const Snapshot& snap)
    : DeltaContext(snap, DeltaContext()) {}

// Append-only mutation means prev covers exactly the first
// prev.in_off_.size() - 1 vertices and prev.in_src_.size() edges, and
// each vertex keeps its old in-neighbors ahead of its new ones.
DeltaContext::DeltaContext(const Snapshot& snap, const DeltaContext& prev) {
  const Database& db = snap.db();
  const uint32_t num_vertices = snap.num_vertices();
  const uint32_t num_edges = static_cast<uint32_t>(snap.num_edges());
  const uint32_t old_vertices = static_cast<uint32_t>(prev.in_off_.size() - 1);
  const uint32_t old_edges = static_cast<uint32_t>(prev.in_src_.size());
  assert(old_vertices <= num_vertices && old_edges <= num_edges);
  in_off_.assign(static_cast<size_t>(num_vertices) + 1, 0);
  in_src_.resize(num_edges);
  for (uint32_t e = old_edges; e < num_edges; ++e) ++in_off_[db.dst(e) + 1];

  // One pass turns in_off_[v + 1] from v's new in-degree into the slot
  // of its first new in-neighbor, and block-copies the old in-neighbors
  // of each run of vertices that gained none, through the next vertex
  // that did.
  uint32_t begin = 0;      // first slot of v
  uint32_t run = 0;        // first vertex of the current run
  uint32_t run_begin = 0;  // its first slot
  for (uint32_t v = 0; v < num_vertices; ++v) {
    const uint32_t old_degree =
        v < old_vertices ? prev.in_off_[v + 1] - prev.in_off_[v] : 0;
    const uint32_t new_degree = in_off_[v + 1];
    in_off_[v + 1] = begin + old_degree;
    begin += old_degree + new_degree;
    if (v < old_vertices && (new_degree != 0 || v + 1 == old_vertices)) {
      std::copy(prev.in_src_.begin() + prev.in_off_[run],
                prev.in_src_.begin() + prev.in_off_[v + 1],
                in_src_.begin() + run_begin);
      run = v + 1;
      run_begin = begin;
    }
  }
  // The new in-neighbors, in edge-id order; each in_off_[v + 1] ends at
  // the end of v's slots, which is where v + 1's begin.
  for (uint32_t e = old_edges; e < num_edges; ++e)
    in_src_[in_off_[db.dst(e) + 1]++] = db.src(e);
}

AnnotationRepair DeltaAnnotate(const Snapshot& snap, const EdgeDelta& delta,
                               Annotation* ann) {
  AnnotationRepair rep;
  if (!delta.known) return rep;
  // An unreachable annotation carries no level data (Annotate clears
  // the levels on exhaustion), so there is nothing to repair from — and
  // the initial-state set needed for a re-BFS was discarded with it.
  if (!ann->reachable()) return rep;

  const CompiledDelta& cd = ann->delta;
  const LabelIndex& adj = snap.label_index();
  const Database& db = snap.db();
  const uint32_t num_vertices = snap.num_vertices();
  const uint32_t num_edges = static_cast<uint32_t>(snap.num_edges());
  const uint32_t num_states = ann->num_states;
  const uint32_t wps = ann->words_per_set();
  const uint32_t old_lambda = static_cast<uint32_t>(ann->lambda);
  assert(delta.first_new_vertex <= num_vertices);
  assert(delta.first_new_edge <= num_edges);

  // Dense pair -> current level table, -1 = not annotated. This is the
  // one O(V x |Q|) cost of the repair; everything past it is bounded by
  // the touched region. (A single memset beats the full BFS's per-edge
  // relaxation by orders of magnitude at low mutation rates.)
  std::vector<int32_t> level_of(
      static_cast<size_t>(num_vertices) * num_states, -1);
  for (uint32_t i = 0; i <= old_lambda; ++i) {
    const LevelSets& level = ann->levels[i];
    for (size_t vi = 0; vi < level.size(); ++vi) {
      int32_t* row = &level_of[static_cast<size_t>(level.vertex(vi)) *
                               num_states];
      level.states(vi).ForEach(
          [&](uint32_t q) { row[q] = static_cast<int32_t>(i); });
    }
  }

  // Proposed pair moves, bucketed by target level. Seeds: each inserted
  // edge (u, l, v) relaxes u's *old* annotated states through l — the
  // contribution of every unchanged pair across the new edge. Cascades
  // (changed pairs relaxing onward, through old and new edges alike)
  // are generated by the wave itself.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> bucket(
      old_lambda + 1);
  for (uint32_t e = delta.first_new_edge; e < num_edges; ++e) {
    const Edge& edge = db.edge(e);
    if (!cd.HasLabel(edge.label)) continue;
    const StateSetView sources = cd.Sources(edge.label);
    const int32_t* row =
        &level_of[static_cast<size_t>(edge.src) * num_states];
    for (uint32_t q = 0; q < num_states; ++q) {
      const int32_t lvl = row[q];
      if (lvl < 0 || static_cast<uint32_t>(lvl) + 1 > old_lambda) continue;
      if (!sources.Test(q)) continue;
      state_set_detail::ForEachBit(
          cd.SuccessorWords(edge.label, q), wps, [&](uint32_t p) {
            bucket[static_cast<uint32_t>(lvl) + 1].emplace_back(edge.dst, p);
          });
    }
  }

  // The wave, in increasing level order. A proposal is accepted only
  // when it strictly lowers the pair's level, so each pair settles at
  // most once (once settled at j, every later bucket j' > j skips it),
  // at its true new distance: its first proposal comes from a seed or
  // from a settled predecessor at distance j - 1, and a proposal below
  // the true distance would witness a shorter product path.
  std::vector<PairEvent> adds, removes;
  std::vector<std::pair<uint32_t, uint32_t>> accepted;
  for (uint32_t j = 1; j <= old_lambda; ++j) {
    accepted.clear();
    for (const auto& [v, q] : bucket[j]) {
      int32_t& cur = level_of[static_cast<size_t>(v) * num_states + q];
      if (cur >= 0 && cur <= static_cast<int32_t>(j)) continue;
      if (cur >= 0)
        removes.push_back(PairEvent{static_cast<uint32_t>(cur), v, q});
      adds.push_back(PairEvent{j, v, q});
      cur = static_cast<int32_t>(j);
      accepted.emplace_back(v, q);
    }
    bucket[j].clear();
    if (j == old_lambda) continue;  // nothing beyond the old horizon matters
    for (const auto& [v, q] : accepted) {
      for (const LabelIndex::Group& group : adj.GroupsOf(v)) {
        if (!cd.HasLabel(group.label)) continue;
        if (!cd.Sources(group.label).Test(q)) continue;
        const uint64_t* row = cd.SuccessorWords(group.label, q);
        for (const LabelIndex::Target& t : adj.Targets(group))
          state_set_detail::ForEachBit(row, wps, [&](uint32_t p) {
            bucket[j + 1].emplace_back(t.dst, p);
          });
      }
    }
  }

  // New lambda: the smallest level where the target carries a final
  // state — exactly the from-scratch early-return condition. It can
  // only have shrunk.
  int32_t new_lambda = INT32_MAX;
  {
    const int32_t* row =
        &level_of[static_cast<size_t>(ann->target) * num_states];
    ann->final_states.ForEach([&](uint32_t q) {
      if (row[q] >= 0 && row[q] < new_lambda) new_lambda = row[q];
    });
  }
  assert(new_lambda <= static_cast<int32_t>(old_lambda) &&
         "insertions can only shorten the shortest accepting walk");

  // Apply the accepted moves level by level: new level = (old | adds)
  // & ~removes per vertex. The formula absorbs add-then-remove chains
  // (a pair added at j and later settled lower leaves both events at
  // j; old never contained it, so OR-then-ANDNOT cancels exactly).
  const uint32_t nl = static_cast<uint32_t>(new_lambda);
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> adds_by(nl + 1),
      removes_by(nl + 1);
  for (const PairEvent& ev : adds)
    if (ev.level <= nl) adds_by[ev.level].emplace_back(ev.vertex, ev.state);
  for (const PairEvent& ev : removes)
    if (ev.level <= nl)
      removes_by[ev.level].emplace_back(ev.vertex, ev.state);

  rep.changed.assign(nl + 1, {});
  std::vector<uint64_t> buf(wps);
  // Per-touched-vertex staging: the final word image of every event
  // vertex is computed once (against the untouched level), then
  // committed either in place (no membership flip anywhere on the
  // level) or through a chunk splice. Either way the work is
  // O(events log |level|) plus at most one block copy of the level —
  // never a per-entry rebuild walk.
  struct StagedVertex {
    uint32_t v;
    uint32_t lb;   // lower-bound position in the old level
    bool in_old;   // v present in the old level
    bool any;      // final set nonempty
    bool diff;     // membership or content actually changes
  };
  std::vector<StagedVertex> staged;
  std::vector<uint64_t> staged_words;
  for (uint32_t i = 0; i <= nl; ++i) {
    auto& add_list = adds_by[i];
    auto& remove_list = removes_by[i];
    if (add_list.empty() && remove_list.empty()) continue;
    std::sort(add_list.begin(), add_list.end());
    std::sort(remove_list.begin(), remove_list.end());
    LevelSets& level = ann->levels[i];

    // Stage pass over the (sorted) union of touched vertices: final
    // words = (old | adds) & ~removes, noting membership flips.
    staged.clear();
    staged_words.clear();
    size_t inserts = 0;
    bool membership_change = false;
    size_t ai = 0, ri = 0;
    while (ai < add_list.size() || ri < remove_list.size()) {
      uint32_t av = ai < add_list.size() ? add_list[ai].first : UINT32_MAX;
      uint32_t rv =
          ri < remove_list.size() ? remove_list[ri].first : UINT32_MAX;
      uint32_t v = std::min(av, rv);
      const size_t lb = level.LowerBound(v);
      const bool in_old = lb < level.size() && level.vertex(lb) == v;
      if (in_old)
        std::memcpy(buf.data(), level.states(lb).words(),
                    static_cast<size_t>(wps) * sizeof(uint64_t));
      else
        std::fill(buf.begin(), buf.end(), 0);
      for (; ai < add_list.size() && add_list[ai].first == v; ++ai)
        buf[add_list[ai].second >> 6] |= uint64_t{1}
                                         << (add_list[ai].second & 63);
      for (; ri < remove_list.size() && remove_list[ri].first == v; ++ri)
        buf[remove_list[ri].second >> 6] &=
            ~(uint64_t{1} << (remove_list[ri].second & 63));
      uint64_t any = 0;
      for (uint32_t w = 0; w < wps; ++w) any |= buf[w];
      bool diff;
      if (in_old) {
        diff = !any ||
               std::memcmp(buf.data(), level.states(lb).words(),
                           static_cast<size_t>(wps) * sizeof(uint64_t)) != 0;
        if (!any) membership_change = true;  // removal
      } else {
        // Absent vertex: a fully-canceling add/remove chain is a
        // no-op; any surviving bit is a membership insert.
        diff = any != 0;
        if (any) {
          membership_change = true;
          ++inserts;
        }
      }
      staged.push_back(StagedVertex{v, static_cast<uint32_t>(lb), in_old,
                                    any != 0, diff});
      staged_words.insert(staged_words.end(), buf.begin(), buf.end());
    }

    std::vector<uint32_t>& changed = rep.changed[i];
    if (!membership_change) {
      // Every touched vertex stays present nonempty: patch the state
      // words in place, membership (the sorted vertex array) intact.
      for (size_t k = 0; k < staged.size(); ++k) {
        if (!staged[k].diff) continue;
        std::memcpy(level.mutable_state_words(staged[k].lb),
                    &staged_words[k * wps],
                    static_cast<size_t>(wps) * sizeof(uint64_t));
        changed.push_back(staged[k].v);
      }
      continue;
    }

    // Splice rebuild: untouched runs of the old level are block-copied
    // around the event vertices (inserted, replaced, or dropped).
    LevelSets rebuilt(num_states);
    rebuilt.Reserve(level.size() + inserts);
    size_t prev = 0;
    for (size_t k = 0; k < staged.size(); ++k) {
      const StagedVertex& e = staged[k];
      rebuilt.AppendRange(level, prev, e.lb);
      if (e.any) rebuilt.Append(e.v, &staged_words[k * wps]);
      if (e.diff) changed.push_back(e.v);
      prev = e.lb + (e.in_old ? 1 : 0);
    }
    rebuilt.AppendRange(level, prev, level.size());
    ann->levels[i] = std::move(rebuilt);
  }

  rep.lambda_changed = nl != old_lambda;
  ann->levels.resize(nl + 1);
  ann->lambda = new_lambda;
  rep.ok = true;
  return rep;
}

TrimmedIndex DeltaTrim(const Snapshot& snap, const Annotation& ann,
                       const TrimmedIndex& old_index,
                       const AnnotationRepair& rep, const EdgeDelta& delta,
                       const DeltaContext& ctx) {
  assert(rep.ok);
  // A lambda change reshapes every level's useful sets at once: sweep
  // from an empty index (still no product BFS).
  if (rep.lambda_changed || old_index.empty()) return TrimmedIndex(snap, ann);

  // Sources of the inserted edges: their candidate lists gained an edge
  // at every level they appear on, so they are dirty everywhere.
  std::vector<uint32_t> new_sources;
  const Database& db = snap.db();
  for (uint32_t e = delta.first_new_edge; e < snap.num_edges(); ++e)
    new_sources.push_back(db.src(e));
  std::sort(new_sources.begin(), new_sources.end());
  new_sources.erase(std::unique(new_sources.begin(), new_sources.end()),
                    new_sources.end());

  // A vertex must be re-trimmed when its own annotation changed, when
  // an out-neighbor's useful set one level up changed (membership
  // included — positions shift for everyone, but *content* changes only
  // reach in-neighbors), or when it gained an out-edge. Every other
  // vertex re-trims to its old slot modulo the next-position shift,
  // which the builder's copy remaps.
  std::vector<uint32_t> dirty;
  return TrimmedIndex(
      snap, ann, old_index,
      [&](uint32_t i, std::span<const uint32_t> changed_next) {
        dirty = rep.changed[i];
        for (uint32_t w : changed_next)
          for (uint32_t u : ctx.InNeighbors(w)) dirty.push_back(u);
        dirty.insert(dirty.end(), new_sources.begin(), new_sources.end());
        std::sort(dirty.begin(), dirty.end());
        dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
        return std::span<const uint32_t>(dirty);
      });
}

}  // namespace dsw
