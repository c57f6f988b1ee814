#include "core/annotate.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>

#include "util/word_kernel.h"

namespace dsw {
namespace {

constexpr uint32_t kNoSlot = UINT32_MAX;

// The product BFS's two dense per-vertex tables, kept per thread so
// that a BFS costs the pairs it reaches rather than |V|: seen, the flat
// V x ceil(|Q|/64) bit matrix of product pairs already assigned a
// level, and slot, the new-pair accumulator's per-vertex slot table.
// Between calls seen is all zero and slot all kNoSlot. The tables grow,
// and never shrink, to the largest V x ceil(|Q|/64) words and V slots
// the thread has met, and each call reads seen's rows at its own word
// stride, which an all-zero table allows.
struct BfsScratch {
  std::vector<uint64_t> seen;
  std::vector<uint32_t> slot;
  bool busy = false;  // a BFS on this thread holds the tables
};

thread_local BfsScratch tls_scratch;

// Lends the thread's scratch to one BFS. Return() restores the
// invariant; a BFS that throws instead leaves bits set and slots taken,
// so the lease then drops the tables and the next BFS reallocates them
// zeroed.
class ScratchLease {
 public:
  ScratchLease(uint32_t num_vertices, uint32_t wps) : s_(tls_scratch) {
    const size_t words = static_cast<size_t>(num_vertices) * wps;
#if !defined(NDEBUG)
    assert(!s_.busy && "a product BFS on this thread holds the scratch");
    assert(std::all_of(s_.seen.begin(),
                       s_.seen.begin() + std::min(words, s_.seen.size()),
                       [](uint64_t w) { return w == 0; }));
    assert(std::all_of(
        s_.slot.begin(),
        s_.slot.begin() + std::min<size_t>(num_vertices, s_.slot.size()),
        [](uint32_t s) { return s == kNoSlot; }));
#endif
    if (s_.seen.size() < words) s_.seen.assign(words, 0);
    if (s_.slot.size() < num_vertices) s_.slot.assign(num_vertices, kNoSlot);
    s_.busy = true;
  }
  ~ScratchLease() {
    if (!returned_) s_ = BfsScratch();
    s_.busy = false;
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  uint64_t* seen() { return s_.seen.data(); }
  uint32_t* slot() { return s_.slot.data(); }

  // Zeroes the seen rows of \p vertices and frees their slots: the
  // vertices of level lambda, whose pairs the BFS marked but does not
  // keep, bar the target's.
  template <typename Kernel>
  void Drop(Kernel ker, std::span<const uint32_t> vertices) {
    for (uint32_t v : vertices) {
      ker.Zero(seen() + static_cast<size_t>(v) * ker.wps());
      slot()[v] = kNoSlot;
    }
  }

  // Zeroes the seen rows of every vertex on \p levels, the levels the
  // BFS built. Every bit it set marks a pair on one of them (an old
  // pair that lost to a lower level is on that lower level) or on level
  // lambda, which keeps only the target and whose other vertices the
  // BFS has dropped, so this costs O(pairs). The BFS has already reset
  // each slot it took.
  template <typename Kernel>
  void Return(Kernel ker, const std::vector<LevelSets>& levels) {
    for (const LevelSets& level : levels)
      for (uint32_t v : level.vertices())
        ker.Zero(seen() + static_cast<size_t>(v) * ker.wps());
    returned_ = true;
  }

 private:
  BfsScratch& s_;
  bool returned_ = false;
};

// The product BFS, templated over the word kernel (util/word_kernel.h):
// SingleWordKernel collapses every per-set loop to one uint64_t op for
// |Q| <= 64. ann->levels holds level 0 on entry; \p old holds the
// previous generation's levels (empty for a build from scratch, where
// every pair is new), edges [first_new_edge, num_edges) are the ones
// inserted since and \p new_sources their sorted distinct sources.
// Fills ann->levels and ann->lambda, and, when \p changed is not null,
// the vertices of each level whose state set differs from the old
// level's. Level lambda keeps only the target's entry, the one entry
// the trim reads.
template <typename Kernel>
void ProductBfs(const Snapshot& snap, Kernel ker, std::vector<LevelSets> old,
                uint32_t first_new_edge,
                std::span<const uint32_t> new_sources, Annotation* out,
                std::vector<std::vector<uint32_t>>* changed) {
  Annotation& ann = *out;
  const uint32_t target = ann.target;
  const LabelIndex& adj = snap.label_index();
  const CompiledDelta& delta = ann.delta;
  const uint32_t num_vertices = snap.num_vertices();
  const uint32_t wps = ker.wps();

  // seen and slot come from the thread's scratch, all zero and all
  // kNoSlot, so the BFS touches only the rows of the pairs it reaches.
  ScratchLease scratch(num_vertices, wps);
  uint64_t* const seen = scratch.seen();
  auto seen_row = [&](uint32_t v) {
    return seen + static_cast<size_t>(v) * wps;
  };

  // New-pair accumulator: dense per-vertex slot table + touched
  // list, so building a level is O(touched) with no hashing. Sealing
  // sorts the touched vertices when they are sparse and linear-scans the
  // slot table when they are dense (>= 1/16 of V) — the scan is cheaper
  // than the sort's branchy compares at that density.
  uint32_t* const slot = scratch.slot();
  std::vector<uint32_t> touched;
  std::vector<uint32_t> sorted;
  std::vector<uint64_t> slot_words;

  // Entries of the old level that lost pairs to a lower level: their
  // positions and the words they keep.
  std::vector<uint32_t> lost;
  std::vector<uint64_t> kept_words;

  StateSet moved(ann.num_states);
  std::vector<uint64_t> buf(wps);  // new bits of one relaxed edge; merges

  // Level 0 is the source's closed initial states, which no insertion
  // changes.
  assert(ann.levels.size() == 1 && ann.levels[0].size() == 1);
  ker.Or(seen_row(ann.source), ann.levels[0].states(0).words());
  if (changed) changed->emplace_back();
  if (ann.source == target &&
      ann.levels[0].states(0).Intersects(ann.final_states)) {
    ann.lambda = 0;
    scratch.Return(ker, ann.levels);
    return;
  }

  // fresh: the pairs of the current level that are new, unless every
  // pair of it is (fresh_is_level).
  LevelSets fresh;
  bool fresh_is_level = old.empty();
  LevelSets none;  // stands in for the old levels past the last one
  StateSet at_target(ann.num_states);
  for (uint32_t i = 0;; ++i) {
    const LevelSets& current = ann.levels[i];
    if (current.empty()) break;

    // The old level i + 1's pairs that did not settle lower keep their
    // level; marking them before any move keeps the moves from
    // re-proposing them.
    LevelSets& old_next = i + 1 < old.size() ? old[i + 1] : none;
    lost.clear();
    kept_words.clear();
    for (size_t k = 0; k < old_next.size(); ++k) {
      uint64_t* sw = seen_row(old_next.vertex(k));
      const uint64_t* ow = old_next.states(k).words();
      ker.NewBits(buf.data(), ow, sw);
      if (!ker.Equal(buf.data(), ow)) {
        lost.push_back(static_cast<uint32_t>(k));
        kept_words.insert(kept_words.end(), buf.begin(), buf.end());
      }
      ker.Or(sw, ow);
    }

    // Moves out of level i that can reach a new pair: those of the new
    // pairs, through every group, and those of a new edge's source, at
    // every level it appears on, through the groups that hold a new
    // edge (the last edge of a group is its newest).
    const LevelSets& movers = fresh_is_level ? current : fresh;
    touched.clear();
    slot_words.clear();
    size_t fi = 0, si = 0, ci = 0;
    while (fi < movers.size() || si < new_sources.size()) {
      const uint32_t fv = fi < movers.size() ? movers.vertex(fi) : UINT32_MAX;
      const uint32_t sv =
          si < new_sources.size() ? new_sources[si] : UINT32_MAX;
      const uint32_t v = std::min(fv, sv);
      const uint64_t* fresh_states =
          fv == v ? movers.states(fi++).words() : nullptr;
      const uint64_t* all_states = nullptr;
      if (sv == v) {
        ++si;
        while (ci < current.size() && current.vertex(ci) < v) ++ci;
        if (ci < current.size() && current.vertex(ci) == v)
          all_states = current.states(ci).words();
      }
      if (fresh_states == nullptr && all_states == nullptr) continue;
      const LabelIndex::OutEdges out = adj.Out(v);
      for (const LabelIndex::Group& group : out.groups) {
        if (!delta.HasLabel(group.label)) continue;
        const uint64_t* states =
            all_states && out.Targets(group).back().edge >= first_new_edge
                ? all_states
                : fresh_states;
        if (states == nullptr) continue;
        // One move per (vertex, label), shared by every edge of the
        // group: word-parallel OR of the movers' delta rows, visiting
        // only states that actually carry this label.
        uint64_t* mw = moved.mutable_words();
        ker.Zero(mw);
        ker.ForEachAnd(states, delta.Sources(group.label).words(),
                       [&](uint32_t q) {
                         ker.Or(mw, delta.SuccessorWords(group.label, q));
                       });
        if (!ker.Any(mw)) continue;
        for (const LabelIndex::Target& t : out.Targets(group)) {
          uint64_t* sw = seen_row(t.dst);
          if (ker.NewBits(buf.data(), mw, sw) == 0)
            continue;  // every pair already leveled
          uint32_t s = slot[t.dst];
          if (s == kNoSlot) {
            s = static_cast<uint32_t>(touched.size());
            slot[t.dst] = s;
            touched.push_back(t.dst);
            slot_words.resize(slot_words.size() + wps, 0);
          }
          uint64_t* nw = &slot_words[static_cast<size_t>(s) * wps];
          ker.CommitInto(sw, nw, buf.data());
        }
      }
    }

    // The target's states at level i + 1: its old entry, or what that
    // kept, and its new pairs. If they meet the final states, level
    // i + 1 is lambda and keeps that one entry; nothing else of it is
    // sealed. Every other vertex of the old level leaves it.
    uint64_t* tw = at_target.mutable_words();
    ker.Zero(tw);
    const size_t old_at = old_next.FindIndex(target);
    if (old_at != LevelSets::npos) {
      const auto it = std::lower_bound(lost.begin(), lost.end(), old_at);
      ker.Or(tw, it != lost.end() && *it == old_at
                     ? &kept_words[static_cast<size_t>(it - lost.begin()) *
                                   wps]
                     : old_next.states(old_at).words());
    }
    if (slot[target] != kNoSlot)
      ker.Or(tw, &slot_words[static_cast<size_t>(slot[target]) * wps]);
    if (at_target.Intersects(ann.final_states)) {
      if (changed) {
        std::vector<uint32_t>& c = changed->emplace_back();
        for (uint32_t v : old_next.vertices())
          if (v != target) c.push_back(v);
        if (old_at == LevelSets::npos ||
            !ker.Equal(old_next.states(old_at).words(), tw))
          c.insert(std::lower_bound(c.begin(), c.end(), target), target);
      }
      scratch.Drop(ker, touched);
      scratch.Drop(ker, old_next.vertices());
      ann.levels.emplace_back(ann.num_states).Append(target, tw);
      ann.lambda = static_cast<int32_t>(i + 1);
      scratch.Return(ker, ann.levels);
      return;
    }

    // Seal the new pairs: sorted vertices, contiguous words, reserved
    // exactly, so a level a plan keeps carries no growth slack.
    fresh = LevelSets(ann.num_states);
    fresh.Reserve(touched.size());
    if (touched.size() >= num_vertices / 16) {
      for (uint32_t v = 0; v < num_vertices; ++v) {
        if (slot[v] == kNoSlot) continue;
        fresh.Append(v, &slot_words[static_cast<size_t>(slot[v]) * wps]);
        slot[v] = kNoSlot;
      }
    } else {
      sorted.assign(touched.begin(), touched.end());
      std::sort(sorted.begin(), sorted.end());
      for (uint32_t v : sorted)
        fresh.Append(v, &slot_words[static_cast<size_t>(slot[v]) * wps]);
      for (uint32_t v : touched) slot[v] = kNoSlot;
    }

    // Level i + 1: the old level with its events applied. Each consumed
    // old level is released before the next is built, so the new levels
    // reuse its memory.
    fresh_is_level = old_next.empty();
    if (fresh_is_level) {
      ann.levels.push_back(std::move(fresh));
      if (changed) changed->push_back(ann.levels.back().vertices());
      continue;
    }
    if (changed) changed->emplace_back();
    if (lost.empty() && fresh.empty()) {
      ann.levels.push_back(std::move(old_next));
      continue;
    }
    // Block-copy the runs of old entries around the event vertices: an
    // entry that lost pairs, or a vertex with new pairs.
    LevelSets next(ann.num_states);
    next.Reserve(old_next.size() + fresh.size());
    const std::vector<uint32_t>& old_vertices = old_next.vertices();
    size_t copied = 0, li = 0;
    fi = 0;
    while (li < lost.size() || fi < fresh.size()) {
      const uint32_t lv =
          li < lost.size() ? old_vertices[lost[li]] : UINT32_MAX;
      const uint32_t fv = fi < fresh.size() ? fresh.vertex(fi) : UINT32_MAX;
      const uint32_t v = std::min(lv, fv);
      // v's old entry, or where it would be.
      const size_t pos =
          lv == v ? lost[li]
                  : static_cast<size_t>(
                        std::lower_bound(old_vertices.begin() + copied,
                                         old_vertices.end(), v) -
                        old_vertices.begin());
      next.AppendRange(old_next, copied, pos);
      copied = pos;
      ker.Zero(buf.data());
      if (lv == v) {
        ker.Or(buf.data(), &kept_words[li++ * wps]);
        ++copied;
      } else if (pos < old_vertices.size() && old_vertices[pos] == v) {
        ker.Or(buf.data(), old_next.states(pos).words());
        ++copied;
      }
      if (fv == v) ker.Or(buf.data(), fresh.states(fi++).words());
      if (ker.Any(buf.data())) next.Append(v, buf.data());
      if (changed) changed->back().push_back(v);
    }
    next.AppendRange(old_next, copied, old_next.size());
    old_next = LevelSets();
    ann.levels.push_back(std::move(next));
  }

  // Product exhausted without reaching (target, final): no answer.
  scratch.Return(ker, ann.levels);
  ann.levels.clear();
  ann.lambda = -1;
}

// Kernel dispatch on the word count: one-word queries run the
// collapsed single-word kernels.
void RunProductBfs(const Snapshot& snap, std::vector<LevelSets> old,
                   uint32_t first_new_edge,
                   std::span<const uint32_t> new_sources, Annotation* ann,
                   std::vector<std::vector<uint32_t>>* changed) {
  const uint32_t wps = ann->words_per_set();
  if (wps == 1)
    ProductBfs(snap, SingleWordKernel(), std::move(old), first_new_edge,
               new_sources, ann, changed);
  else
    ProductBfs(snap, MultiWordKernel(wps), std::move(old), first_new_edge,
               new_sources, ann, changed);
}

}  // namespace

void ReleaseAnnotateScratch() {
  assert(!tls_scratch.busy &&
         "a product BFS on this thread holds the scratch");
  tls_scratch = BfsScratch();
}

Annotation Annotate(const Snapshot& snap, const Nfa& query, uint32_t source,
                    uint32_t target) {
  Annotation ann;
  ann.num_states = query.num_states();
  ann.source = source;
  ann.target = target;
  ann.final_states = query.final_states();
  std::vector<StateSet> closures;  // empty when the query is epsilon-free
  if (query.has_epsilon()) closures = query.EpsilonClosures();
  ann.delta = CompiledDelta(query, closures);  // closures shared

  if (source >= snap.num_vertices() || target >= snap.num_vertices() ||
      query.num_states() == 0 || query.initial().None())
    return ann;

  // Level 0: closure-saturated initial states at the source. Later
  // levels stay saturated by induction — delta rows compose the
  // after-side closure, and a union of closed sets is closed.
  StateSet init = query.initial();
  if (!closures.empty()) {
    StateSet saturated(ann.num_states);
    init.ForEach([&](uint32_t q) { saturated.UnionWith(closures[q]); });
    init = std::move(saturated);
  }
  ann.levels.emplace_back(ann.num_states).Append(source, init.words());
  RunProductBfs(snap, {}, static_cast<uint32_t>(snap.num_edges()), {}, &ann,
                nullptr);
  return ann;
}

AnnotationRepair DeltaAnnotate(const Snapshot& snap, const EdgeDelta& delta,
                               Annotation* ann) {
  AnnotationRepair rep;
  // An unreachable annotation carries no level data (Annotate clears
  // the levels on exhaustion), so there is nothing to repair from — and
  // the initial-state set needed for a re-BFS was discarded with it.
  if (!delta.known || !ann->reachable()) return rep;
  assert(delta.first_new_edge <= snap.num_edges());

  const int32_t old_lambda = ann->lambda;
  std::vector<LevelSets> old = std::move(ann->levels);  // leaves it empty
  ann->levels.push_back(std::move(old[0]));  // no insertion changes it
  RunProductBfs(snap, std::move(old), delta.first_new_edge,
                delta.new_sources, ann, &rep.changed);
  assert(ann->lambda >= 0 && ann->lambda <= old_lambda &&
         "insertions can only shorten the shortest accepting walk");
  rep.lambda_changed = ann->lambda != old_lambda;
  rep.ok = true;
  return rep;
}

}  // namespace dsw
