#include "core/database.h"

namespace dsw {

namespace {

// A page of new vertices whose labels span at most this many ids is
// sealed by a counting sort on (vertex, label) (step 4 below), whose
// counters take at most kCountedLabels words per vertex of the page. A
// constant, not a setting.
constexpr uint32_t kCountedLabels = 64;

}  // namespace

// One builder for every Freeze: a build from scratch is this derivation
// from an empty index, with every page new. Two passes over the new
// edges bracket a per-page layout, and a per-page seal sorts each
// touched vertex's out-edges once:
//
//  1. Each new edge gets its record (source, insertion index), and its
//     source's page counts the vertex's new out-edges.
//  2. Each rebuilt page lays its vertices out back to back; a vertex
//     without new out-edges is copied as it was, and a touched one gets
//     its old out-edges in insertion order, ahead of its new ones.
//  3. Each new edge is scattered to its insertion slot, with its label
//     parked in the rank array until the seal.
//  4. Each touched vertex is ordered by (label, insertion index) — the
//     (label, edge id) order, since a vertex's edges are inserted in id
//     order — which yields its groups, its targets and its ranks. A
//     page of new vertices, as every page of a build from scratch is,
//     is ordered as a whole by one counting sort on (vertex, label) in
//     flat passes over its edges; per-vertex loops of a few edges each
//     cost about twice as much there (E13 notes, EXPERIMENTS.md).
std::shared_ptr<const LabelIndex> Database::BuildLabelIndex(
    const LabelIndex& prev) const {
  using Page = LabelIndex::Page;
  using Pages = LabelIndex::Pages;
  using Chunks = LabelIndex::Chunks;
  const uint32_t v_count = num_vertices();
  const uint32_t e_count = static_cast<uint32_t>(num_edges());
  const uint32_t old_v = prev.num_vertices();
  const uint32_t old_e = static_cast<uint32_t>(prev.num_edges());
  assert(old_v <= v_count && old_e <= e_count);

  auto old_degree = [&](uint32_t v) -> uint32_t {
    if (v >= old_v) return 0;
    const Page& page = prev.pages_.PageHolding(v);
    const uint32_t s = Pages::SlotOf(v);
    return page.bounds[s + 1].target - page.bounds[s].target;
  };

  // The full chunks are shared; the tail chunk is copied and extended.
  Chunks::Builder chunks(prev.edges_, old_e, e_count);
  for (uint32_t c : chunks.touched())
    if (const auto* old = chunks.Prev(c)) *chunks.Fresh(c) = *old;
  auto record = [&](uint32_t e) -> LabelIndex::EdgeRecord& {
    return (*chunks.Fresh(e >> LabelIndex::kChunkBits))[Chunks::SlotOf(e)];
  };

  // 1. Until the layout, a rebuilt page keeps vertex s's count of new
  // out-edges in bounds[s + 1].target.
  Pages::Builder pages(prev.pages_, old_v, v_count);
  for (uint32_t e = old_e; e < e_count; ++e) {
    const uint32_t src = edges_[e].src;
    uint32_t& fresh = pages.Touch(src).bounds[Pages::SlotOf(src) + 1].target;
    record(e) = LabelIndex::EdgeRecord{src, old_degree(src) + fresh++};
  }

  // 2. The layout. Of a rebuilt page's vertices, the first n_old are
  // prev's; one of those is touched iff its span outgrew its old degree.
  auto old_vertices = [&](uint32_t p) {
    const uint32_t first = p << LabelIndex::kPageBits;
    return first < old_v ? std::min(pages.SizeOf(p), old_v - first) : 0;
  };
  auto touched = [](const Page& page, const Page& old, uint32_t s) {
    return page.bounds[s + 1].target - page.bounds[s].target !=
           old.bounds[s + 1].target - old.bounds[s].target;
  };
  // The end of the run of untouched old vertices that starts at s.
  auto run_end = [&](const Page& page, const Page& old, uint32_t s,
                     uint32_t n_old) {
    while (s < n_old && !touched(page, old, s)) ++s;
    return s;
  };
  for (uint32_t p : pages.touched()) {
    const uint32_t n = pages.SizeOf(p);
    const uint32_t n_old = old_vertices(p);
    Page& page = *pages.Fresh(p);
    const Page* old = pages.Prev(p);
    uint32_t end = 0;
    for (uint32_t s = 0; s < n; ++s) {
      if (s < n_old) end += old->bounds[s + 1].target - old->bounds[s].target;
      end += page.bounds[s + 1].target;
      page.bounds[s + 1].target = end;
    }
    page.targets.resize(end);
    page.rank.resize(end);
    for (uint32_t s = 0; s < n_old;) {
      const uint32_t from = old->bounds[s].target;
      LabelIndex::Target* targets = page.targets.data() + page.bounds[s].target;
      uint32_t* rank = page.rank.data() + page.bounds[s].target;
      if (const uint32_t t = run_end(page, *old, s, n_old); t > s) {
        const uint32_t count = old->bounds[t].target - from;
        std::copy_n(old->targets.data() + from, count, targets);
        std::copy_n(old->rank.data() + from, count, rank);
        s = t;
        continue;
      }
      for (uint32_t i = 0; i < old->bounds[s + 1].target - from; ++i) {
        targets[i] = old->targets[from + old->rank[from + i]];
        rank[i] = edges_[targets[i].edge].label;
      }
      ++s;
    }
  }

  // 3. The new edges, each at its insertion slot.
  for (uint32_t e = old_e; e < e_count; ++e) {
    const Edge& edge = edges_[e];
    Page& page = *pages.Fresh(edge.src >> LabelIndex::kPageBits);
    const uint32_t at =
        page.bounds[Pages::SlotOf(edge.src)].target + record(e).ins;
    page.targets[at] = LabelIndex::Target{e, edge.dst};
    page.rank[at] = edge.label;
  }

  // 4. The seal: groups, rank-ordered targets and ranks.
  std::vector<LabelIndex::Group> groups;
  std::vector<uint64_t> keys, sorted;
  std::vector<LabelIndex::Target> by_insertion;
  std::vector<uint32_t> slot_of, key, start;
  // Seals a page of new vertices only by one counting sort on (vertex,
  // label), which is stable, so each group keeps insertion order; its
  // counters are the page's groups. Returns false, changing nothing,
  // when the page's labels span more than kCountedLabels ids.
  auto seal_new_page = [&](Page& page, uint32_t n) {
    const uint32_t m = page.bounds[n].target;
    const uint32_t* labels = page.rank.data();
    if (m == 0) return false;
    const auto [lo, hi] = std::minmax_element(labels, labels + m);
    if (*hi - *lo >= kCountedLabels) return false;
    const uint32_t base = *lo, span = *hi - *lo + 1;
    // Each edge's vertex slot is the number of vertices that start at or
    // before it, less one; its key is (slot, label) and counts once.
    slot_of.assign(m + 1, 0);
    for (uint32_t s = 0; s < n; ++s) ++slot_of[page.bounds[s].target];
    key.resize(m);
    start.assign(n * span, 0);
    for (uint32_t i = 0, starts = 0; i < m; ++i) {
      starts += slot_of[i];
      slot_of[i] = starts - 1;
      key[i] = (starts - 1) * span + labels[i] - base;
      ++start[key[i]];
    }
    // Each key's first rank, and a group wherever a key is present.
    groups.resize(n * span);
    uint32_t g = 0;
    for (uint32_t s = 0, at = 0; s < n; ++s) {
      const uint32_t begin = page.bounds[s].target;
      page.bounds[s].group = g;
      for (uint32_t l = 0; l < span; ++l) {
        const uint32_t count = start[s * span + l];
        start[s * span + l] = at;
        groups[g] = LabelIndex::Group{base + l, at - begin, at + count - begin};
        g += count != 0;
        at += count;
      }
    }
    page.bounds[n].group = g;
    page.groups.assign(groups.begin(), groups.begin() + g);
    by_insertion.assign(page.targets.begin(), page.targets.begin() + m);
    LabelIndex::Target* targets = page.targets.data();
    uint32_t* rank = page.rank.data();
    for (uint32_t i = 0; i < m; ++i) {
      const uint32_t r = start[key[i]]++;
      targets[r] = by_insertion[i];
      rank[i] = r - page.bounds[slot_of[i]].target;
    }
    return true;
  };
  for (uint32_t p : pages.touched()) {
    const uint32_t n = pages.SizeOf(p);
    const uint32_t n_old = old_vertices(p);
    Page& page = *pages.Fresh(p);
    if (n_old == 0 && seal_new_page(page, n)) continue;
    const Page* old = pages.Prev(p);
    groups.clear();
    for (uint32_t s = 0; s < n;) {
      if (s < n_old) {
        if (const uint32_t t = run_end(page, *old, s, n_old); t > s) {
          const uint32_t from = old->bounds[s].group;
          const uint32_t shift = static_cast<uint32_t>(groups.size()) - from;
          for (uint32_t u = s; u < t; ++u)
            page.bounds[u].group = old->bounds[u].group + shift;
          groups.insert(groups.end(), old->groups.begin() + from,
                        old->groups.begin() + old->bounds[t].group);
          s = t;
          continue;
        }
      }
      const uint32_t begin = page.bounds[s].target;
      const uint32_t degree = page.bounds[s + 1].target - begin;
      page.bounds[s].group = static_cast<uint32_t>(groups.size());
      ++s;
      if (degree == 0) continue;
      // The keys are distinct, so a small vertex places each one by
      // counting the keys below it: branch-free, where a sort of a few
      // keys mispredicts about every comparison. A large one sorts.
      keys.clear();
      for (uint32_t i = 0; i < degree; ++i)
        keys.push_back(uint64_t{page.rank[begin + i]} << 32 | i);
      sorted.resize(degree);
      if (degree <= 16) {
        for (uint32_t i = 0; i < degree; ++i) {
          uint32_t r = 0;
          for (uint32_t j = 0; j < degree; ++j) r += keys[j] < keys[i];
          sorted[r] = keys[i];
        }
      } else {
        sorted.assign(keys.begin(), keys.end());
        std::sort(sorted.begin(), sorted.end());
      }
      by_insertion.assign(page.targets.begin() + begin,
                          page.targets.begin() + begin + degree);
      const size_t first_group = groups.size();
      for (uint32_t r = 0; r < degree; ++r) {
        const uint32_t ins = static_cast<uint32_t>(sorted[r]);
        const uint32_t label = static_cast<uint32_t>(sorted[r] >> 32);
        if (groups.size() == first_group || groups.back().label != label)
          groups.push_back(LabelIndex::Group{label, r, r});
        ++groups.back().end;
        page.targets[begin + r] = by_insertion[ins];
        page.rank[begin + ins] = r;
      }
    }
    page.bounds[n].group = static_cast<uint32_t>(groups.size());
    page.groups.assign(groups.begin(), groups.end());
  }

  auto ix = std::make_shared<LabelIndex>();
  ix->pages_ = std::move(pages).Finish();
  ix->edges_ = std::move(chunks).Finish();
  ix->num_vertices_ = v_count;
  ix->num_edges_ = e_count;
  return ix;
}

}  // namespace dsw
