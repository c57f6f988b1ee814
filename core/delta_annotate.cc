#include "core/delta_annotate.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dsw {

DeltaContext::DeltaContext(const Snapshot& snap)
    : DeltaContext(snap, DeltaContext()) {}

// Append-only mutation means prev covers exactly vertices
// [0, prev.num_vertices_) and edges [0, prev.num_edges_), and each
// vertex keeps its old in-neighbors ahead of its new ones. A rebuilt
// page counts its vertices' new in-edges, lays the vertices out back to
// back with their old in-neighbors copied in, and then takes the new
// in-neighbors in edge-id order.
DeltaContext::DeltaContext(const Snapshot& snap, const DeltaContext& prev)
    : num_vertices_(snap.num_vertices()),
      num_edges_(static_cast<uint32_t>(snap.num_edges())) {
  const Database& db = snap.db();
  assert(prev.num_vertices_ <= num_vertices_ &&
         prev.num_edges_ <= num_edges_);
  Pages::Builder pages(prev.pages_, prev.num_vertices_, num_vertices_);
  // Until the layout, vertex s's count of new in-edges sits in off[s + 1].
  for (uint32_t e = prev.num_edges_; e < num_edges_; ++e) {
    const uint32_t dst = db.dst(e);
    ++pages.Touch(dst).off[Pages::SlotOf(dst) + 1];
  }

  // The layout leaves off[s + 1] at the slot of s's first new
  // in-neighbor; the scatter below advances it to the end of s's slots,
  // which is where s + 1's begin.
  for (uint32_t p : pages.touched()) {
    const uint32_t first = p << kPageBits;
    const uint32_t n = pages.SizeOf(p);
    Page& page = *pages.Fresh(p);
    const Page* old = pages.Prev(p);
    auto old_degree = [&](uint32_t s) -> uint32_t {
      return first + s < prev.num_vertices_ ? old->off[s + 1] - old->off[s]
                                            : 0;
    };
    uint32_t total = 0;
    for (uint32_t s = 0; s < n; ++s) total += old_degree(s) + page.off[s + 1];
    page.src.resize(total);
    uint32_t begin = 0;
    for (uint32_t s = 0; s < n; ++s) {
      const uint32_t degree = old_degree(s);
      if (degree > 0)
        std::copy_n(old->src.data() + old->off[s], degree,
                    page.src.data() + begin);
      const uint32_t fresh = page.off[s + 1];
      page.off[s + 1] = begin + degree;
      begin += degree + fresh;
    }
  }
  for (uint32_t e = prev.num_edges_; e < num_edges_; ++e) {
    const uint32_t dst = db.dst(e);
    Page& page = *pages.Fresh(dst >> kPageBits);
    page.src[page.off[Pages::SlotOf(dst) + 1]++] = db.src(e);
  }
  pages_ = std::move(pages).Finish();
}

namespace {

// Appends the members of sorted \p a that sorted \p b holds too: a
// binary search of the larger list for each member of the smaller.
void AppendCommon(std::span<const uint32_t> a, std::span<const uint32_t> b,
                  std::vector<uint32_t>* out) {
  if (a.size() > b.size()) std::swap(a, b);
  for (uint32_t v : a)
    if (std::binary_search(b.begin(), b.end(), v)) out->push_back(v);
}

// Appends the source of every arc of \p arcs (sorted by dst) whose
// destination sorted \p vertices holds, walking the smaller of the two.
void AppendSourcesInto(std::span<const EdgeDelta::Arc> arcs,
                       std::span<const uint32_t> vertices,
                       std::vector<uint32_t>* out) {
  if (arcs.size() <= vertices.size()) {
    for (size_t k = 0; k < arcs.size();) {
      const uint32_t w = arcs[k].dst;
      const bool into =
          std::binary_search(vertices.begin(), vertices.end(), w);
      for (; k < arcs.size() && arcs[k].dst == w; ++k)
        if (into) out->push_back(arcs[k].src);
    }
    return;
  }
  auto it = arcs.begin();
  for (uint32_t w : vertices) {
    it = std::lower_bound(it, arcs.end(), EdgeDelta::Arc{w, 0});
    for (; it != arcs.end() && it->dst == w; ++it) out->push_back(it->src);
  }
}

}  // namespace

TrimmedIndex DeltaTrim(const Snapshot& snap, const Annotation& ann,
                       const TrimmedIndex& old_index,
                       const AnnotationRepair& rep, const EdgeDelta& delta,
                       const std::function<const DeltaContext&()>& context) {
  assert(rep.ok);
  // A lambda change reshapes every level's useful sets at once: sweep
  // from an empty index (still no product BFS).
  if (rep.lambda_changed || old_index.empty()) return TrimmedIndex(snap, ann);

  // A vertex v at level i re-trims to its old slot, modulo the
  // next-position shift the builder's copy remaps, unless one of its
  // inputs changed: its annotated states (rep.changed[i]); the useful
  // set of an out-neighbor one level up, membership included (an
  // in-neighbor of changed_next, through the context of the new
  // snapshot, whose in-edges include the new edges); or its out-edges.
  // A new out-edge changes v's slot only if v was useful at level i,
  // whose seek ranks take every out-edge, or if the edge leads into a
  // vertex useful at level i + 1, so that it may be a candidate. Any
  // other new source keeps no candidate it lacked and stays useless.
  std::vector<uint32_t> dirty;
  return TrimmedIndex(
      snap, ann, old_index,
      [&](uint32_t i, const LevelSets& next_useful,
          std::span<const uint32_t> changed_next) {
        dirty = rep.changed[i];
        if (!changed_next.empty()) {
          const DeltaContext& ctx = context();
          for (uint32_t w : changed_next)
            for (uint32_t u : ctx.InNeighbors(w)) dirty.push_back(u);
        }
        AppendCommon(delta.new_sources, old_index.UsefulLevel(i).vertices(),
                     &dirty);
        AppendSourcesInto(delta.new_arcs, next_useful.vertices(), &dirty);
        std::sort(dirty.begin(), dirty.end());
        dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
        return std::span<const uint32_t>(dirty);
      });
}

TrimmedIndex DeltaTrim(const Snapshot& snap, const Annotation& ann,
                       const TrimmedIndex& old_index,
                       const AnnotationRepair& rep, const EdgeDelta& delta,
                       const DeltaContext& ctx) {
  return DeltaTrim(snap, ann, old_index, rep, delta,
                   [&ctx]() -> const DeltaContext& { return ctx; });
}

}  // namespace dsw
