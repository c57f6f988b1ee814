#include "core/delta_annotate.h"

#include <algorithm>
#include <cassert>

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

TrimmedIndex DeltaTrim(const Snapshot& snap, const Annotation& ann,
                       const TrimmedIndex& old_index,
                       const AnnotationRepair& rep, const EdgeDelta& delta,
                       const DeltaContext& ctx) {
  assert(rep.ok);
  // A lambda change reshapes every level's useful sets at once: sweep
  // from an empty index (still no product BFS).
  if (rep.lambda_changed || old_index.empty()) return TrimmedIndex(snap, ann);

  // A vertex must be re-trimmed when its own annotation changed, when
  // an out-neighbor's useful set one level up changed (membership
  // included — positions shift for everyone, but *content* changes only
  // reach in-neighbors), or when it gained an out-edge: the sources of
  // the inserted edges gained a candidate at every level they appear
  // on, so they are dirty everywhere. Every other vertex re-trims to its
  // old slot modulo the next-position shift, which the builder's copy
  // remaps.
  std::vector<uint32_t> dirty;
  return TrimmedIndex(
      snap, ann, old_index,
      [&](uint32_t i, std::span<const uint32_t> changed_next) {
        dirty = rep.changed[i];
        for (uint32_t w : changed_next)
          for (uint32_t u : ctx.InNeighbors(w)) dirty.push_back(u);
        dirty.insert(dirty.end(), delta.new_sources.begin(),
                     delta.new_sources.end());
        std::sort(dirty.begin(), dirty.end());
        dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
        return std::span<const uint32_t>(dirty);
      });
}

}  // namespace dsw
