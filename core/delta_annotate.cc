#include "core/delta_annotate.h"

#include <algorithm>
#include <cassert>

namespace dsw {

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
