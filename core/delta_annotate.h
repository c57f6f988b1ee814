// Incremental maintenance under an insert-only edge delta (the
// mutation-maintenance layer behind the engine's incremental
// InstallSnapshot). The annotation is repaired by DeltaAnnotate
// (core/annotate.h), which resumes the product BFS from the old levels;
// the result is bit-identical to Annotate() on the new snapshot (the
// oracle test in tests/delta_annotate_test.cc asserts this after every
// insertion, epsilon-NFAs and multi-word queries included).
//
// The trim/B-list structures are repaired rather than rebuilt, too,
// by TrimmedIndex's one builder: DeltaTrim only names the *dirty*
// vertices of each level — annotation changed, an out-neighbor's useful
// set one level up changed, or an out-edge was inserted that can change
// the vertex's slot — and the builder re-trims those and copies every
// other vertex's useful slot from the old index, remapping only the
// next-level positions (which shift when the next level's membership
// changes). A write away from every answer dirties only the vertices
// whose annotation it moved: a new edge names its source only at the
// levels where that source was useful or the edge leads into a useful
// vertex, and the reverse CSR (DeltaContext) is read only at a level
// whose next level's useful sets changed, so an install derives it only
// when a trim asks. When lambda changed the builder sweeps from an
// empty index instead (still skipping the BFS), and sessions parked on
// the old plan are retired by the engine because the enumeration order
// is no longer a supersequence anchor (see engine/engine.cc).

#ifndef DSW_CORE_DELTA_ANNOTATE_H_
#define DSW_CORE_DELTA_ANNOTATE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/annotate.h"
#include "core/database.h"
#include "core/trimmed_index.h"
#include "util/page_table.h"

namespace dsw {

/// Reverse label-free adjacency (in-neighbor CSR) of one snapshot,
/// shared across every entry repair of one install: DeltaTrim needs
/// "which vertices have an edge into w" to propagate usefulness
/// changes backward, and the forward LabelIndex cannot answer that.
/// Each vertex lists the sources of its in-edges in edge-id order, so
/// parallel edges appear as duplicate in-neighbors (the dirty sets dedup
/// downstream). The lists are paged by vertex range like the LabelIndex
/// (util/page_table.h). The engine keeps the last context it derived,
/// of any earlier generation, and derives the installed snapshot's from
/// it only when a trim asks for in-neighbors: a copy of the page table,
/// and a rebuild of each page that holds a vertex or an edge's
/// destination new since the kept context; every other page is shared
/// with it.
class DeltaContext {
 public:
  /// Vertices per page, as a power of two; a constant, not a setting.
  static constexpr uint32_t kPageBits = LabelIndex::kPageBits;

  /// The context of \p snap, derived from an empty one.
  explicit DeltaContext(const Snapshot& snap);
  /// The context of \p snap, derived from \p prev: the context of an
  /// earlier snapshot of the same database.
  DeltaContext(const Snapshot& snap, const DeltaContext& prev);

  std::span<const uint32_t> InNeighbors(uint32_t v) const {
    const Page& page = pages_.PageHolding(v);
    const uint32_t s = Pages::SlotOf(v);
    return {page.src.data() + page.off[s], page.src.data() + page.off[s + 1]};
  }

  /// Identity of the page holding \p v: two contexts share it iff the
  /// pointers are equal.
  const void* PageOf(uint32_t v) const { return pages_.PageId(v); }

 private:
  DeltaContext() = default;  // no vertices, no edges

  struct Page {
    std::vector<uint32_t> src;  // source vertices, grouped by dst
    std::array<uint32_t, (1u << kPageBits) + 1> off{};  // per vertex, + 1
  };
  using Pages = PageTable<Page, kPageBits>;

  Pages pages_;
  uint32_t num_vertices_ = 0;
  uint32_t num_edges_ = 0;
};

/// Produces the TrimmedIndex of the repaired annotation \p ann from
/// \p old_index (built from the pre-delta annotation). Requires rep.ok.
/// When lambda is unchanged, the dirty vertices of level i are
/// rep.changed[i]; the in-neighbors of the vertices whose useful set at
/// level i + 1 changed; the new edges' sources that were useful at
/// level i in \p old_index, whose seek ranks take the new out-edges;
/// and the sources of the new edges into a vertex useful at level
/// i + 1, which may gain a candidate. The last two come from
/// intersections with delta.new_sources and delta.new_arcs. Every other
/// vertex is copied from \p old_index. \p context returns the reverse
/// CSR of \p snap; it is called only at a level whose next level's
/// useful sets changed, from the thread running the trim, so a caller
/// can derive the context on the first call. When lambda shrank, the
/// sweep starts from an empty index — still skipping the product BFS —
/// and reads no context. Bit-identical to TrimmedIndex(snap, ann)
/// either way.
TrimmedIndex DeltaTrim(const Snapshot& snap, const Annotation& ann,
                       const TrimmedIndex& old_index,
                       const AnnotationRepair& rep, const EdgeDelta& delta,
                       const std::function<const DeltaContext&()>& context);

/// DeltaTrim with the reverse CSR of \p snap at hand.
TrimmedIndex DeltaTrim(const Snapshot& snap, const Annotation& ann,
                       const TrimmedIndex& old_index,
                       const AnnotationRepair& rep, const EdgeDelta& delta,
                       const DeltaContext& ctx);

}  // namespace dsw

#endif  // DSW_CORE_DELTA_ANNOTATE_H_
