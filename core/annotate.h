// Stage 1 of the pipeline: BFS over the product D x A from
// (source, initial states), recording for every level i < lambda the set
// of states q such that (v, q) is at BFS distance exactly i, and at
// level lambda that set for the target alone. lambda is the length of
// the shortest walk from source to target whose label word the query
// accepts (-1 when none exists). Level lambda's other vertices end no
// answer walk, so the trim never reads them, and an insertion can only
// shorten lambda, so a repair never moves out of that level either: the
// BFS tests the target's states before it seals a level, and when they
// meet the final states it keeps that one entry and drops the rest.
//
// Key property used downstream (trimming and enumeration): for any
// *shortest* answer walk v_0 ... v_lambda and any accepting run
// q_0 ... q_lambda over it, the BFS distance of (v_i, q_i) is exactly i —
// a smaller distance would splice into a shorter accepting walk. So the
// per-level annotation captures every run of every answer, and each
// product pair lives on exactly one level.
//
// One BFS, two entry points. Annotate builds from scratch; DeltaAnnotate
// repairs an annotation after edge insertions by resuming the same BFS
// from the previous generation's levels. An inserted edge can only lower
// BFS levels, so level i + 1 of the repair is the old level i + 1 minus
// the pairs that settled lower, plus the new pairs that moves out of
// level i reach; the kept pairs are marked seen before any move. Only
// two kinds of moves can reach a new pair: moves of pairs that are new
// at level i, and moves of a new edge's source through a (vertex, label)
// group that holds a new edge. Along old edges, a pair that kept level
// i reaches only pairs whose old level is at most i + 1, which are seen
// already. A build from scratch is the repair from empty old levels,
// where every pair is new.
//
// Cost: O(|D| x |A|) from scratch at worst — each product edge (e, t)
// with e in E and t in Delta is relaxed at most once — and otherwise the
// pairs the BFS reaches, never |V|. The hot path is label-stratified:
// the BFS walks the database's CSR LabelIndex ("distinct labels out of
// v", then "edges of v with label l") and, once per (vertex, label),
// moves the whole mover state set with a word-parallel OR of
// precompiled CompiledDelta rows — shared across every edge of the
// group. Levels are flat sorted-vertex arrays with contiguous word
// storage (LevelSets); the per-level hash-free scratch is a dense slot
// table plus a touched list. The V-sized tables, the seen bitmap
// (V x ceil(|Q|/64) words) and the slot table (V entries), are one
// per-thread scratch: all zero and all empty between calls, because a
// BFS frees each slot as it seals or drops a level and, before it
// returns, zeroes the bitmap rows of the vertices it marked. So a
// build costs the pairs it reaches, and a repair costs one pass over the
// old levels (each is marked into the bitmap, then moved over as is or
// block-copied around its changed vertices) and the touched region: the
// moves of new pairs and of the new edges' sources. The scratch grows,
// and never shrinks, to the largest graph and word count its thread has
// annotated: V x (8 ceil(|Q|/64) + 4) bytes per thread that builds or
// repairs annotations (0.78 MiB at 68,172 vertices and one word),
// outside any plan-cache budget, until the thread ends or calls
// ReleaseAnnotateScratch — as a thread that annotates only now and then
// should (the engine's workers after helping an install's repairs). A
// BFS that throws drops its thread's scratch, and the next one
// reallocates it zeroed.
//
// Epsilon-NFAs (Section 5.1, the Thompson front-end) are handled "for
// free": CompiledDelta composes the after-side epsilon-closure into
// every successor row, so a frontier moved through it stays
// closure-saturated by induction (the initial level is saturated
// explicitly), and each (v, q) pair is still marked at most once via the
// seen bitmap. Downstream, levels being closure-saturated means a
// labeled transition out of *any* member covers the "epsilon before the
// edge" half of an effective step; the "epsilon after" half is already
// inside the delta rows TrimmedIndex reuses, so the enumerator's
// state-set propagation needs no change at all.
//
// The annotation also snapshots the compiled query (delta rows and
// final states) so the later stages (TrimmedIndex, enumerators, whose
// bench-fixed constructors do not receive the Nfa) need no reference
// back to it. The epsilon-closures are not kept: the delta rows compose
// the after-side closure and the levels are saturated, so no later
// stage reads them.

#ifndef DSW_CORE_ANNOTATE_H_
#define DSW_CORE_ANNOTATE_H_

#include <cstdint>
#include <vector>

#include "core/database.h"
#include "core/level_sets.h"
#include "core/nfa.h"
#include "util/state_set.h"

namespace dsw {

struct Annotation {
  /// Length of the shortest accepting walk; -1 if target is unreachable
  /// under the query.
  int32_t lambda = -1;
  uint32_t num_states = 0;
  uint32_t source = 0;
  uint32_t target = 0;

  /// levels[i]: sorted vertices with the states q whose product pair
  /// (v, q) has BFS distance exactly i; contiguous word storage.
  /// Populated for i in [0, lambda] when reachable() is true, where
  /// levels[lambda] holds the target's entry alone.
  std::vector<LevelSets> levels;

  /// Snapshot of the query, for the Nfa-free downstream stages: the
  /// precompiled per-(label, state) successor rows (after-side
  /// epsilon-closure composed in) and the final states.
  CompiledDelta delta;
  StateSet final_states;

  bool reachable() const { return lambda >= 0; }
  uint32_t words_per_set() const { return (num_states + 63) / 64; }

  /// States annotated at (level, v); null view if none. At level
  /// lambda that is every state at distance lambda for the target and
  /// a null view for any other vertex.
  StateSetView StatesAt(uint32_t level, uint32_t v) const {
    return level < levels.size() ? levels[level].Find(v) : StateSetView();
  }

  /// Heap footprint estimate, for the plan cache's byte budget.
  size_t ApproxBytes() const {
    size_t bytes = sizeof(Annotation) + delta.ApproxBytes() +
                   final_states.num_words() * sizeof(uint64_t);
    for (const LevelSets& lvl : levels) bytes += lvl.ApproxBytes();
    return bytes;
  }
};

/// Runs the product BFS against a frozen snapshot. The snapshot carries
/// the label-stratified adjacency built at Freeze() time, so annotation
/// is a pure read — any number of Annotate calls can run concurrently
/// against one shared Snapshot, each on its own thread's scratch.
Annotation Annotate(const Snapshot& snap, const Nfa& query, uint32_t source,
                    uint32_t target);

/// What DeltaAnnotate did to the annotation. ok == false means the
/// repair is unsupported (unknown delta, or the old annotation was
/// unreachable and thus carries no level data to repair — Annotate
/// clears the levels on exhaustion); the annotation is untouched and
/// the caller must rebuild from scratch. changed[i] lists, sorted
/// ascending, the vertices whose state set at level i differs from
/// before (added, removed, or mutated); sized new-lambda + 1.
struct AnnotationRepair {
  bool ok = false;
  bool lambda_changed = false;
  std::vector<std::vector<uint32_t>> changed;
};

/// Repairs \p ann in place from its old snapshot's state to \p snap
/// (whose delta against that old generation is \p delta) by resuming
/// the product BFS from the old levels. On success the annotation is
/// bit-identical to Annotate() against \p snap; lambda can only shrink.
AnnotationRepair DeltaAnnotate(const Snapshot& snap, const EdgeDelta& delta,
                               Annotation* ann);

/// Frees the calling thread's product-BFS scratch (the header comment's
/// Cost paragraph); the thread's next Annotate or DeltaAnnotate
/// reallocates it zeroed.
void ReleaseAnnotateScratch();

}  // namespace dsw

#endif  // DSW_CORE_ANNOTATE_H_
