// Stage 1 of the pipeline: BFS over the product D x A from
// (source, initial states), recording for every level i <= lambda the set
// of states q such that (v, q) is at BFS distance exactly i. lambda is
// the length of the shortest walk from source to target whose label word
// the query accepts (-1 when none exists).
//
// Key property used downstream (trimming and enumeration): for any
// *shortest* answer walk v_0 ... v_lambda and any accepting run
// q_0 ... q_lambda over it, the BFS distance of (v_i, q_i) is exactly i —
// a smaller distance would splice into a shorter accepting walk. So the
// per-level annotation captures every run of every answer, and each
// product pair lives on exactly one level.
//
// Cost: O(|D| x |A|) — each product edge (e, t) with e in E and t in
// Delta is relaxed at most once. The hot path is label-stratified: the
// BFS walks the database's CSR LabelIndex ("distinct labels out of v",
// then "edges of v with label l") and, once per (vertex, label), moves
// the whole frontier state set with a word-parallel OR of precompiled
// CompiledDelta rows — shared across every edge of the group. Levels are
// flat sorted-vertex arrays with contiguous word storage (LevelSets);
// the only per-level hash-free scratch is a dense slot table plus a
// touched list.
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
// The annotation also snapshots the compiled query (delta rows, final
// states, per-state epsilon-closures) so the later stages (TrimmedIndex,
// enumerators, whose bench-fixed constructors do not receive the Nfa)
// need no reference back to it.

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
  /// Populated for i in [0, lambda] when reachable() is true.
  std::vector<LevelSets> levels;

  /// Snapshot of the query, for the Nfa-free downstream stages: the
  /// precompiled per-(label, state) successor rows (after-side
  /// epsilon-closure composed in) and the final states.
  CompiledDelta delta;
  StateSet final_states;

  /// Per-state epsilon-closures (each contains the state itself); empty
  /// when the query is epsilon-free, in which case closure(q) = {q}.
  std::vector<StateSet> eps_closure;

  bool reachable() const { return lambda >= 0; }
  bool has_epsilon() const { return !eps_closure.empty(); }
  uint32_t words_per_set() const { return (num_states + 63) / 64; }

  /// True iff q alone accepts, i.e. reaches a final state by epsilon
  /// moves only (q itself included).
  bool AcceptsAt(uint32_t q) const {
    return has_epsilon() ? eps_closure[q].Intersects(final_states)
                         : final_states.Test(q);
  }

  /// ORs into \p out every state reachable from \p q by one *effective*
  /// labeled step eps* . label . eps* (out is not cleared; capacity must
  /// be num_states). Used by the naive baseline; the trimmed pipeline
  /// reads the delta rows directly.
  void EffectiveSuccessorsInto(uint32_t q, uint32_t label,
                               StateSet* out) const {
    if (!delta.HasLabel(label)) return;
    uint32_t wps = words_per_set();
    if (!has_epsilon()) {
      out->UnionWithWords(delta.SuccessorWords(label, q), wps);
      return;
    }
    eps_closure[q].ForEach([&](uint32_t q1) {
      out->UnionWithWords(delta.SuccessorWords(label, q1), wps);
    });
  }

  /// States annotated at (level, v); null view if none.
  StateSetView StatesAt(uint32_t level, uint32_t v) const {
    return level < levels.size() ? levels[level].Find(v) : StateSetView();
  }

  /// Heap footprint estimate, for the plan cache's byte budget.
  size_t ApproxBytes() const {
    size_t bytes = sizeof(Annotation) + delta.ApproxBytes() +
                   final_states.num_words() * sizeof(uint64_t);
    for (const LevelSets& lvl : levels) bytes += lvl.ApproxBytes();
    for (const StateSet& c : eps_closure)
      bytes += sizeof(StateSet) + c.num_words() * sizeof(uint64_t);
    return bytes;
  }
};

/// Runs the product BFS against a frozen snapshot. The snapshot carries
/// the label-stratified adjacency built at Freeze() time, so annotation
/// is a pure read — any number of Annotate calls can run concurrently
/// against one shared Snapshot.
Annotation Annotate(const Snapshot& snap, const Nfa& query, uint32_t source,
                    uint32_t target);

}  // namespace dsw

#endif  // DSW_CORE_ANNOTATE_H_
