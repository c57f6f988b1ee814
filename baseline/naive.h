// The introduction's strawman: enumerate shortest *product paths*
// (walk, run) pairs and deduplicate walks afterwards. Every extra
// accepting run of a walk is a duplicate, and nondeterministic queries
// have exponentially many runs per walk — the blow-up E7 measures.
//
// The search is restricted to level-consistent product edges (the BFS
// annotation), i.e. this is the strongest naive variant: it never
// wanders off shortest paths, and still drowns in duplicates. It walks
// the snapshot's LabelIndex and reads only lambda and the levels of the
// trimmed pipeline's Annotation. That annotation keeps only the
// target's entry at level lambda, so a last step into any other vertex
// keeps the states on no level below lambda there: a move out of level
// lambda - 1 reaches distance lambda at most, so those are exactly the
// pairs the full level lambda would hold. The search thus generates,
// and its budget counts, every level-consistent path of length lambda,
// not only those that end at the target. Its steps and its acceptance
// test come from the Nfa itself (its transitions and epsilon-closures),
// not from the annotation's delta rows: it branches on closure-collapsed
// *effective* steps eps* . label . eps*, so distinct epsilon-paths
// between the same labeled steps count as one run, for epsilon-free and
// epsilon-NFAs alike — which keeps the oracle honest against the
// label-stratified pipeline's epsilon composition and trimming.

#ifndef DSW_BASELINE_NAIVE_H_
#define DSW_BASELINE_NAIVE_H_

#include <cstdint>
#include <set>
#include <vector>

#include "util/state_set.h"

#include "core/annotate.h"
#include "core/database.h"
#include "core/nfa.h"
#include "core/walk.h"

namespace dsw {

struct NaiveResult {
  std::vector<Walk> walks;        // distinct answers
  uint64_t paths_generated = 0;   // complete length-lambda product paths
  uint64_t duplicates = 0;        // accepting paths whose walk was seen
  int32_t lambda = -1;
  bool budget_exhausted = false;
};

namespace naive_detail {

struct Search {
  const Snapshot* snap;
  const Annotation* ann;
  const Nfa* query;
  const std::vector<StateSet>* closures;  // per state, itself included
  uint32_t target;
  uint64_t max_paths;
  NaiveResult* res;
  std::set<std::vector<uint32_t>>* seen;
  std::vector<uint32_t>* prefix;
  // Per-depth scratch for the effective-step target sets: the recursion
  // iterates targets[depth] while deeper calls fill their own slot.
  std::vector<StateSet>* targets;

  void Run(uint32_t v, uint32_t q, uint32_t depth) {
    if (res->budget_exhausted) return;
    if (depth == static_cast<uint32_t>(ann->lambda)) {
      if (res->paths_generated >= max_paths) {
        res->budget_exhausted = true;
        return;
      }
      ++res->paths_generated;
      if (v != target || !(*closures)[q].Intersects(query->final_states()))
        return;
      if (seen->insert(*prefix).second)
        res->walks.push_back(Walk{*prefix});
      else
        ++res->duplicates;
      return;
    }
    const bool last = depth + 1 == static_cast<uint32_t>(ann->lambda);
    const LabelIndex::OutEdges out = snap->label_index().Out(v);
    for (const LabelIndex::Group& g : out.groups)
      for (const LabelIndex::Target& t : out.Targets(g)) {
        const bool off_target = last && t.dst != target;
        StateSetView next = ann->StatesAt(depth + 1, t.dst);
        if (!next && !off_target) continue;
        StateSet& step = (*targets)[depth];
        step.ZeroAll();
        (*closures)[q].ForEach([&](uint32_t from) {
          for (const auto& [label, to] : query->Transitions(from))
            if (label == g.label) step.UnionWith((*closures)[to]);
        });
        if (off_target) {
          for (uint32_t j = 0; j <= depth; ++j)
            if (StateSetView below = ann->StatesAt(j, t.dst))
              below.ForEach([&](uint32_t r) { step.Clear(r); });
        } else {
          step &= next;
        }
        step.ForEach([&](uint32_t to) {
          if (res->budget_exhausted) return;
          prefix->push_back(t.edge);
          Run(t.dst, to, depth + 1);
          prefix->pop_back();
        });
        if (res->budget_exhausted) return;
      }
  }
};

}  // namespace naive_detail

/// Enumerates distinct shortest walks the naive way, against a frozen
/// snapshot (pure read; concurrency-safe like the trimmed pipeline).
/// \p max_paths caps the number of complete product paths generated
/// (the answer set can be exponential); NaiveResult::budget_exhausted
/// reports a truncated run.
inline NaiveResult NaiveDistinctShortestWalks(const Snapshot& snap,
                                              const Nfa& query,
                                              uint32_t source,
                                              uint32_t target,
                                              uint64_t max_paths = uint64_t{1}
                                                                   << 28) {
  NaiveResult res;
  Annotation ann = Annotate(snap, query, source, target);
  res.lambda = ann.lambda;
  if (!ann.reachable()) return res;

  const std::vector<StateSet> closures = query.EpsilonClosures();
  std::set<std::vector<uint32_t>> seen;
  std::vector<uint32_t> prefix;
  std::vector<StateSet> targets(static_cast<size_t>(ann.lambda),
                                StateSet(query.num_states()));
  naive_detail::Search search{&snap,     &ann, &query, &closures, target,
                              max_paths, &res, &seen,  &prefix,   &targets};
  // One search per initial state: a run fixes its starting state.
  query.initial().ForEach([&](uint32_t q0) {
    if (StateSetView l0 = ann.StatesAt(0, source); l0 && l0.Test(q0))
      search.Run(source, q0, 0);
  });
  return res;
}

}  // namespace dsw

#endif  // DSW_BASELINE_NAIVE_H_
