// Property tests for the label-stratified rewrite of annotate/trim: on
// random graphs, the word-parallel product BFS must produce annotations
// that are *level-for-level identical* (level lambda at the target) to
// an independent map-based reference (the shape of the original
// implementation: per-edge label filtering over TransitionLists,
// explicit epsilon saturation), and the full pipeline must enumerate
// exactly the naive baseline's answer set — including epsilon-NFA
// (Thompson) queries compiled from regexes.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "automaton/glushkov.h"
#include "automaton/thompson.h"
#include "baseline/naive.h"
#include "core/annotate.h"
#include "core/resumable_index.h"
#include "regex/regex_parser.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

struct RefAnnotation {
  int32_t lambda = -1;
  std::vector<std::map<uint32_t, std::set<uint32_t>>> levels;
};

// Independent reference: unordered product BFS over the raw Nfa,
// scanning TransitionLists per edge and saturating epsilon-closures per
// level — no CompiledDelta, no LabelIndex, no LevelSets.
RefAnnotation RefAnnotate(const Database& db, const Nfa& nfa, uint32_t s,
                          uint32_t t) {
  RefAnnotation ref;
  if (s >= db.num_vertices() || t >= db.num_vertices() ||
      nfa.num_states() == 0 || nfa.initial().None())
    return ref;
  std::vector<StateSet> closures;
  if (nfa.has_epsilon()) closures = nfa.EpsilonClosures();
  std::vector<std::vector<uint32_t>> out(db.num_vertices());  // edge ids
  for (uint32_t e = 0; e < db.num_edges(); ++e) out[db.src(e)].push_back(e);

  std::set<std::pair<uint32_t, uint32_t>> seen;
  std::map<uint32_t, std::set<uint32_t>> frontier;
  std::set<uint32_t> init;
  nfa.initial().ForEach([&](uint32_t q) { init.insert(q); });
  if (!closures.empty()) {
    std::set<uint32_t> closed;
    for (uint32_t q : init)
      closures[q].ForEach([&](uint32_t r) { closed.insert(r); });
    init = std::move(closed);
  }
  for (uint32_t q : init) seen.emplace(s, q);
  frontier.emplace(s, std::move(init));

  while (!frontier.empty()) {
    ref.levels.push_back(frontier);
    const auto& current = ref.levels.back();
    if (auto it = current.find(t); it != current.end())
      for (uint32_t q : it->second)
        if (nfa.IsFinal(q)) {
          ref.lambda = static_cast<int32_t>(ref.levels.size() - 1);
          return ref;
        }

    std::map<uint32_t, std::set<uint32_t>> next;
    for (const auto& [v, states] : current)
      for (uint32_t e : out[v]) {
        const Edge& edge = db.edge(e);
        for (uint32_t q : states)
          for (const auto& [label, to] : nfa.Transitions(q)) {
            if (label != edge.label) continue;
            auto reach = [&](uint32_t r) {
              if (seen.emplace(edge.dst, r).second) next[edge.dst].insert(r);
            };
            if (closures.empty())
              reach(to);
            else
              closures[to].ForEach(reach);
          }
      }
    frontier = std::move(next);
  }
  ref.levels.clear();
  return ref;
}

// Level lambda is compared at the target only: the annotation keeps
// just the target's entry there, the one the trim reads.
void ExpectAnnotationMatchesReference(Instance& inst, const Nfa& nfa,
                                      const char* what) {
  SCOPED_TRACE(what);
  Annotation ann = Annotate(inst.db.Freeze(), nfa, inst.source, inst.target);
  RefAnnotation ref = RefAnnotate(inst.db, nfa, inst.source, inst.target);
  ASSERT_EQ(ann.lambda, ref.lambda);
  ASSERT_EQ(ann.levels.size(), ref.levels.size());
  if (ref.lambda >= 0) {
    auto& last = ref.levels.back();
    std::erase_if(last, [&](const auto& entry) {
      return entry.first != inst.target;
    });
  }
  for (size_t i = 0; i < ref.levels.size(); ++i) {
    const LevelSets& level = ann.levels[i];
    ASSERT_EQ(level.size(), ref.levels[i].size()) << "level " << i;
    size_t pos = 0;
    for (const auto& [v, states] : ref.levels[i]) {
      EXPECT_EQ(level.vertex(pos), v) << "level " << i;
      std::set<uint32_t> got;
      level.states(pos).ForEach([&](uint32_t q) { got.insert(q); });
      EXPECT_EQ(got, states) << "level " << i << " vertex " << v;
      ++pos;
    }
  }
}

std::set<std::vector<uint32_t>> PipelineAnswers(Instance& inst,
                                                const Nfa& nfa) {
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, nfa, inst.source, inst.target);
  ResumableIndex index(snap, ann);
  std::set<std::vector<uint32_t>> walks;
  size_t emitted = 0;
  for (ResumableEnumerator en(ann, index, inst.source, inst.target);
       en.Valid(); en.Next()) {
    ++emitted;
    walks.insert(en.walk().edges);
  }
  EXPECT_EQ(emitted, walks.size()) << "duplicate walk emitted";
  return walks;
}

std::set<std::vector<uint32_t>> NaiveAnswers(Instance& inst,
                                             const Nfa& nfa) {
  NaiveResult naive = NaiveDistinctShortestWalks(inst.db.Freeze(), nfa,
                                                 inst.source, inst.target);
  EXPECT_FALSE(naive.budget_exhausted);
  std::set<std::vector<uint32_t>> walks;
  for (const Walk& w : naive.walks) walks.insert(w.edges);
  return walks;
}

std::vector<Instance> RandomInstances() {
  std::vector<Instance> out;
  for (uint64_t seed : {5u, 13u, 29u, 47u}) {
    LayeredGraphParams params;
    params.layers = 3 + seed % 4;
    params.width = 3 + seed % 3;
    params.edges_per_vertex = 2 + seed % 2;
    params.num_labels = 2;
    params.extra_labels = 1;
    params.multi_label_p = 0.35;
    params.seed = seed;
    out.push_back(LayeredGraph(params));
  }
  out.push_back(Grid(4, 4));
  out.push_back(BubbleChain(4, 2));
  out.push_back(EmbedInNoise(BubbleChain(3, 2), 30, 120, 19));
  return out;
}

TEST(StratifiedPipelineTest, AnnotationMatchesReferenceLevelForLevel) {
  for (Instance& inst : RandomInstances()) {
    ExpectAnnotationMatchesReference(inst, StaircaseNfa(1, 2), "staircase1");
    ExpectAnnotationMatchesReference(inst, StaircaseNfa(3, 2), "staircase3");
    ExpectAnnotationMatchesReference(inst, CompleteNfa(3, 2), "complete3");
    ExpectAnnotationMatchesReference(inst, AnyKDfa(3, 2), "anyk3");
  }
}

TEST(StratifiedPipelineTest, AnnotationMatchesReferenceOnThompsonNfas) {
  RegexParseResult ast = ParseRegex(ContainsL0Regex(2));
  ASSERT_TRUE(ast.ok()) << ast.error();
  for (Instance& inst : RandomInstances()) {
    Nfa thompson = ThompsonNfa(*ast.value(), inst.db.mutable_dict());
    ASSERT_TRUE(thompson.has_epsilon());
    ExpectAnnotationMatchesReference(inst, thompson, "thompson-contains-l0");
  }
}

TEST(StratifiedPipelineTest, PipelineMatchesNaiveOnRandomGraphs) {
  for (Instance& inst : RandomInstances()) {
    for (const Nfa& nfa : {StaircaseNfa(1, 2), StaircaseNfa(2, 2),
                           CompleteNfa(3, 2)}) {
      std::set<std::vector<uint32_t>> trimmed = PipelineAnswers(inst, nfa);
      std::set<std::vector<uint32_t>> naive = NaiveAnswers(inst, nfa);
      EXPECT_EQ(trimmed, naive);
    }
  }
}

TEST(StratifiedPipelineTest, ThompsonAndGlushkovAgreeWithNaive) {
  // Epsilon path end-to-end: the Thompson pipeline, the Glushkov
  // pipeline, the naive oracle over the (epsilon-free) Glushkov NFA and
  // — on these small instances — the naive oracle over the Thompson NFA
  // itself must all return the same answer set.
  RegexParseResult ast = ParseRegex(ContainsL0Regex(2));
  ASSERT_TRUE(ast.ok()) << ast.error();
  for (Instance& inst : RandomInstances()) {
    Nfa thompson = ThompsonNfa(*ast.value(), inst.db.mutable_dict());
    Nfa glushkov = GlushkovNfa(*ast.value(), inst.db.mutable_dict());
    std::set<std::vector<uint32_t>> via_thompson =
        PipelineAnswers(inst, thompson);
    EXPECT_EQ(via_thompson, PipelineAnswers(inst, glushkov));
    EXPECT_EQ(via_thompson, NaiveAnswers(inst, glushkov));
    EXPECT_EQ(via_thompson, NaiveAnswers(inst, thompson));
  }
}

}  // namespace
}  // namespace dsw
