// Property tests for the regex front-end as a whole: on random
// LayeredGraph and Grid instances, the Thompson (epsilon) and Glushkov
// (epsilon-free) compilations of the same regex must drive the pipeline
// to the *same* lambda and the same set of distinct shortest walks —
// the Section 5.1 claim that epsilon handling is free. The naive
// product-path baseline over the Glushkov NFA (epsilon-free, so it uses
// the original code path) is the independent oracle; running it over
// the Thompson NFA additionally exercises the epsilon-aware effective
// steps of the Annotation snapshot.
//
// A size check pins the translation bounds: Thompson's transition count
// (labeled + epsilon) grows linearly in the alphabet size m of the E9
// regex family, Glushkov's quadratically.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
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

struct PipelineResult {
  int32_t lambda;
  std::set<std::vector<uint32_t>> walks;
};

PipelineResult RunPipeline(Instance& inst, const Nfa& nfa) {
  PipelineResult res;
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, nfa, inst.source, inst.target);
  res.lambda = ann.lambda;
  ResumableIndex index(snap, ann);
  size_t emitted = 0;
  for (ResumableEnumerator en(ann, index, inst.source, inst.target);
       en.Valid(); en.Next()) {
    ++emitted;
    EXPECT_TRUE(res.walks.insert(en.walk().edges).second)
        << "duplicate walk emitted";
  }
  EXPECT_EQ(emitted, res.walks.size());
  return res;
}

void ExpectFrontEndsAgree(Instance& inst, const std::string& pattern,
                          bool check_naive_oracle = true) {
  SCOPED_TRACE(pattern);
  RegexParseResult ast = ParseRegex(pattern);
  ASSERT_TRUE(ast.ok()) << ast.error();

  LabelDictionary* dict = inst.db.mutable_dict();
  Nfa thompson = ThompsonNfa(*ast.value(), dict);
  Nfa glushkov = GlushkovNfa(*ast.value(), dict);
  ASSERT_EQ(glushkov.num_epsilon_transitions(), 0u);

  PipelineResult via_thompson = RunPipeline(inst, thompson);
  PipelineResult via_glushkov = RunPipeline(inst, glushkov);
  EXPECT_EQ(via_thompson.lambda, via_glushkov.lambda);
  EXPECT_EQ(via_thompson.walks.size(), via_glushkov.walks.size());
  EXPECT_EQ(via_thompson.walks, via_glushkov.walks);

  if (!check_naive_oracle) return;  // skip when the answer set is huge
  // The oracle runs on the epsilon-free Glushkov NFA: naive explores
  // individual runs, and over an epsilon-NFA every closure member is a
  // distinct run, which blows up exponentially in lambda. (A dedicated
  // small-instance test below covers naive's epsilon-aware path.)
  NaiveResult naive = NaiveDistinctShortestWalks(inst.db.Freeze(), glushkov,
                                                 inst.source, inst.target);
  ASSERT_FALSE(naive.budget_exhausted);
  EXPECT_EQ(naive.lambda, via_glushkov.lambda);
  std::set<std::vector<uint32_t>> naive_set;
  for (const Walk& w : naive.walks) naive_set.insert(w.edges);
  EXPECT_EQ(naive_set, via_glushkov.walks);
}

TEST(FrontendEquivalenceTest, AgreeOnRandomLayeredGraphs) {
  for (uint64_t seed : {5u, 13u, 29u, 47u, 61u}) {
    LayeredGraphParams params;
    params.layers = 3 + seed % 3;
    params.width = 3 + seed % 2;
    params.edges_per_vertex = 2 + seed % 2;
    params.num_labels = 2 + seed % 2;
    params.seed = seed;
    Instance inst = LayeredGraph(params);
    ExpectFrontEndsAgree(inst, ContainsL0Regex(params.num_labels));
    ExpectFrontEndsAgree(inst, "(l0|l1)* l1 (l0|l1)?");
    ExpectFrontEndsAgree(inst, "(l0|l1)+ (l0 l1)* l0*");
  }
}

TEST(FrontendEquivalenceTest, AgreeOnGrids) {
  for (uint32_t n = 2; n <= 4; ++n) {
    Instance inst = Grid(n, n);
    ExpectFrontEndsAgree(inst, "l0*");
    ExpectFrontEndsAgree(inst, "l0 l0+");
    ExpectFrontEndsAgree(inst, "(l0 l0)* l0?");
  }
}

TEST(FrontendEquivalenceTest, AgreeOnBubbleChains) {
  for (uint32_t k = 1; k <= 5; ++k) {
    Instance inst = BubbleChain(k, 2);
    ExpectFrontEndsAgree(inst, "(l0|l1)*");
    ExpectFrontEndsAgree(inst, "(l0|l1)* l1 (l0|l1)*");
  }
}

TEST(FrontendEquivalenceTest, EpsilonHeavyRegexesStillAgree) {
  // Nested stars and optionals produce epsilon-cycles in Thompson's
  // automaton; closure saturation must terminate and stay equivalent.
  Instance inst = BubbleChain(3, 2);
  ExpectFrontEndsAgree(inst, "(l0* l1*)*");
  ExpectFrontEndsAgree(inst, "((l0|l1)?)+");
  ExpectFrontEndsAgree(inst, "(l0+|l1+)*");
}

TEST(FrontendEquivalenceTest, ThompsonLinearGlushkovQuadratic) {
  // Transition totals of the E9 family, |R| = 2m + 1 atoms: doubling m
  // should roughly double Thompson's total but roughly quadruple
  // Glushkov's.
  LabelDictionary dict;
  auto totals = [&dict](uint32_t m) {
    RegexParseResult ast = ParseRegex(ContainsL0Regex(m));
    EXPECT_TRUE(ast.ok());
    Nfa t = ThompsonNfa(*ast.value(), &dict);
    Nfa g = GlushkovNfa(*ast.value(), &dict);
    EXPECT_EQ(t.num_transitions(), 2 * m + 1);  // one per atom occurrence
    return std::pair<size_t, size_t>(
        t.num_transitions() + t.num_epsilon_transitions(),
        g.num_transitions() + g.num_epsilon_transitions());
  };
  auto [t16, g16] = totals(16);
  auto [t32, g32] = totals(32);
  auto [t64, g64] = totals(64);
  EXPECT_LT(t32, t16 * 3);  // ~2x: linear
  EXPECT_LT(t64, t32 * 3);
  EXPECT_GT(g32, g16 * 3);  // ~4x: quadratic
  EXPECT_GT(g64, g32 * 3);
  EXPECT_GT(g64, t64 * 4);  // and the gap is wide at m = 64
}

TEST(FrontendEquivalenceTest, NaiveBaselineHandlesEpsilonNfas) {
  // Small instance (lambda = 4) so the run blow-up stays tiny: the
  // epsilon-aware naive search over the Thompson NFA must find the same
  // walk set as the trimmed pipeline.
  Instance inst = BubbleChain(2, 2);
  RegexParseResult ast = ParseRegex("(l0|l1)* l1 (l0|l1)*");
  ASSERT_TRUE(ast.ok());
  Nfa thompson = ThompsonNfa(*ast.value(), inst.db.mutable_dict());
  ASSERT_TRUE(thompson.has_epsilon());
  PipelineResult trimmed = RunPipeline(inst, thompson);

  NaiveResult naive = NaiveDistinctShortestWalks(inst.db.Freeze(), thompson,
                                                 inst.source, inst.target);
  ASSERT_FALSE(naive.budget_exhausted);
  EXPECT_EQ(naive.lambda, trimmed.lambda);
  std::set<std::vector<uint32_t>> naive_set;
  for (const Walk& w : naive.walks) naive_set.insert(w.edges);
  EXPECT_EQ(naive_set, trimmed.walks);
}

TEST(FrontendEquivalenceTest, RepeatedCompilationIsStable) {
  // bench_regex recompiles the regex against the live database inside
  // the timed loop; interning must be idempotent so every compilation
  // yields the identical automaton and answer count.
  Instance inst = BubbleChain(3, 2);
  RegexParseResult ast = ParseRegex("(l0|l1)* l0 (l0|l1)*");
  ASSERT_TRUE(ast.ok());
  uint32_t dict_size_before = inst.db.labels().size();
  size_t first_count = 0;
  for (int round = 0; round < 3; ++round) {
    Nfa nfa = ThompsonNfa(*ast.value(), inst.db.mutable_dict());
    PipelineResult res = RunPipeline(inst, nfa);
    if (round == 0)
      first_count = res.walks.size();
    else
      EXPECT_EQ(res.walks.size(), first_count);
    EXPECT_EQ(inst.db.labels().size(), dict_size_before);
  }
  EXPECT_GT(first_count, 0u);
}

}  // namespace
}  // namespace dsw
