// Property test: on randomized small instances, the trimmed enumerator
// must agree with the naive product-path baseline as a *set* of walks,
// emit zero duplicates, and emit only walks of length lambda. The naive
// baseline is independent enough (it never builds the trimmed structure
// and dedupes by brute force) to serve as the oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "baseline/naive.h"
#include "core/annotate.h"
#include "core/resumable_index.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

void ExpectTrimmedMatchesNaive(Instance& inst, const Nfa& query,
                               const char* what) {
  SCOPED_TRACE(what);
  Snapshot snap = inst.db.Freeze();
  NaiveResult naive = NaiveDistinctShortestWalks(snap, query, inst.source,
                                                 inst.target);
  ASSERT_FALSE(naive.budget_exhausted);

  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ResumableIndex index(snap, ann);
  EXPECT_EQ(ann.lambda, naive.lambda);

  std::set<std::vector<uint32_t>> trimmed_set;
  size_t emitted = 0;
  for (ResumableEnumerator en(ann, index, inst.source, inst.target);
       en.Valid(); en.Next()) {
    ++emitted;
    EXPECT_EQ(en.walk().length(), static_cast<size_t>(ann.lambda));
    trimmed_set.insert(en.walk().edges);
  }
  EXPECT_EQ(emitted, trimmed_set.size()) << "trimmed emitted duplicates";

  std::set<std::vector<uint32_t>> naive_set;
  for (const Walk& w : naive.walks) naive_set.insert(w.edges);
  EXPECT_EQ(trimmed_set, naive_set);
}

TEST(EnumeratorPropertyTest, MatchesNaiveOnBubbleChains) {
  for (uint32_t k = 1; k <= 6; ++k) {
    Instance inst = BubbleChain(k, 2);
    ExpectTrimmedMatchesNaive(inst, StaircaseNfa(1, 2), "staircase1");
    ExpectTrimmedMatchesNaive(inst, StaircaseNfa(2, 2), "staircase2");
    ExpectTrimmedMatchesNaive(inst, CompleteNfa(3, 2), "complete3");
  }
}

TEST(EnumeratorPropertyTest, MatchesNaiveOnRandomLayeredGraphs) {
  for (uint64_t seed : {3u, 7u, 11u, 19u, 23u, 31u, 43u, 59u}) {
    LayeredGraphParams params;
    params.layers = 3 + seed % 3;
    params.width = 3 + seed % 2;
    params.edges_per_vertex = 2 + seed % 2;
    params.num_labels = 2;
    params.extra_labels = 1;
    params.multi_label_p = 0.4;
    params.seed = seed;
    Instance inst = LayeredGraph(params);
    ExpectTrimmedMatchesNaive(inst, StaircaseNfa(1, 2), "staircase1");
    ExpectTrimmedMatchesNaive(inst, StaircaseNfa(2, 2), "staircase2");
  }
}

TEST(EnumeratorPropertyTest, MatchesNaiveOnGrids) {
  for (uint32_t n = 2; n <= 4; ++n) {
    Instance inst = Grid(n, n);
    ExpectTrimmedMatchesNaive(inst, StaircaseNfa(1, 1), "staircase1");
    ExpectTrimmedMatchesNaive(inst, AnyKDfa(2 * (n - 1), 1), "anyk");
  }
}

TEST(EnumeratorPropertyTest, NaiveCountsDuplicatesTrimmedAvoids) {
  // BubbleChain(4) under the width-2 staircase: 16 answers, each with
  // C(8, 2) = 28 accepting runs; the naive baseline must report the
  // excess as duplicates while the trimmed enumerator emits 16 walks.
  Instance inst = BubbleChain(4, 2);
  Nfa query = StaircaseNfa(2, 2);
  Snapshot snap = inst.db.Freeze();
  NaiveResult naive = NaiveDistinctShortestWalks(snap, query, inst.source,
                                                 inst.target);
  EXPECT_EQ(naive.walks.size(), 16u);
  EXPECT_EQ(naive.duplicates, 16u * 28 - 16u);

  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ResumableIndex index(snap, ann);
  size_t emitted = 0;
  for (ResumableEnumerator en(ann, index, inst.source, inst.target);
       en.Valid(); en.Next())
    ++emitted;
  EXPECT_EQ(emitted, 16u);
}

TEST(EnumeratorPropertyTest, NoiseEmbeddingPreservesTheAnswerSet) {
  Instance core = BubbleChain(5, 2);
  Nfa query = StaircaseNfa(1, 2);
  NaiveResult base = NaiveDistinctShortestWalks(core.db.Freeze(), query,
                                                core.source, core.target);
  Instance noisy = EmbedInNoise(core, 50, 200, 41);
  ASSERT_GT(noisy.db.size(), core.db.size());
  ExpectTrimmedMatchesNaive(noisy, query, "noisy");
  NaiveResult after = NaiveDistinctShortestWalks(noisy.db.Freeze(), query,
                                                 noisy.source, noisy.target);
  EXPECT_EQ(after.walks.size(), base.walks.size());
  EXPECT_EQ(after.lambda, base.lambda);
}

}  // namespace
}  // namespace dsw
