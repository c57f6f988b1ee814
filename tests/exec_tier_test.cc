// The execution-tier layer (core/query_traits.h, util/word_kernel.h):
//
//  - ClassifyQuery unit tests: the two tiers and the traits flag.
//  - Cross-tier bit-identity: the collapsed single-word kernels vs the
//    generic multi-word loops forced onto the same one-word query's
//    whole plan (AnnotateOptions::force_multi_word) must agree level
//    for level, candidate for candidate, B-list row for B-list row,
//    answer for answer — and probe for probe (OpStats). Queries over 64
//    states exercise the genuinely-multi-word path.
//  - Engine per-tier prepare counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "automaton/thompson.h"
#include "core/annotate.h"
#include "core/query_traits.h"
#include "core/resumable_enumerator.h"
#include "core/resumable_index.h"
#include "core/trimmed_index.h"
#include "engine/engine.h"
#include "regex/regex_parser.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

// ------------------------------------------------------- bit equality

void ExpectLevelSetsEqual(const LevelSets& a, const LevelSets& b,
                          const char* what, uint32_t level) {
  SCOPED_TRACE(std::string(what) + " level " + std::to_string(level));
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.words_per_set(), b.words_per_set());
  ASSERT_EQ(a.vertices(), b.vertices());
  for (size_t i = 0; i < a.size(); ++i) {
    StateSetView av = a.states(i);
    StateSetView bv = b.states(i);
    ASSERT_EQ(av.num_words(), bv.num_words());
    for (size_t w = 0; w < av.num_words(); ++w)
      ASSERT_EQ(av.words()[w], bv.words()[w])
          << "vertex " << a.vertex(i) << " word " << w;
  }
}

void ExpectAnnotationsEqual(const Annotation& a, const Annotation& b) {
  ASSERT_EQ(a.lambda, b.lambda);
  ASSERT_EQ(a.num_states, b.num_states);
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (size_t i = 0; i < a.levels.size(); ++i)
    ExpectLevelSetsEqual(a.levels[i], b.levels[i], "annotation",
                         static_cast<uint32_t>(i));
}

void ExpectTrimmedEqual(const TrimmedIndex& a, const TrimmedIndex& b) {
  ASSERT_EQ(a.num_slots(), b.num_slots());
  ASSERT_EQ(a.num_levels(), b.num_levels());
  ASSERT_EQ(a.words_per_set(), b.words_per_set());
  for (uint32_t l = 0; l < a.num_levels(); ++l) {
    ExpectLevelSetsEqual(a.UsefulLevel(l), b.UsefulLevel(l), "useful", l);
    if (l + 1 == a.num_levels()) continue;  // level lambda: no candidates
    for (size_t p = 0; p < a.UsefulLevel(l).size(); ++p) {
      auto ca = a.CandidatesAt(l, p);
      auto cb = b.CandidatesAt(l, p);
      ASSERT_EQ(ca.size(), cb.size()) << "level " << l << " pos " << p;
      for (size_t c = 0; c < ca.size(); ++c) {
        EXPECT_EQ(ca[c].edge, cb[c].edge);
        EXPECT_EQ(ca[c].dst, cb[c].dst);
        EXPECT_EQ(ca[c].label, cb[c].label);
        EXPECT_EQ(ca[c].next_pos, cb[c].next_pos);
      }
      TrimmedIndex::BList ba = a.BListAt(l, p);
      TrimmedIndex::BList bb = b.BListAt(l, p);
      ASSERT_EQ(ba.num_cand, bb.num_cand);
      const size_t rows = ba.useful.Count();
      ASSERT_EQ(rows, static_cast<size_t>(bb.useful.Count()));
      ASSERT_EQ(std::memcmp(ba.nxt, bb.nxt,
                            rows * (ba.num_cand + 1) * sizeof(uint32_t)),
                0)
          << "B-list block differs at level " << l << " pos " << p;
    }
  }
}

// Drains up to \p cap answers. Answer sets can be huge (the Thompson
// family's layered graphs); a capped prefix compared on BOTH sides is
// still a bit-identity check — same cap, same claimed order.
template <typename Enumerator>
std::vector<Walk> DrainAll(Enumerator* en, size_t cap = 1 << 14) {
  std::vector<Walk> walks;
  while (en->Valid() && walks.size() < cap) {
    walks.push_back(en->walk());
    en->Next();
  }
  return walks;
}

void ExpectSameWalks(const std::vector<Walk>& a, const std::vector<Walk>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i].edges, b[i].edges) << "answer " << i;
}

// The whole cross-tier oracle: default (single-word for one-word
// queries) vs a plan built with AnnotateOptions::force_multi_word —
// annotation, trimmed structure, enumeration sequence, op accounting.
// The setting is recorded on the annotation, so the forced plan's trim
// sweep and enumerator run the multi-word kernels too.
void ExpectTiersBitIdentical(Instance& inst, const Nfa& query) {
  Snapshot snap = inst.db.Freeze();
  Annotation fast_ann = Annotate(snap, query, inst.source, inst.target);
  AnnotateOptions forced;
  forced.force_multi_word = true;
  Annotation slow_ann =
      Annotate(snap, query, inst.source, inst.target, forced);
  EXPECT_EQ(fast_ann.single_word(), fast_ann.words_per_set() == 1);
  EXPECT_FALSE(slow_ann.single_word());
  ExpectAnnotationsEqual(fast_ann, slow_ann);

  ResumableIndex fast_index(snap, fast_ann);
  ResumableIndex slow_index(snap, slow_ann);
  ExpectTrimmedEqual(fast_index.trimmed(), slow_index.trimmed());

  ResumableEnumerator fast_en(fast_ann, fast_index, inst.source,
                              inst.target);
  ResumableEnumerator slow_en(slow_ann, slow_index, inst.source,
                              inst.target);
  std::vector<Walk> fast = DrainAll(&fast_en);
  std::vector<Walk> slow = DrainAll(&slow_en);
  ExpectSameWalks(fast, slow);
  // The Theorem 2 op accounting must not depend on the kernel tier.
  EXPECT_EQ(fast_en.stats().row_ors, slow_en.stats().row_ors);
  EXPECT_EQ(fast_en.stats().probes, slow_en.stats().probes);
  EXPECT_EQ(fast_en.stats().total(), slow_en.stats().total());

  // SeekAfter mid-sequence: both tiers resume onto the same successor.
  if (fast.size() >= 2) {
    const Walk& anchor = fast[fast.size() / 2];
    ASSERT_TRUE(fast_en.SeekAfter(anchor));
    ASSERT_TRUE(slow_en.SeekAfter(anchor));
    ASSERT_EQ(fast_en.Valid(), slow_en.Valid());
    if (fast_en.Valid()) {
      EXPECT_EQ(fast_en.walk().edges, slow_en.walk().edges);
    }
  }
}

// ------------------------------------------------------ classification

// The tier follows the query's state count alone: neither the data's
// labels nor the query's determinism or epsilon moves enter it.
TEST(QueryTraitsTest, MultiLabelDataIsSingleWordNotSimple) {
  Instance inst = BubbleChain(5, 2);  // top l0, bottom l1
  Snapshot snap = inst.db.Freeze();
  QueryTraits traits = ClassifyQuery(snap, AnyKDfa(10, 2));
  EXPECT_EQ(traits.tier, ExecTier::kSingleWord);
  EXPECT_TRUE(traits.single_word);
}

TEST(QueryTraitsTest, NondeterministicQueryIsNotSimple) {
  Instance inst = Grid(4, 4);  // single-labeled
  Snapshot snap = inst.db.Freeze();
  Nfa staircase = StaircaseNfa(2, 1);  // loop + advance on one label
  EXPECT_EQ(ClassifyQuery(snap, staircase).tier, ExecTier::kSingleWord);
}

TEST(QueryTraitsTest, EpsilonQueryIsNotSimple) {
  Instance inst = Grid(4, 4);
  Snapshot snap = inst.db.Freeze();
  RegexParseResult ast = ParseRegex(ContainsL0Regex(1));
  ASSERT_TRUE(ast.ok()) << ast.error();
  Nfa thompson = ThompsonNfa(*ast.value(), inst.db.mutable_dict());
  ASSERT_GT(thompson.num_epsilon_transitions(), 0u);
  EXPECT_EQ(ClassifyQuery(snap, thompson).tier, ExecTier::kSingleWord);
}

TEST(QueryTraitsTest, Over64StatesIsGeneral) {
  Instance inst = BubbleChain(4, 2);
  Snapshot snap = inst.db.Freeze();
  Nfa big = StaircaseNfa(70, 2);  // 71 states: two words per set
  QueryTraits traits = ClassifyQuery(snap, big);
  EXPECT_EQ(traits.tier, ExecTier::kGeneral);
  EXPECT_FALSE(traits.single_word);
}

TEST(ExecTierTest, TierNames) {
  EXPECT_STREQ(ExecTierName(ExecTier::kSingleWord), "single_word");
  EXPECT_STREQ(ExecTierName(ExecTier::kGeneral), "general");
}

// ---------------------------------------- cross-tier bit-identity

TEST(ExecTierTest, GridBitIdenticalAcrossKernels) {
  Instance inst = Grid(7, 9);
  ExpectTiersBitIdentical(inst, StaircaseNfa(1, 1));
}

TEST(ExecTierTest, BubbleChainBitIdenticalAcrossKernels) {
  Instance inst = BubbleChain(7, 2);
  ExpectTiersBitIdentical(inst, StaircaseNfa(2, 2));
}

TEST(ExecTierTest, DeadFanoutCertificatesBitIdenticalAcrossKernels) {
  // The dead-candidate B-list machinery: NextLive's non-full path must
  // probe identically in both kernel instantiations.
  Instance inst = DeadFanout(13, 4);
  ExpectTiersBitIdentical(inst, ForkChainNfa(4));
}

TEST(ExecTierTest, LayeredGraphBitIdenticalAcrossKernels) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    LayeredGraphParams params;
    params.layers = 6;
    params.width = 12;
    params.edges_per_vertex = 3;
    params.seed = seed;
    Instance inst = LayeredGraph(params);
    ExpectTiersBitIdentical(inst, StaircaseNfa(2, 2));
  }
}

TEST(ExecTierTest, ThompsonEpsilonBitIdenticalAcrossKernels) {
  Instance inst = LayeredGraph({});
  RegexParseResult ast = ParseRegex(ContainsL0Regex(2));
  ASSERT_TRUE(ast.ok()) << ast.error();
  Nfa thompson = ThompsonNfa(*ast.value(), inst.db.mutable_dict());
  ASSERT_GT(thompson.num_epsilon_transitions(), 0u);
  ExpectTiersBitIdentical(inst, thompson);
}

TEST(ExecTierTest, Over64StatesRunsMultiWordEitherWay) {
  // wps = 2: force_multi_word is a no-op by construction, and the
  // genuinely multi-word instantiation must still be self-consistent.
  Instance inst = BubbleChain(4, 2);
  Nfa big = StaircaseNfa(70, 2);
  ASSERT_GT(big.num_states(), 64u);
  ExpectTiersBitIdentical(inst, big);
}

TEST(ExecTierTest, UnreachableTargetBitIdenticalAcrossKernels) {
  Instance inst = DeadFanout(4, 3);
  Nfa query(2);
  query.AddInitial(0);
  query.AddFinal(1);
  query.AddTransition(0, 1u, 1);  // demands an l1 step the data lacks
  query.AddTransition(1, 1u, 1);
  ExpectTiersBitIdentical(inst, query);
}

// --------------------------------------------------- engine counters

TEST(ExecTierTest, EnginePerTierPrepareCounters) {
  Instance inst = Grid(4, 4);
  QueryEngine engine(2);
  engine.InstallSnapshot(inst.db.Freeze());

  engine.Prepare(AnyKDfa(6, 1), inst.source, inst.target);      // 1-word
  engine.Prepare(StaircaseNfa(2, 1), inst.source, inst.target);   // 1-word
  engine.Prepare(StaircaseNfa(70, 1), inst.source, inst.target);  // general
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.tier_single_word, 2u);
  EXPECT_EQ(stats.tier_general, 1u);

  // Cache hits count too: the counters tally plans handed out.
  engine.Prepare(AnyKDfa(6, 1), inst.source, inst.target);
  stats = engine.Stats();
  EXPECT_EQ(stats.tier_single_word, 3u);
  EXPECT_EQ(stats.plan_cache.hits, 1u);

  // One count per source, hit or built.
  for (uint32_t s : {inst.source, 1u, 2u})
    engine.Prepare(AnyKDfa(6, 1), s, inst.target);
  stats = engine.Stats();
  EXPECT_EQ(stats.tier_single_word, 6u);
  EXPECT_EQ(stats.tier_general, 1u);
}

}  // namespace
}  // namespace dsw
