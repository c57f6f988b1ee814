// The execution-tier layer (core/query_traits.h, util/word_kernel.h):
//
//  - ClassifyQuery unit tests: the two tiers and the traits flag.
//  - Cross-kernel bit-identity: a one-word query (the single-word
//    kernels) and the same query with its states spread over 2 and 3
//    words (SpreadStates, workload/queries.h: the multi-word kernels)
//    must agree under the renumbering level for level, candidate for
//    candidate, B-list row for B-list row, answer for answer, SeekAfter
//    successor for successor — and op for op (OpStats).
//  - Engine per-tier prepare counters.

#include <gtest/gtest.h>

#include <algorithm>
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
#include "tests/plan_equality.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

// ------------------------------------------- equality under renumbering

// \p one (a one-word set) with every state q moved to
// SpreadState(q, words), as a (64 x words)-state set.
StateSet Spread(StateSetView one, uint32_t words) {
  StateSet out(64 * words);
  one.ForEach([&](uint32_t q) { out.Set(SpreadState(q, words)); });
  return out;
}

// True iff \p set has states in two different words.
bool CrossesWords(StateSetView set) {
  size_t nonzero = 0;
  for (size_t w = 0; w < set.num_words(); ++w) nonzero += set.words()[w] != 0;
  return nonzero >= 2;
}

void ExpectLevelSetsSpread(const LevelSets& one, const LevelSets& spread,
                           uint32_t words, const char* what,
                           uint32_t level) {
  SCOPED_TRACE(std::string(what) + " level " + std::to_string(level));
  ASSERT_EQ(one.words_per_set(), 1u);
  ASSERT_EQ(spread.words_per_set(), words);
  ASSERT_EQ(one.vertices(), spread.vertices());
  for (size_t i = 0; i < one.size(); ++i)
    ASSERT_EQ(std::memcmp(Spread(one.states(i), words).words(),
                          spread.states(i).words(), words * sizeof(uint64_t)),
              0)
        << "vertex " << one.vertex(i);
}

// The B-list row of state \p q: its rank among the useful states.
const uint32_t* BListRow(const TrimmedIndex::BList& b, uint32_t q) {
  uint32_t rank = 0;
  b.useful.ForEach([&](uint32_t p) { rank += p < q; });
  return b.nxt + static_cast<size_t>(rank) * (b.num_cand + 1);
}

void ExpectTrimmedSpread(const TrimmedIndex& one, const TrimmedIndex& spread,
                         uint32_t words, bool* crosses) {
  ASSERT_EQ(one.num_slots(), spread.num_slots());
  ASSERT_EQ(one.num_levels(), spread.num_levels());
  for (uint32_t l = 0; l < one.num_levels(); ++l) {
    const LevelSets& useful = spread.UsefulLevel(l);
    ExpectLevelSetsSpread(one.UsefulLevel(l), useful, words, "useful", l);
    for (size_t p = 0; p < useful.size(); ++p)
      *crosses = *crosses || CrossesWords(useful.states(p));
    if (l + 1 == one.num_levels()) continue;  // level lambda: no candidates
    for (size_t p = 0; p < one.UsefulLevel(l).size(); ++p) {
      auto ca = one.CandidatesAt(l, p);
      auto cb = spread.CandidatesAt(l, p);
      ASSERT_EQ(ca.size(), cb.size()) << "level " << l << " pos " << p;
      for (size_t c = 0; c < ca.size(); ++c) {
        EXPECT_EQ(ca[c].edge, cb[c].edge);
        EXPECT_EQ(ca[c].label, cb[c].label);
        EXPECT_EQ(ca[c].next_pos, cb[c].next_pos);
      }
      auto ra = one.RanksAt(l, p);
      auto rb = spread.RanksAt(l, p);
      EXPECT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
          << "seek ranks at level " << l << " pos " << p;
      TrimmedIndex::BList ba = one.BListAt(l, p);
      TrimmedIndex::BList bb = spread.BListAt(l, p);
      ASSERT_EQ(ba.num_cand, bb.num_cand);
      ba.useful.ForEach([&](uint32_t q) {
        EXPECT_EQ(std::memcmp(BListRow(ba, q),
                              BListRow(bb, SpreadState(q, words)),
                              (ba.num_cand + 1) * sizeof(uint32_t)),
                  0)
            << "B-list row of state " << q << " at level " << l << " pos "
            << p;
      });
    }
  }
}

// Drains up to \p cap answers. Answer sets can be huge (the Thompson
// family's layered graphs); a capped prefix compared on BOTH sides is
// still a bit-identity check — same cap, same claimed order.
std::vector<Walk> DrainAll(ResumableEnumerator* en, size_t cap = 1 << 14) {
  std::vector<Walk> walks;
  while (en->Valid() && walks.size() < cap) {
    walks.push_back(en->walk());
    en->Next();
  }
  return walks;
}

void ExpectSameStats(const ResumableEnumerator& a,
                     const ResumableEnumerator& b) {
  EXPECT_EQ(a.stats().seeks, b.stats().seeks);
  EXPECT_EQ(a.stats().cells, b.stats().cells);
  EXPECT_EQ(a.stats().row_ors, b.stats().row_ors);
  EXPECT_EQ(a.stats().probes, b.stats().probes);
}

// The cross-kernel oracle: the one-word \p query (single-word kernels)
// vs the same query spread over \p words words (SpreadStates; the
// multi-word kernels on the same problem). Under the renumbering the
// two plans must agree level for level, candidate for candidate,
// B-list row for B-list row (rows matched by state), answer for answer,
// op count for op count, and SeekAfter successor for successor.
// Sets *crosses iff some useful set of the spread plan has states in
// two different words, i.e. the multi-word loops ran past word 0.
void ExpectSpreadAgrees(Instance& inst, const Nfa& query, uint32_t words,
                        bool* crosses) {
  SCOPED_TRACE("words=" + std::to_string(words));
  *crosses = false;
  Snapshot snap = inst.db.Freeze();
  Annotation one_ann = Annotate(snap, query, inst.source, inst.target);
  Annotation spread_ann = Annotate(snap, SpreadStates(query, words),
                                   inst.source, inst.target);
  EXPECT_EQ(one_ann.words_per_set(), 1u);
  EXPECT_EQ(spread_ann.words_per_set(), words);
  ASSERT_EQ(one_ann.lambda, spread_ann.lambda);
  ASSERT_EQ(one_ann.levels.size(), spread_ann.levels.size());
  for (size_t i = 0; i < one_ann.levels.size(); ++i)
    ExpectLevelSetsSpread(one_ann.levels[i], spread_ann.levels[i], words,
                          "annotation", static_cast<uint32_t>(i));

  ResumableIndex one_index(snap, one_ann);
  ResumableIndex spread_index(snap, spread_ann);
  ExpectTrimmedSpread(one_index.trimmed(), spread_index.trimmed(), words,
                      crosses);
  ExpectSpansMatchSources(one_index);
  ExpectSpansMatchSources(spread_index);

  ResumableEnumerator one_en(one_ann, one_index, inst.source, inst.target);
  ResumableEnumerator spread_en(spread_ann, spread_index, inst.source,
                                inst.target);
  std::vector<Walk> one = DrainAll(&one_en);
  std::vector<Walk> spread = DrainAll(&spread_en);
  ASSERT_EQ(one.size(), spread.size());
  for (size_t i = 0; i < one.size(); ++i)
    ASSERT_EQ(one[i].edges, spread[i].edges) << "answer " << i;
  // The Theorem 2 op accounting must not depend on the kernel.
  ExpectSameStats(one_en, spread_en);

  // SeekAfter from (a sample of at most ~256) answers: both resume onto
  // the same successor with the same work.
  const size_t stride = std::max<size_t>(1, one.size() / 256);
  for (size_t i = 0; i < one.size(); i += stride) {
    ASSERT_TRUE(one_en.SeekAfter(one[i]));
    ASSERT_TRUE(spread_en.SeekAfter(one[i]));
    ASSERT_EQ(one_en.Valid(), spread_en.Valid()) << "anchor " << i;
    if (one_en.Valid()) {
      ASSERT_EQ(one_en.walk().edges, spread_en.walk().edges) << "anchor " << i;
    }
  }
  ExpectSameStats(one_en, spread_en);
}

// The oracle at 2 and 3 words; returns at how many of the two widths
// some useful set of the spread plan had states in two different words.
int ExpectKernelsAgree(Instance& inst, const Nfa& query) {
  bool two = false, three = false;
  ExpectSpreadAgrees(inst, query, 2, &two);
  ExpectSpreadAgrees(inst, query, 3, &three);
  return two + three;
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

// ---------------------------------------- cross-kernel bit-identity

// Each family asserts at how many widths a useful set's spread states
// fall in two different words, so the oracle cannot silently compare
// word 0 alone.

TEST(ExecTierTest, GridBitIdenticalAcrossKernels) {
  Instance inst = Grid(7, 9);
  EXPECT_EQ(ExpectKernelsAgree(inst, StaircaseNfa(1, 1)), 2);
}

TEST(ExecTierTest, BubbleChainBitIdenticalAcrossKernels) {
  Instance inst = BubbleChain(7, 2);
  EXPECT_EQ(ExpectKernelsAgree(inst, StaircaseNfa(2, 2)), 2);
}

TEST(ExecTierTest, DeadFanoutCertificatesBitIdenticalAcrossKernels) {
  // The dead-candidate B-list machinery: NextLive's non-full path must
  // probe identically in both kernel instantiations.
  Instance inst = DeadFanout(13, 4);
  EXPECT_EQ(ExpectKernelsAgree(inst, ForkChainNfa(4)), 2);
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
    EXPECT_EQ(ExpectKernelsAgree(inst, StaircaseNfa(2, 2)), 2);
  }
}

TEST(ExecTierTest, ThompsonEpsilonBitIdenticalAcrossKernels) {
  Instance inst = LayeredGraph({});
  RegexParseResult ast = ParseRegex(ContainsL0Regex(2));
  ASSERT_TRUE(ast.ok()) << ast.error();
  Nfa thompson = ThompsonNfa(*ast.value(), inst.db.mutable_dict());
  ASSERT_GT(thompson.num_epsilon_transitions(), 0u);
  // At 2 words every useful set of this query stays in one word.
  EXPECT_EQ(ExpectKernelsAgree(inst, thompson), 1);
}

TEST(ExecTierTest, UnreachableTargetBitIdenticalAcrossKernels) {
  Instance inst = DeadFanout(4, 3);
  Nfa query(2);
  query.AddInitial(0);
  query.AddFinal(1);
  query.AddTransition(0, 1u, 1);  // demands an l1 step the data lacks
  query.AddTransition(1, 1u, 1);
  EXPECT_EQ(ExpectKernelsAgree(inst, query), 0);  // lambda = -1: no sets
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
