// The Theorem 2 certificate machinery, pinned from three sides:
//
//  1. Structure: TrimmedIndex::BList answers "first candidate >= c
//     usable from q" exactly as a trial AdvanceStates scan would, for
//     every useful (level, vertex, state) slot.
//  2. Delay: per-output operation counts (delta-row ORs + certificate
//     probes, timer-free) respect the worst-case O(lambda x |A|) bound
//     — row_ors <= lambda x |Q| and probes <= (2 lambda + 1) x |Q|
//     between any two outputs — and stay *flat* on the adversarial
//     dead-candidate family as the fanout grows 4 -> 512, where the
//     pre-certificate trial-filter baseline degrades linearly.
//  3. Order: the certificate enumerator (ResumableEnumerator) and the
//     pre-change trial-filter enumerator emit byte-identical answer
//     sequences on the property-suite workload families
//     (answer-for-answer compatibility of the refactor).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "automaton/glushkov.h"
#include "automaton/thompson.h"
#include "baseline/trial_filter_enumerator.h"
#include "core/annotate.h"
#include "core/resumable_index.h"
#include "core/trimmed_index.h"
#include "regex/regex_parser.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

using WalkSeq = std::vector<std::vector<uint32_t>>;

template <typename Enumerator>
WalkSeq Drain(Enumerator& en) {
  WalkSeq out;
  for (; en.Valid(); en.Next()) out.push_back(en.walk().edges);
  return out;
}

// Per-output op-count deltas of a full enumeration, the final
// (invalidating) Next included — the end-of-enumeration scan is a delay
// like any other. deltas[k] is the work of the Next() after output k.
struct OpDeltas {
  std::vector<uint64_t> row_ors;
  std::vector<uint64_t> probes;
  uint64_t outputs = 0;

  uint64_t MaxTotal() const {
    uint64_t m = 0;
    for (size_t i = 0; i < row_ors.size(); ++i)
      m = std::max(m, row_ors[i] + probes[i]);
    return m;
  }
};

template <typename Enumerator>
OpDeltas DrainCountingOps(Enumerator& en) {
  OpDeltas d;
  uint64_t last_rows = en.stats().row_ors;
  uint64_t last_probes = en.stats().probes;
  while (en.Valid()) {
    ++d.outputs;
    en.Next();
    d.row_ors.push_back(en.stats().row_ors - last_rows);
    d.probes.push_back(en.stats().probes - last_probes);
    last_rows = en.stats().row_ors;
    last_probes = en.stats().probes;
  }
  return d;
}

// ------------------------------------------------------ 1. structure

// Every BList row must agree with the ground truth: candidate c is
// usable from q iff advancing the singleton {q} across c survives.
TEST(BListStructureTest, NextUsableMatchesTrialAdvance) {
  struct Case {
    Instance inst;
    Nfa query;
    const char* what;
  };
  std::vector<Case> cases;
  cases.push_back({DeadFanout(9, 3), ForkChainNfa(3), "dead-fanout"});
  cases.push_back({Grid(3, 4), StaircaseNfa(1, 1), "grid"});
  cases.push_back(
      {EmbedInNoise(StarOfChains(5, 4, 2), 25, 100, 3),
       StaircaseNfa(2, 2), "noisy-star"});
  {
    LayeredGraphParams params;
    params.layers = 4;
    params.width = 4;
    params.edges_per_vertex = 3;
    params.num_labels = 2;
    params.extra_labels = 1;
    params.multi_label_p = 0.4;
    params.seed = 11;
    cases.push_back({LayeredGraph(params), CompleteNfa(3, 2), "layered"});
  }

  for (Case& c : cases) {
    SCOPED_TRACE(c.what);
    Snapshot snap = c.inst.db.Freeze();
    Annotation ann = Annotate(snap, c.query, c.inst.source, c.inst.target);
    ASSERT_TRUE(ann.reachable());
    TrimmedIndex index(snap, ann);
    const uint32_t wps = index.words_per_set();
    StateSet singleton(ann.num_states);
    StateSet scratch(ann.num_states);

    for (uint32_t level = 0; level + 1 < index.num_levels(); ++level) {
      const LevelSets& lvl = index.UsefulLevel(level);
      for (size_t pos = 0; pos < lvl.size(); ++pos) {
        auto cand = index.CandidatesAt(level, pos);
        TrimmedIndex::BList blist = index.BListAt(level, pos);
        ASSERT_EQ(blist.num_cand, cand.size());
        lvl.states(pos).ForEach([&](uint32_t q) {
          singleton.ZeroAll();
          singleton.Set(q);
          // Ground truth per position: scan forward with trial advances.
          uint32_t expect = blist.num_cand;  // sentinel
          for (uint32_t c2 = blist.num_cand; c2-- > 0;) {
            if (enumerator_detail::AdvanceStates(
                    ann.delta, wps, singleton, cand[c2].label,
                    index.UsefulStates(level + 1, cand[c2].next_pos),
                    &scratch))
              expect = c2;
            EXPECT_EQ(blist.NextLive(singleton, c2), expect)
                << "level " << level << " pos " << pos << " state " << q
                << " from " << c2;
          }
          EXPECT_EQ(blist.NextLive(singleton, blist.num_cand),
                    blist.num_cand);
        });
      }
    }
  }
}

// ---------------------------------------------------------- 2. delay

// Worst-case per-output bound, as exact inequalities: between any two
// outputs the enumerator does at most lambda pushes (each <= |Q| row
// ORs) and 2 lambda + 1 NextLive calls (each <= |Q| probes).
void ExpectPerOutputBound(Instance inst, const Nfa& query,
                          const char* what) {
  SCOPED_TRACE(what);
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ASSERT_TRUE(ann.reachable());
  ResumableIndex index(snap, ann);
  ResumableEnumerator en(ann, index, inst.source, inst.target);
  OpDeltas d = DrainCountingOps(en);
  ASSERT_GT(d.outputs, 0u);
  const uint64_t lambda = static_cast<uint64_t>(ann.lambda);
  const uint64_t q = ann.num_states;
  for (size_t k = 0; k < d.row_ors.size(); ++k) {
    EXPECT_LE(d.row_ors[k], lambda * q) << "output " << k;
    EXPECT_LE(d.probes[k], (2 * lambda + 1) * q) << "output " << k;
  }
}

TEST(DelayBoundTest, PerOutputOpsRespectTheoremTwo) {
  ExpectPerOutputBound(DeadFanout(64, 8), ForkChainNfa(8), "dead-fanout");
  ExpectPerOutputBound(BubbleChain(6, 2), StaircaseNfa(2, 2),
                       "bubble-staircase");
  ExpectPerOutputBound(BubbleChain(5, 2), CompleteNfa(4, 2),
                       "bubble-complete");
  ExpectPerOutputBound(Grid(4, 4), AnyKDfa(6, 1), "grid-anyk");
  ExpectPerOutputBound(StarOfChains(9, 5, 2), StaircaseNfa(1, 2), "star");
}

// The headline: on the adversarial dead-candidate family the certificate
// enumerator's worst per-output work is *identical* as the fanout sweeps
// 4 -> 512 (same lambda, same |Q|; the dead candidates are never
// touched), while the trial-filter baseline's grows linearly with d.
TEST(DelayBoundTest, DeadFanoutOpsStayFlatWhereTrialFilterDegrades) {
  constexpr uint32_t kTail = 8;
  const Nfa query = ForkChainNfa(kTail);
  std::vector<uint64_t> max_ops;
  std::vector<uint64_t> ref_max_ops;
  for (uint32_t d : {4u, 64u, 512u}) {
    Instance inst = DeadFanout(d, kTail);
    Snapshot snap = inst.db.Freeze();
    Annotation ann = Annotate(snap, query, inst.source, inst.target);
    ASSERT_TRUE(ann.reachable());
    ResumableIndex index(snap, ann);

    ResumableEnumerator en(ann, index, inst.source, inst.target);
    OpDeltas ops = DrainCountingOps(en);
    EXPECT_EQ(ops.outputs, d + 1) << "one answer per fanout edge + one";
    max_ops.push_back(ops.MaxTotal());

    TrialFilterEnumerator ref(ann, index.trimmed(), inst.source,
                              inst.target);
    uint64_t ref_max = 0;
    uint64_t last = ref.stats().row_ors;
    while (ref.Valid()) {
      ref.Next();
      ref_max = std::max(ref_max, ref.stats().row_ors - last);
      last = ref.stats().row_ors;
    }
    ref_max_ops.push_back(ref_max);
  }
  // Certificate: flat — bit-identical per-output worst case across a
  // 128x fanout sweep.
  EXPECT_EQ(max_ops[0], max_ops[1]);
  EXPECT_EQ(max_ops[1], max_ops[2]);
  // Trial filter: the dead scan is linear in d (all d dead edges are
  // trial-advanced between the l0-branch answer and the next output).
  EXPECT_GE(ref_max_ops[2], 512u);
  EXPECT_GE(ref_max_ops[1], 64u);
  // And the certificate enumerator's flat ceiling sits far below the
  // baseline's degraded one.
  EXPECT_LT(max_ops[2] * 4, ref_max_ops[2]);
}

// The same flatness holds for the full OpStats total — queue cells
// included — on the same family (full-scan mode).
TEST(DelayBoundTest, ResumableDeadFanoutOpsStayFlat) {
  constexpr uint32_t kTail = 8;
  const Nfa query = ForkChainNfa(kTail);
  std::vector<uint64_t> max_ops;
  for (uint32_t d : {4u, 64u, 512u}) {
    Instance inst = DeadFanout(d, kTail);
    Snapshot snap = inst.db.Freeze();
    Annotation ann = Annotate(snap, query, inst.source, inst.target);
    ResumableIndex index(snap, ann);
    ResumableEnumerator en(ann, index, inst.source, inst.target);
    uint64_t max_total = 0;
    uint64_t last = en.stats().total();
    uint64_t outputs = 0;
    while (en.Valid()) {
      ++outputs;
      en.Next();
      max_total = std::max(max_total, en.stats().total() - last);
      last = en.stats().total();
    }
    EXPECT_EQ(outputs, d + 1);
    max_ops.push_back(max_total);
  }
  EXPECT_EQ(max_ops[0], max_ops[1]);
  EXPECT_EQ(max_ops[1], max_ops[2]);
}

// ---------------------------------------------------------- 3. order

// The refactor must be answer-for-answer invisible: the certificate
// enumerator and the pre-change trial-filter enumerator agree on the
// full sequence (order included).
void ExpectIdenticalSequences(Instance inst, const Nfa& query,
                              const char* what) {
  SCOPED_TRACE(what);
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  TrimmedIndex tindex(snap, ann);
  ResumableIndex rindex(snap, ann);

  TrialFilterEnumerator ref(ann, tindex, inst.source, inst.target);
  const WalkSeq expected = Drain(ref);

  ResumableEnumerator resumable(ann, rindex, inst.source, inst.target);
  EXPECT_EQ(Drain(resumable), expected);
}

Nfa CompileRegex(const std::string& pattern, Database* db, bool thompson) {
  RegexParseResult ast = ParseRegex(pattern);
  EXPECT_TRUE(ast.ok()) << ast.error();
  return thompson ? ThompsonNfa(*ast.value(), db->mutable_dict())
                  : GlushkovNfa(*ast.value(), db->mutable_dict());
}

TEST(PreChangeOrderTest, MatchesOnPropertySuiteFamilies) {
  for (uint32_t k = 1; k <= 5; ++k) {
    Instance inst = BubbleChain(k, 2);
    ExpectIdenticalSequences(inst, StaircaseNfa(1, 2), "bubble-staircase1");
    ExpectIdenticalSequences(inst, StaircaseNfa(2, 2), "bubble-staircase2");
    ExpectIdenticalSequences(inst, CompleteNfa(3, 2), "bubble-complete3");
  }
  for (uint32_t n = 2; n <= 4; ++n) {
    Instance inst = Grid(n, n);
    ExpectIdenticalSequences(inst, StaircaseNfa(1, 1), "grid-staircase1");
    ExpectIdenticalSequences(inst, AnyKDfa(2 * (n - 1), 1), "grid-anyk");
  }
  for (uint32_t d : {2u, 5u, 9u}) {
    Instance inst = StarOfChains(d, 4, 2);
    ExpectIdenticalSequences(inst, StaircaseNfa(1, 2), "star-staircase1");
    ExpectIdenticalSequences(inst, CompleteNfa(3, 2), "star-complete3");
  }
  for (uint32_t d : {3u, 17u, 65u})
    ExpectIdenticalSequences(DeadFanout(d, 5), ForkChainNfa(5),
                             "dead-fanout");
}

TEST(PreChangeOrderTest, MatchesOnRandomAndRegexWorkloads) {
  for (uint64_t seed : {3u, 7u, 19u, 31u}) {
    LayeredGraphParams params;
    params.layers = 3 + seed % 3;
    params.width = 3 + seed % 2;
    params.edges_per_vertex = 2 + seed % 2;
    params.num_labels = 2;
    params.extra_labels = 1;
    params.multi_label_p = 0.4;
    params.seed = seed;
    Instance inst = LayeredGraph(params);
    ExpectIdenticalSequences(inst, StaircaseNfa(1, 2), "layered-staircase1");
    ExpectIdenticalSequences(inst, StaircaseNfa(2, 2), "layered-staircase2");
  }
  for (uint64_t seed : {5u, 17u, 29u}) {
    Instance inst = EmbedInNoise(BubbleChain(3 + seed % 2, 2), 40, 160,
                                 seed);
    ExpectIdenticalSequences(inst, StaircaseNfa(1, 2), "noise-staircase1");
    for (bool thompson : {false, true}) {
      Nfa query = CompileRegex("l0 (l0|l1)* l1?", &inst.db, thompson);
      ExpectIdenticalSequences(inst, query,
                               thompson ? "noise-thompson" : "noise-glushkov");
    }
  }
}

// lambda == 0: the single empty walk, no certificate machinery touched.
TEST(PreChangeOrderTest, LambdaZeroEmptyWalk) {
  Instance inst = Grid(2, 2);
  inst.target = inst.source;
  ExpectIdenticalSequences(inst, StaircaseNfa(0, 1), "lambda0");
}

}  // namespace
}  // namespace dsw
