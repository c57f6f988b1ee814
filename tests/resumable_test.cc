// Cross-oracle harness for the memoryless pipeline (Theorem 18).
//
// The trial-filter baseline (baseline/trial_filter_enumerator.h) is the
// order oracle: it walks the same trimmed candidate lists but shares no
// certificate or seek code with ResumableEnumerator. On every instance
// x query, ResumableEnumerator's full scan must reproduce its answer
// sequence exactly (order included), the SeekAfter chain — each answer
// recomputed from the previous one alone — must reproduce it again,
// and a *fresh* enumerator SeekAfter'ed to any answer w must emit
// exactly the suffix after w, with the last answer invalidating
// cleanly. One enumerator per test is Reset onto every plan the test
// builds, as an engine worker's is, and must agree with the fresh ones
// on the full scan and on every SeekAfter; each plan is freed before
// the next is built, so a field Reset fails to refresh reads a freed
// plan (an error under ASan). Adversarial walks (wrong length,
// non-candidate edges, dead reachable-run sets) pin the rejection
// contract: release builds return false, debug builds assert (death
// tests, mirroring label_index_test). The delay-accounting test
// asserts the Theorem 18 bound as an operation-count proxy: per-output
// work of the SeekAfter chain stays flat while the in-degree sweeps
// 4 -> 256.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseline/trial_filter_enumerator.h"
#include "core/annotate.h"
#include "core/resumable_index.h"
#include "core/trimmed_index.h"
#include "tests/oracles.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

// The properties of the harness header, on one (instance, query);
// \p reused is the enumerator the test Resets onto each of its plans.
void ExpectResumableMatchesOracle(ResumableEnumerator& reused, Instance inst,
                                  const Nfa& query, const char* what) {
  SCOPED_TRACE(what);
  Snapshot snap = inst.db.Freeze();
  // The plan lives on the heap, so the next call's plan gets new
  // addresses once this one is freed; on the stack it would sit where
  // its predecessor sat, and a pointer Reset failed to refresh would
  // still read a live plan.
  const auto ann_ptr = std::make_unique<const Annotation>(
      Annotate(snap, query, inst.source, inst.target));
  const auto rindex_ptr =
      std::make_unique<const ResumableIndex>(snap, *ann_ptr);
  const Annotation& ann = *ann_ptr;
  const ResumableIndex& rindex = *rindex_ptr;
  TrimmedIndex tindex(snap, ann);

  TrialFilterEnumerator ref_en(ann, tindex, inst.source, inst.target);
  const EdgeSeq ref = Drain(ref_en);

  // (a) full scan, order included, fresh and reused.
  ResumableEnumerator full(ann, rindex, inst.source, inst.target);
  ASSERT_EQ(Drain(full), ref);
  reused.Reset(ann, rindex);
  reused.Rewind();
  ASSERT_EQ(Drain(reused), ref);

  // (a') the memoryless chain — every answer recomputed from its
  // predecessor alone — is the same sequence again.
  if (!ref.empty()) {
    ResumableEnumerator chain(ann, rindex, inst.source, inst.target);
    ASSERT_TRUE(chain.Valid());
    EdgeSeq chained{chain.walk().edges};
    Walk prev;
    prev.edges = chain.walk().edges;
    while (chain.SeekAfter(prev) && chain.Valid()) {
      chained.push_back(chain.walk().edges);
      prev.edges = chain.walk().edges;
    }
    EXPECT_EQ(chained, ref);
  }

  // (b) a fresh SeekAfter from every answer yields exactly its suffix;
  // the last answer invalidates cleanly (empty suffix). The reused
  // enumerator, seeking from wherever the previous answer left it, must
  // yield the same.
  for (size_t k = 0; k < ref.size(); ++k) {
    ResumableEnumerator en(ann, rindex, inst.source, inst.target);
    Walk w;
    w.edges = ref[k];
    ASSERT_TRUE(en.SeekAfter(w)) << "answer " << k << " rejected";
    EdgeSeq suffix = Drain(en);
    ASSERT_EQ(suffix, EdgeSeq(ref.begin() + k + 1, ref.end()))
        << "wrong suffix after answer " << k;
    ASSERT_TRUE(reused.SeekAfter(w)) << "answer " << k << " rejected";
    ASSERT_EQ(Drain(reused), suffix) << "reused, after answer " << k;
  }
}

TEST(ResumableCrossOracleTest, GridsWithFixedNfas) {
  ResumableEnumerator reused;
  for (uint32_t n = 2; n <= 4; ++n) {
    Instance inst = Grid(n, n);
    ExpectResumableMatchesOracle(reused, inst, StaircaseNfa(1, 1),
                                 "staircase1");
    ExpectResumableMatchesOracle(reused, inst, AnyKDfa(2 * (n - 1), 1),
                                 "anyk");
  }
  // Spread over three words and back to one: the reused enumerator's
  // frames change word count both ways.
  ExpectResumableMatchesOracle(reused, Grid(3, 5),
                               SpreadStates(StaircaseNfa(2, 1), 3),
                               "grid3x5-staircase2-spread3");
  ExpectResumableMatchesOracle(reused, Grid(3, 5), StaircaseNfa(2, 1),
                               "grid3x5-staircase2");
}

TEST(ResumableCrossOracleTest, GridsWithRegexFrontEnds) {
  ResumableEnumerator reused;
  for (bool thompson : {false, true}) {
    Instance inst = Grid(3, 3);
    Nfa query = CompileRegex("l0 l0 l0 l0", &inst.db, thompson);
    ExpectResumableMatchesOracle(reused, inst, query,
                                 thompson ? "thompson" : "glushkov");
    Nfa plus = CompileRegex("(l0)+", &inst.db, thompson);
    ExpectResumableMatchesOracle(reused, inst, plus, "plus");
  }
}

TEST(ResumableCrossOracleTest, StarOfChainsSweepsShapeAndQueries) {
  ResumableEnumerator reused;
  for (uint32_t d : {1u, 2u, 5u, 9u}) {
    for (uint32_t depth : {1u, 2u, 5u}) {
      Instance inst = StarOfChains(d, depth, 2);
      ExpectResumableMatchesOracle(reused, inst, StaircaseNfa(1, 2),
                                   "staircase1");
      ExpectResumableMatchesOracle(reused, inst, CompleteNfa(3, 2),
                                   "complete3");
    }
  }
  // "ends in l0" keeps only every other chain — trimming must drop the
  // rest from the queues, not just from the answers.
  for (bool thompson : {false, true}) {
    Instance inst = StarOfChains(6, 4, 2);
    Nfa query = CompileRegex("(l0|l1)* l0", &inst.db, thompson);
    ExpectResumableMatchesOracle(reused, inst, query, "ends-in-l0");
  }
}

TEST(ResumableCrossOracleTest, NoiseEmbeddedRandomInstances) {
  ResumableEnumerator reused;
  for (uint64_t seed : {5u, 17u, 29u, 47u}) {
    Instance core = BubbleChain(3 + seed % 2, 2);
    Instance inst =
        EmbedInNoise(core, 40, 160, seed);
    ExpectResumableMatchesOracle(reused, inst, StaircaseNfa(1, 2),
                                 "staircase1");
    ExpectResumableMatchesOracle(reused, inst, StaircaseNfa(2, 2),
                                 "staircase2");
    for (bool thompson : {false, true}) {
      Nfa query = CompileRegex("l0 (l0|l1)* l1?", &inst.db, thompson);
      ExpectResumableMatchesOracle(reused, inst, query, "regex");
    }
  }
  for (uint64_t seed : {7u, 13u}) {
    Instance inst = EmbedInNoise(StarOfChains(4, 3, 2), 30, 120, seed);
    for (bool thompson : {false, true}) {
      Nfa query = CompileRegex("(l0|l1)+", &inst.db, thompson);
      ExpectResumableMatchesOracle(reused, inst, query, "any-plus");
    }
  }
}

TEST(ResumableCrossOracleTest, LambdaZeroEmptyWalk) {
  // source == target and the query accepts the empty word: the single
  // empty walk is the answer; SeekAfter(empty) accepts it and reports
  // no successor. The reused enumerator comes to it from lambda 2.
  ResumableEnumerator reused;
  Instance inst = Grid(2, 2);
  Nfa query = StaircaseNfa(0, 1);  // accepts every word incl. epsilon
  ExpectResumableMatchesOracle(reused, inst, query, "lambda2");
  inst.target = inst.source;
  ExpectResumableMatchesOracle(reused, inst, query, "lambda0");

  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ASSERT_EQ(ann.lambda, 0);
  ResumableIndex index(snap, ann);
  ResumableEnumerator en(ann, index, inst.source, inst.target);
  ASSERT_TRUE(en.Valid());
  EXPECT_TRUE(en.walk().edges.empty());
  Walk empty;
  EXPECT_TRUE(en.SeekAfter(empty));
  EXPECT_FALSE(en.Valid());
}

TEST(ResumableCrossOracleTest, UnreachableTargetHasNoAnswers) {
  // The reused enumerator comes to the unreachable plan from one with
  // answers.
  ResumableEnumerator reused;
  Instance inst = StarOfChains(3, 4, 2);
  Nfa query = AnyKDfa(3, 2);  // wrong length: no accepting walk
  ExpectResumableMatchesOracle(reused, inst, StaircaseNfa(1, 2),
                               "reachable");
  ExpectResumableMatchesOracle(reused, inst, query, "unreachable");
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ASSERT_FALSE(ann.reachable());
  ResumableIndex index(snap, ann);
  EXPECT_TRUE(index.empty());
  ResumableEnumerator en(ann, index, inst.source, inst.target);
  EXPECT_FALSE(en.Valid());
}

// Structural invariants of the seek layer, on a noisy random instance:
// every queue (the trimmed candidate list of a useful (level, vertex))
// holds out-edges of its vertex, ascending in rank (PositionOf), each
// one's next_pos naming its destination in the next useful level;
// SeekGe lands exactly on each member and on the first entry
// at-or-after any other out-edge of the vertex; SpanContains accepts
// exactly the vertex's out-edges.
TEST(ResumableIndexTest, QueueStructureInvariants) {
  Instance inst = EmbedInNoise(StarOfChains(5, 4, 2), 25, 100, 3);
  Nfa query = StaircaseNfa(2, 2);
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ASSERT_TRUE(ann.reachable());
  ResumableIndex index(snap, ann);
  const TrimmedIndex& trimmed = index.trimmed();
  const LabelIndex& adj = snap.label_index();
  ASSERT_EQ(trimmed.num_levels(), static_cast<uint32_t>(ann.lambda) + 1);
  std::vector<std::vector<uint32_t>> out(inst.db.num_vertices());
  for (uint32_t e = 0; e < inst.db.num_edges(); ++e)
    out[inst.db.src(e)].push_back(e);

  size_t queues = 0;
  for (uint32_t level = 0; level < static_cast<uint32_t>(ann.lambda);
       ++level) {
    const LevelSets& lvl = trimmed.UsefulLevel(level);
    for (uint32_t pos = 0; pos < lvl.size(); ++pos, ++queues) {
      const uint32_t v = lvl.vertex(pos);
      auto queue = trimmed.CandidatesAt(level, pos);
      ASSERT_FALSE(queue.empty()) << "useful vertex without candidates";
      for (uint32_t i = 0; i < queue.size(); ++i) {
        EXPECT_EQ(inst.db.src(queue[i].edge), v);
        EXPECT_EQ(trimmed.UsefulLevel(level + 1).vertex(queue[i].next_pos),
                  inst.db.dst(queue[i].edge));
        EXPECT_EQ(queue[i].label, inst.db.edge(queue[i].edge).label);
        if (i > 0) {
          EXPECT_LT(adj.PositionOf(queue[i - 1].edge),
                    adj.PositionOf(queue[i].edge));
        }
        // SeekGe on a member is exact.
        EXPECT_EQ(index.SeekGe(level, pos, queue[i].edge), i);
      }

      // SeekGe on *any* out-edge of v is the first entry at-or-after it.
      for (uint32_t e : out[v]) {
        ASSERT_TRUE(index.SpanContains(level, pos, e));
        const uint32_t c = index.SeekGe(level, pos, e);
        const uint32_t key = adj.PositionOf(e);
        ASSERT_LE(c, queue.size());
        for (uint32_t k = 0; k < c; ++k)
          EXPECT_LT(adj.PositionOf(queue[k].edge), key);
        if (c < queue.size()) {
          EXPECT_GE(adj.PositionOf(queue[c].edge), key);
        }
      }
      // Out-edges of every other vertex fall outside the span.
      for (uint32_t e = 0; e < inst.db.num_edges(); ++e)
        if (inst.db.src(e) != v) {
          EXPECT_FALSE(index.SpanContains(level, pos, e));
        }
    }
  }
  EXPECT_GT(queues, 0u);
}

// The plan holds no copy of snapshot data: its bytes, the seek ranks
// inside the trimmed structure included, depend on the useful slots
// and their out-degrees only, never on |V| or |E|. Growing the graph by
// 120k edges among vertices the plan never reaches leaves them
// unchanged.
TEST(ResumableIndexTest, SeekLayerBytesIgnoreUnreachedGraph) {
  const Nfa query = StaircaseNfa(1, 2);
  auto plan_bytes = [&](uint32_t extra_vertices, uint32_t extra_edges) {
    Instance inst = StarOfChains(6, 5, 2);
    const uint32_t first = inst.db.AddVertices(extra_vertices);
    for (uint32_t i = 0; i < extra_edges; ++i)
      inst.db.AddEdge(first + i % extra_vertices, i % 2,
                      first + (7 * i + 1) % extra_vertices);
    Snapshot snap = inst.db.Freeze();
    Annotation ann = Annotate(snap, query, inst.source, inst.target);
    ResumableIndex index(snap, ann);
    EXPECT_FALSE(index.empty());
    return index.ApproxBytes();
  };
  EXPECT_EQ(plan_bytes(0, 0), plan_bytes(20000, 120000));
}

// ------------------------------------------------------- adversarial

// Fixture: labels a/b, query (a b | b a). s -e0:a,e1:b-> m; m -e2:b,
// e3:a-> t, plus a dead-end b-edge e4 out of m. Answers: [e0, e2] and
// [e1, e3]. [e0, e3] spells "a a": every edge is a candidate but the
// reachable-run set dies at the last level. [e0, e4] uses an edge the
// trimming dropped (its dst never reaches the target). Members
// initialize in declaration order, so ann/index see the finished
// instance; ids are deterministic (vertices s=0, m=1, t=2, x=3 and
// edges e0..e4 = 0..4 by insertion order).
struct AdversarialFixture {
  static constexpr uint32_t e0 = 0, e1 = 1, e2 = 2, e3 = 3, e4 = 4;

  Instance inst = MakeInstance();
  Nfa query = MakeQuery();
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ResumableIndex index{snap, ann};

  static Instance MakeInstance() {
    Instance inst;
    uint32_t a = inst.db.labels().Intern("a");
    uint32_t b = inst.db.labels().Intern("b");
    uint32_t s = inst.db.AddVertex();
    uint32_t m = inst.db.AddVertex();
    uint32_t t = inst.db.AddVertex();
    uint32_t x = inst.db.AddVertex();  // dead end
    inst.source = s;
    inst.target = t;
    inst.db.AddEdge(s, a, m);  // e0
    inst.db.AddEdge(s, b, m);  // e1
    inst.db.AddEdge(m, b, t);  // e2
    inst.db.AddEdge(m, a, t);  // e3
    inst.db.AddEdge(m, b, x);  // e4
    return inst;
  }

  static Nfa MakeQuery() {
    Nfa query(4);  // 0 -a-> 1 -b-> 3, 0 -b-> 2 -a-> 3; a = 0, b = 1
    query.AddInitial(0);
    query.AddFinal(3);
    query.AddTransition(0, 0u, 1);
    query.AddTransition(1, 1u, 3);
    query.AddTransition(0, 1u, 2);
    query.AddTransition(2, 0u, 3);
    return query;
  }
};

// Sanity: the fixture's honest answers round-trip through the full
// cross-oracle harness and come out in the expected order.
TEST(ResumableAdversarialTest, FixtureAnswersAreSane) {
  AdversarialFixture fx;
  ResumableEnumerator reused;
  ExpectResumableMatchesOracle(reused, fx.inst, fx.query, "ab-or-ba");
  TrialFilterEnumerator ref(fx.ann, fx.index.trimmed(), fx.inst.source,
                            fx.inst.target);
  EdgeSeq answers = Drain(ref);
  ASSERT_EQ(answers, (EdgeSeq{{fx.e0, fx.e2}, {fx.e1, fx.e3}}));
}

#ifdef NDEBUG
// Release builds: every non-answer walk is rejected gracefully —
// SeekAfter returns false and the enumerator invalidates.
TEST(ResumableAdversarialTest, RejectsNonAnswersInRelease) {
  AdversarialFixture fx;
  auto expect_rejected = [&](std::vector<uint32_t> edges,
                             const char* what) {
    SCOPED_TRACE(what);
    ResumableEnumerator en(fx.ann, fx.index, fx.inst.source,
                           fx.inst.target);
    Walk w;
    w.edges = std::move(edges);
    EXPECT_FALSE(en.SeekAfter(w));
    EXPECT_FALSE(en.Valid());
  };
  expect_rejected({fx.e0}, "wrong length: too short");
  expect_rejected({fx.e0, fx.e2, fx.e3}, "wrong length: too long");
  expect_rejected({}, "wrong length: empty");
  expect_rejected({fx.e0, fx.e3}, "dead reachable-run set (word aa)");
  expect_rejected({fx.e1, fx.e2}, "dead reachable-run set (word bb)");
  expect_rejected({fx.e0, fx.e4}, "edge trimmed away (dead-end dst)");
  expect_rejected({fx.e2, fx.e3}, "edge of the wrong vertex at level 0");
  expect_rejected({fx.e0, 1000000}, "garbage edge id");

  // A rejected seek must not wedge the enumerator: a valid SeekAfter
  // right after still works (memorylessness).
  ResumableEnumerator en(fx.ann, fx.index, fx.inst.source, fx.inst.target);
  Walk bad;
  bad.edges = {fx.e0, fx.e3};
  EXPECT_FALSE(en.SeekAfter(bad));
  Walk first;
  first.edges = {fx.e0, fx.e2};
  EXPECT_TRUE(en.SeekAfter(first));
  ASSERT_TRUE(en.Valid());
  EXPECT_EQ(en.walk().edges, (std::vector<uint32_t>{fx.e1, fx.e3}));
}
#endif  // NDEBUG

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
// Debug builds: the same walks are documented UB and assert.
TEST(ResumableAdversarialDeathTest, AssertsOnNonAnswersInDebug) {
  AdversarialFixture fx;
  auto seek = [&](std::vector<uint32_t> edges) {
    ResumableEnumerator en(fx.ann, fx.index, fx.inst.source,
                           fx.inst.target);
    Walk w;
    w.edges = std::move(edges);
    en.SeekAfter(w);
  };
  EXPECT_DEATH(seek({fx.e0}), "not an answer");
  EXPECT_DEATH(seek({fx.e0, fx.e3}), "not an answer");
  EXPECT_DEATH(seek({fx.e0, fx.e4}), "not an answer");
  EXPECT_DEATH(seek({fx.e2, fx.e3}), "not an answer");
  EXPECT_DEATH(seek({fx.e0, 1000000}), "not an answer");
}
#endif

// -------------------------------------------------- delay accounting

// Theorem 18 as an operation-count proxy (CI-stable, unlike wall
// clock): on StarOfChains(d, 32, 2) the SeekAfter chain's per-output
// work — SeekGe repositionings + queue cells examined + delta-row ORs
// — must stay flat as the in-degree d sweeps 4 -> 256. The linear
// re-advance strawman is Theta(d) per output on this family.
TEST(ResumableDelayTest, SeekAfterChainOpsStayFlatInInDegree) {
  constexpr uint32_t kDepth = 32;
  std::vector<double> per_output;
  for (uint32_t d : {4u, 16u, 64u, 256u}) {
    Instance inst = StarOfChains(d, kDepth, 2);
    Nfa query = StaircaseNfa(1, 2);
    Snapshot snap = inst.db.Freeze();
    Annotation ann = Annotate(snap, query, inst.source, inst.target);
    ResumableIndex index(snap, ann);
    ResumableEnumerator en(ann, index, inst.source, inst.target);
    ASSERT_TRUE(en.Valid());
    Walk prev = en.walk();
    uint64_t outputs = 1;
    en.ResetStats();
    while (en.SeekAfter(prev) && en.Valid()) {
      prev = en.walk();
      ++outputs;
    }
    ASSERT_EQ(outputs, d) << "StarOfChains must have one answer per chain";
    // outputs - 1 successful SeekAfter steps plus the final one that
    // detects the end; average per recomputed output.
    per_output.push_back(static_cast<double>(en.stats().total()) /
                         static_cast<double>(outputs - 1));
  }
  double lo = *std::min_element(per_output.begin(), per_output.end());
  double hi = *std::max_element(per_output.begin(), per_output.end());
  EXPECT_GT(lo, 0.0);
  EXPECT_LE(hi, lo * 1.25)
      << "per-output SeekAfter work grew with the in-degree (lo=" << lo
      << ", hi=" << hi << ")";
}

// The stats themselves: a single SeekAfter recomputation is O(lambda)
// seeks and cells on a chain family — pin the constants loosely so a
// regression to linear reseek (or per-level rescans) trips it.
TEST(ResumableDelayTest, SingleSeekAfterOpBudget) {
  constexpr uint32_t kDepth = 16;
  Instance inst = StarOfChains(8, kDepth, 2);
  Nfa query = StaircaseNfa(1, 2);
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ResumableIndex index(snap, ann);
  ResumableEnumerator en(ann, index, inst.source, inst.target);
  ASSERT_TRUE(en.Valid());
  Walk first = en.walk();
  en.ResetStats();
  ASSERT_TRUE(en.SeekAfter(first));
  ASSERT_TRUE(en.Valid());
  EXPECT_EQ(en.stats().seeks, kDepth);  // one SeekGe per level, exactly
  // Guided run + one DFS step: a small multiple of lambda, never
  // lambda * in-degree (= 128 here) or lambda^2.
  EXPECT_LE(en.stats().cells, 2 * kDepth);
  EXPECT_LE(en.stats().row_ors, 4 * kDepth);
}

}  // namespace
}  // namespace dsw
