// Oracle tests for the incremental maintenance layer: after every
// randomized edge insertion, the repaired Annotation, TrimmedIndex and
// B-lists must be *bit-identical* to a from-scratch rebuild against the
// new snapshot, and the repaired ResumableIndex must enumerate the same
// answers in the same order as a fresh one — with the naive product-path
// baseline as the independent set oracle. Scenarios cover the workload
// families (bubbles, grids, star-of-chains, noise-embedded cores, an
// initially-disconnected instance), epsilon-NFAs via the Thompson
// front-end and multi-word queries (states spread over 2 and 3 words);
// together they apply well over 100 insertions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "automaton/thompson.h"
#include "baseline/naive.h"
#include "core/delta_annotate.h"
#include "core/resumable_index.h"
#include "core/trimmed_index.h"
#include "regex/regex_parser.h"
#include "tests/oracles.h"
#include "tests/plan_equality.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

// The sorted vertices whose state set differs between levels a and b:
// present in one only, or present in both with different words.
std::vector<uint32_t> DiffLevel(const LevelSets& a, const LevelSets& b,
                                size_t words) {
  std::vector<uint32_t> out;
  size_t ai = 0, bi = 0;
  while (ai < a.size() || bi < b.size()) {
    const uint32_t av = ai < a.size() ? a.vertex(ai) : UINT32_MAX;
    const uint32_t bv = bi < b.size() ? b.vertex(bi) : UINT32_MAX;
    if (av != bv) {
      out.push_back(std::min(av, bv));
      ++(av < bv ? ai : bi);
      continue;
    }
    if (std::memcmp(a.states(ai).words(), b.states(bi).words(),
                    words * sizeof(uint64_t)) != 0)
      out.push_back(av);
    ++ai;
    ++bi;
  }
  return out;
}

EdgeSeq Enumerate(const Annotation& ann, const ResumableIndex& idx,
                  uint32_t source, uint32_t target) {
  EdgeSeq out;
  for (ResumableEnumerator en(ann, idx, source, target); en.Valid();
       en.Next()) {
    out.push_back(en.walk().edges);
    if (out.size() > 100000) {
      ADD_FAILURE() << "enumeration runaway";
      break;
    }
  }
  return out;
}

// Applies num_inserts random edge insertions (occasionally interleaved
// with vertex additions, so the delta's vertex suffix is exercised too)
// and checks the repaired structures against from-scratch rebuilds
// after every one. The reverse CSR is carried forward the way the
// engine carries it: each step derives its context from the previous
// step's. Each repair's changed lists must name exactly the vertices
// whose level set moved: an over-reported vertex would still trim
// bit-identically (DeltaTrim re-trims a clean vertex to the same slot),
// so only this check sees it.
void RunScenario(Instance inst, const Nfa& query, uint32_t num_inserts,
                 uint64_t seed) {
  std::mt19937_64 rng(seed);
  const uint32_t num_labels = inst.db.labels().size();
  ASSERT_GT(num_labels, 0u);

  Snapshot snap = inst.db.Freeze();
  uint64_t prev_gen = snap.generation();
  Annotation carried = Annotate(snap, query, inst.source, inst.target);
  TrimmedIndex carried_trim(snap, carried);
  DeltaContext ctx(snap);

  for (uint32_t step = 0; step < num_inserts; ++step) {
    SCOPED_TRACE(testing::Message() << "insertion " << step);
    if (rng() % 8 == 0)
      inst.db.AddVertices(1 + static_cast<uint32_t>(rng() % 3));
    const uint32_t num_vertices = inst.db.num_vertices();
    const uint32_t u = static_cast<uint32_t>(rng() % num_vertices);
    const uint32_t v = static_cast<uint32_t>(rng() % num_vertices);
    inst.db.AddEdge(u, static_cast<uint32_t>(rng() % num_labels), v);

    Snapshot ns = inst.db.Freeze();
    EdgeDelta delta = ns.DeltaFrom(prev_gen);
    ASSERT_TRUE(delta.known);
    prev_gen = ns.generation();
    ctx = DeltaContext(ns, ctx);

    Annotation fresh = Annotate(ns, query, inst.source, inst.target);
    const Annotation before = carried;
    AnnotationRepair rep = DeltaAnnotate(ns, delta, &carried);
    if (!rep.ok) {
      // The only unrepairable state is an unreachable old annotation
      // (no level data to repair); rebuild and keep going.
      ASSERT_FALSE(carried.reachable());
      carried = fresh;
      carried_trim = TrimmedIndex(ns, carried);
      continue;
    }
    ExpectAnnotationsEqual(carried, fresh);
    ASSERT_EQ(rep.changed.size(), carried.levels.size());
    for (size_t i = 0; i < rep.changed.size(); ++i)
      ASSERT_EQ(rep.changed[i],
                DiffLevel(before.levels[i], carried.levels[i],
                          carried.words_per_set()))
          << "changed list of level " << i;

    TrimmedIndex fresh_trim(ns, fresh);
    carried_trim =
        DeltaTrim(ns, carried, carried_trim, rep, delta, ctx);
    ExpectTrimsEqual(carried_trim, fresh_trim);

    if (!carried.reachable()) continue;
    ResumableIndex fresh_idx(ns, fresh);
    ResumableIndex repaired_idx(ns, carried, carried_trim);
    ExpectSpansMatchSources(repaired_idx);
    EdgeSeq got = Enumerate(carried, repaired_idx, inst.source, inst.target);
    EdgeSeq want = Enumerate(fresh, fresh_idx, inst.source, inst.target);
    ASSERT_EQ(got, want) << "repaired enumeration order diverged";

    // The naive baseline is the expensive oracle (it wanders every
    // level-consistent product path, noise included); sampling every
    // third insertion keeps the sanitizer jobs fast while the exact
    // fresh-vs-repaired comparison above still runs on every one.
    if (step % 3 != 0) continue;
    NaiveResult naive = NaiveDistinctShortestWalks(
        ns, query, inst.source, inst.target, uint64_t{1} << 19);
    if (!naive.budget_exhausted) {
      std::set<std::vector<uint32_t>> naive_set;
      for (const Walk& w : naive.walks) naive_set.insert(w.edges);
      std::set<std::vector<uint32_t>> got_set(got.begin(), got.end());
      ASSERT_EQ(got_set, naive_set) << "answer set diverged from naive";
    }
  }
}

TEST(DeltaAnnotateOracleTest, BubbleChainStaircase) {
  RunScenario(BubbleChain(6, 2), StaircaseNfa(2, 2), 30, 101);
}

TEST(DeltaAnnotateOracleTest, GridStaircase) {
  RunScenario(Grid(5, 5), StaircaseNfa(3, 1), 25, 202);
}

TEST(DeltaAnnotateOracleTest, StarOfChainsCompleteNfa) {
  RunScenario(StarOfChains(4, 6, 3), CompleteNfa(4, 3), 25, 303);
}

TEST(DeltaAnnotateOracleTest, NoisyBubblesEpsilonNfa) {
  Instance inst = EmbedInNoise(BubbleChain(5, 2), 40, 120, 7);
  RegexParseResult ast = ParseRegex(ContainsL0Regex(2));
  ASSERT_TRUE(ast.ok()) << ast.error();
  Nfa thompson = ThompsonNfa(*ast.value(), inst.db.mutable_dict());
  ASSERT_GT(thompson.num_epsilon_transitions(), 0u);
  RunScenario(std::move(inst), thompson, 30, 404);
}

// Multi-word repair: the same families with the query's states spread
// over two and three words (SpreadStates), so the resumed BFS's marking
// of kept pairs, its level merges and DeltaTrim's B-list copies run on
// several words.
TEST(DeltaAnnotateOracleTest, BubbleChainSpreadStaircase) {
  RunScenario(BubbleChain(6, 2), SpreadStates(StaircaseNfa(2, 2), 2), 30,
              606);
}

TEST(DeltaAnnotateOracleTest, NoisyBubblesSpreadEpsilonNfa) {
  Instance inst = EmbedInNoise(BubbleChain(5, 2), 40, 120, 7);
  RegexParseResult ast = ParseRegex(ContainsL0Regex(2));
  ASSERT_TRUE(ast.ok()) << ast.error();
  Nfa thompson = ThompsonNfa(*ast.value(), inst.db.mutable_dict());
  RunScenario(std::move(inst), SpreadStates(thompson, 3), 30, 707);
}

TEST(DeltaAnnotateOracleTest, DisconnectedUntilInsertionsConnect) {
  // No edges at all to start: the annotation begins unreachable (the
  // unrepairable case) and flips to reachable once random insertions
  // connect source to target; the scenario exercises both the rebuild
  // fallback and repairs on a still-sparse graph.
  Instance inst;
  workload_detail::InternLabels(&inst.db, 2);
  inst.db.AddVertices(12);
  inst.source = 0;
  inst.target = 11;
  RunScenario(std::move(inst), StaircaseNfa(2, 2), 20, 505);
}

// The AddVertices-only delta: no new edges means no annotation change
// at all, and the repair must report that (empty changed lists, same
// lambda) while staying bit-identical.
TEST(DeltaAnnotateTest, VertexOnlyDeltaIsANoOpRepair) {
  Instance inst = BubbleChain(4, 2);
  Snapshot snap = inst.db.Freeze();
  uint64_t prev_gen = snap.generation();
  Annotation carried = Annotate(snap, StaircaseNfa(2, 2), inst.source,
                                inst.target);
  TrimmedIndex carried_trim(snap, carried);
  ASSERT_TRUE(carried.reachable());

  inst.db.AddVertices(5);
  Snapshot ns = inst.db.Freeze();
  EdgeDelta delta = ns.DeltaFrom(prev_gen);
  ASSERT_TRUE(delta.known);

  AnnotationRepair rep = DeltaAnnotate(ns, delta, &carried);
  ASSERT_TRUE(rep.ok);
  EXPECT_FALSE(rep.lambda_changed);
  for (const auto& level : rep.changed) EXPECT_TRUE(level.empty());

  Annotation fresh = Annotate(ns, StaircaseNfa(2, 2), inst.source,
                              inst.target);
  ExpectAnnotationsEqual(carried, fresh);
  DeltaContext ctx(ns);
  TrimmedIndex repaired =
      DeltaTrim(ns, carried, carried_trim, rep, delta, ctx);
  TrimmedIndex fresh_trim(ns, fresh);
  ExpectTrimsEqual(repaired, fresh_trim);
}

// An insert that grows existing useful vertices' states while lambda
// and every level's membership hold: u -a-> m -b-> w -c-> t, and two
// initial states start tracks that share "a b" and end in c or in d,
// q0 q1 q2 -c-> F and r0 p1 p2 -d-> F. Inserting w -d-> t changes no
// annotated level, so at first only its source w is dirty. The useful
// states of w, m and u grow, and u is dirty only because m's useful
// *content* changed one level up: no vertex enters or leaves a level.
TEST(DeltaAnnotateTest, InsertGrowsUsefulStatesWhileLambdaHolds) {
  Database db;
  const uint32_t a = db.labels().Intern("a"), b = db.labels().Intern("b"),
                 c = db.labels().Intern("c"), d = db.labels().Intern("d");
  const uint32_t u = db.AddVertex(), m = db.AddVertex(), w = db.AddVertex(),
                 t = db.AddVertex();
  db.AddEdge(u, a, m);
  db.AddEdge(m, b, w);
  db.AddEdge(w, c, t);
  constexpr uint32_t q0 = 0, q1 = 1, q2 = 2, r0 = 3, p1 = 4, p2 = 5, f = 6;
  Nfa query(7);
  query.AddInitial(q0);
  query.AddInitial(r0);
  query.AddFinal(f);
  query.AddTransition(q0, a, q1);
  query.AddTransition(q1, b, q2);
  query.AddTransition(q2, c, f);
  query.AddTransition(r0, a, p1);
  query.AddTransition(p1, b, p2);
  query.AddTransition(p2, d, f);

  Snapshot snap = db.Freeze();
  Annotation carried = Annotate(snap, query, u, t);
  TrimmedIndex carried_trim(snap, carried);
  ASSERT_EQ(carried.lambda, 3);
  ASSERT_EQ(carried_trim.num_slots(), 4u);  // the c track only

  db.AddEdge(w, d, t);
  Snapshot ns = db.Freeze();
  const EdgeDelta delta = ns.DeltaFrom(snap.generation());
  ASSERT_TRUE(delta.known);
  EXPECT_EQ(delta.new_sources, std::vector<uint32_t>{w});
  AnnotationRepair rep = DeltaAnnotate(ns, delta, &carried);
  ASSERT_TRUE(rep.ok);
  EXPECT_FALSE(rep.lambda_changed);
  for (const auto& level : rep.changed) EXPECT_TRUE(level.empty());
  Annotation fresh = Annotate(ns, query, u, t);
  ExpectAnnotationsEqual(carried, fresh);

  TrimmedIndex repaired =
      DeltaTrim(ns, carried, carried_trim, rep, delta, DeltaContext(ns));
  TrimmedIndex fresh_trim(ns, fresh);
  ASSERT_EQ(fresh_trim.num_slots(), 7u);  // both tracks
  ExpectTrimsEqual(repaired, fresh_trim);

  ResumableIndex repaired_idx(ns, carried, std::move(repaired));
  ResumableIndex fresh_idx(ns, fresh);
  const EdgeSeq want = Enumerate(fresh, fresh_idx, u, t);
  EXPECT_EQ(want.size(), 2u);
  EXPECT_EQ(Enumerate(carried, repaired_idx, u, t), want);
}

// Level lambda keeps only the target's entry, through a build and
// through repairs. s -a-> m -b-> {w, t}, and w -c-> {t, y, z}; two
// initial states start tracks q0 q1 q2 -c-> f and r0 p1 p2 -d-> g, and
// q1 -e-> f is a shortcut. The full level 3 is t, y and z, each with
// {f}. Three inserts follow: w -d-> y adds a pair at lambda off the
// target only, w -d-> t adds g to the target at lambda, and m -e-> t
// shortens lambda to 2, where w leaves the level and t gains f.
TEST(DeltaAnnotateTest, LastLevelKeepsOnlyTheTarget) {
  Database db;
  const uint32_t a = db.labels().Intern("a"), b = db.labels().Intern("b"),
                 c = db.labels().Intern("c"), d = db.labels().Intern("d"),
                 e = db.labels().Intern("e");
  const uint32_t s = db.AddVertex(), m = db.AddVertex(), w = db.AddVertex(),
                 t = db.AddVertex(), y = db.AddVertex(), z = db.AddVertex();
  db.AddEdge(s, a, m);
  db.AddEdge(m, b, w);
  db.AddEdge(m, b, t);
  db.AddEdge(w, c, t);
  db.AddEdge(w, c, y);
  db.AddEdge(w, c, z);
  constexpr uint32_t q0 = 0, q1 = 1, q2 = 2, r0 = 3, p1 = 4, p2 = 5, f = 6,
                     g = 7;
  Nfa query(8);
  query.AddInitial(q0);
  query.AddInitial(r0);
  query.AddFinal(f);
  query.AddFinal(g);
  query.AddTransition(q0, a, q1);
  query.AddTransition(q1, b, q2);
  query.AddTransition(q2, c, f);
  query.AddTransition(r0, a, p1);
  query.AddTransition(p1, b, p2);
  query.AddTransition(p2, d, g);
  query.AddTransition(q1, e, f);

  Snapshot snap = db.Freeze();
  Annotation carried = Annotate(snap, query, s, t);
  auto states_at = [&carried](uint32_t level, uint32_t v) {
    StateSet out(8);
    out.UnionWith(carried.StatesAt(level, v));
    return out;
  };
  ASSERT_EQ(carried.lambda, 3);
  ASSERT_EQ(carried.levels.size(), 4u);
  EXPECT_EQ(carried.levels[2].vertices(), (std::vector<uint32_t>{w, t}));
  EXPECT_EQ(carried.levels[3].vertices(), std::vector<uint32_t>{t});
  StateSet want(8);
  want.Set(f);
  EXPECT_EQ(states_at(3, t), want);
  TrimmedIndex carried_trim(snap, carried);

  struct Insert {
    uint32_t src, label, dst;
    int32_t lambda;
    std::vector<std::vector<uint32_t>> changed;
  };
  const Insert inserts[] = {
      {w, d, y, 3, {{}, {}, {}, {}}},
      {w, d, t, 3, {{}, {}, {}, {t}}},
      {m, e, t, 2, {{}, {}, {w, t}}},
  };
  for (const Insert& ins : inserts) {
    SCOPED_TRACE(testing::Message() << "insert " << ins.src << " -> "
                                    << ins.dst);
    const uint64_t prev_gen = db.generation();
    db.AddEdge(ins.src, ins.label, ins.dst);
    Snapshot ns = db.Freeze();
    const EdgeDelta delta = ns.DeltaFrom(prev_gen);
    ASSERT_TRUE(delta.known);
    AnnotationRepair rep = DeltaAnnotate(ns, delta, &carried);
    ASSERT_TRUE(rep.ok);
    EXPECT_EQ(carried.lambda, ins.lambda);
    EXPECT_EQ(rep.changed, ins.changed);
    Annotation fresh = Annotate(ns, query, s, t);
    ExpectAnnotationsEqual(carried, fresh);
    EXPECT_EQ(carried.levels.back().vertices(), std::vector<uint32_t>{t});

    carried_trim =
        DeltaTrim(ns, carried, carried_trim, rep, delta, DeltaContext(ns));
    ExpectTrimsEqual(carried_trim, TrimmedIndex(ns, fresh));
  }
  // The target's last entry: f through the shortcut, next to the q2 and
  // p2 that m -b-> t always gave it at level 2.
  for (uint32_t q : {q2, p2}) want.Set(q);
  EXPECT_EQ(states_at(2, t), want);
}

// Every level of \p ann is coded, and its table holds exactly the
// distinct sets of its vertices: none twice, and no dead set, one that
// no vertex uses. Each set's stored use count is the number of vertices
// that carry it.
void ExpectTablesHoldNoDeadSets(const Annotation& ann) {
  for (size_t i = 0; i < ann.levels.size(); ++i) {
    const LevelSets& level = ann.levels[i];
    std::set<std::vector<uint64_t>> distinct;
    ASSERT_TRUE(level.coded()) << "level " << i;
    std::vector<uint32_t> uses(level.num_sets(), 0);
    for (size_t k = 0; k < level.size(); ++k) {
      const StateSetView states = level.states(k);
      distinct.emplace(states.words(), states.words() + states.num_words());
      ++uses[level.set_id(k)];
    }
    ASSERT_EQ(level.num_sets(), distinct.size()) << "level " << i;
    for (uint32_t id = 0; id < uses.size(); ++id)
      ASSERT_EQ(level.use_count(id), uses[id]) << "level " << i;
  }
}

// A repair copies each changed level's ids and table verbatim and
// interns only the sets its events make, so it must drop a set whose
// last user an event replaced. 240 random inserts on a noisy bubble
// chain: noise edges (from the noise or the core into the noise, which
// never leads back), lambda-preserving edges between consecutive
// layers of the core, and at insert 120 one edge from the source to the
// last hub, which shortens lambda from 12 to 3. After every repair the
// annotation equals a fresh build and no level's table keeps a set its
// vertices do not use; for one- and two-word staircases and a Thompson
// epsilon-NFA.
TEST(DeltaAnnotateTest, RepairsKeepNoDeadSets) {
  constexpr uint32_t kBubbles = 6, kNoise = 60, kInserts = 240,
                     kShortcutAt = 120;
  // BubbleChain(k): hub i is vertex 3i, its branches 3i + 1 and 3i + 2;
  // the noise follows the core.
  constexpr uint32_t kCore = 3 * kBubbles + 1;
  for (int query_kind = 0; query_kind < 3; ++query_kind) {
    SCOPED_TRACE(testing::Message() << "query " << query_kind);
    Instance inst = EmbedInNoise(BubbleChain(kBubbles, 2), kNoise, 180, 11);
    const Nfa query =
        query_kind == 0   ? StaircaseNfa(2, 2)
        : query_kind == 1 ? CompileRegex(ContainsL0Regex(2), &inst.db,
                                         /*thompson=*/true)
                          : SpreadStates(StaircaseNfa(2, 2), 2);
    ASSERT_EQ(query.has_epsilon(), query_kind == 1);
    std::mt19937_64 rng(900 + query_kind);
    Annotation carried =
        Annotate(inst.db.Freeze(), query, inst.source, inst.target);
    ASSERT_EQ(carried.lambda, 2 * static_cast<int32_t>(kBubbles));
    ExpectTablesHoldNoDeadSets(carried);
    size_t most_sets = 0;  // in one level, over the run

    for (uint32_t step = 0; step < kInserts; ++step) {
      SCOPED_TRACE(testing::Message() << "insertion " << step);
      uint32_t u, v, label = static_cast<uint32_t>(rng() % 2);
      if (step == kShortcutAt) {
        u = inst.source;
        v = 3 * (kBubbles - 1);
        label = 0;
      } else if (rng() % 2 == 0) {
        u = rng() % 4 == 0 ? static_cast<uint32_t>(rng() % kCore)
                           : kCore + static_cast<uint32_t>(rng() % kNoise);
        v = kCore + static_cast<uint32_t>(rng() % kNoise);
      } else {
        const uint32_t hub = 3 * static_cast<uint32_t>(rng() % kBubbles);
        const uint32_t branch = hub + 1 + static_cast<uint32_t>(rng() % 2);
        u = rng() % 2 == 0 ? hub : branch;
        v = u == hub ? branch : hub + 3;
      }
      const uint64_t prev_gen = inst.db.generation();
      inst.db.AddEdge(u, label, v);
      Snapshot ns = inst.db.Freeze();
      const EdgeDelta delta = ns.DeltaFrom(prev_gen);
      ASSERT_TRUE(delta.known);
      AnnotationRepair rep = DeltaAnnotate(ns, delta, &carried);
      ASSERT_TRUE(rep.ok);
      EXPECT_EQ(rep.lambda_changed, step == kShortcutAt);
      ExpectAnnotationsEqual(carried,
                             Annotate(ns, query, inst.source, inst.target));
      ExpectTablesHoldNoDeadSets(carried);
      for (const LevelSets& level : carried.levels)
        most_sets = std::max(most_sets, level.num_sets());
    }
    EXPECT_EQ(carried.lambda, 3);
    // The epsilon-NFA's levels hold more than eight distinct sets, so
    // the BFS's intern hash grows past its first sixteen slots twice.
    if (query_kind == 1) {
      EXPECT_GT(most_sets, 8u);
    }
  }
}

TEST(DeltaAnnotateTest, UnknownDeltaIsRejected) {
  Instance inst = BubbleChain(3, 2);
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, StaircaseNfa(2, 2), inst.source,
                            inst.target);
  Annotation before = ann;
  AnnotationRepair rep = DeltaAnnotate(snap, EdgeDelta{}, &ann);
  EXPECT_FALSE(rep.ok);
  ExpectAnnotationsEqual(ann, before);  // untouched on rejection
}

}  // namespace
}  // namespace dsw
