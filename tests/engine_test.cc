// The concurrent query engine, pinned from five sides:
//
//  1. Correctness: batches pumped through the worker pool concatenate
//     to exactly the single-threaded ResumableEnumerator sequence (order
//     included), for every session, under every batch size.
//  2. Concurrency: N client threads park and SeekAfter-resume random
//     sessions off ONE shared snapshot while the pool's workers run
//     them on whichever thread is free; every session still matches the
//     oracle. Run under ThreadSanitizer in CI, this is the regression
//     test for the lazy-rebuild data race the snapshot layer removed —
//     the read path performs no lazy work, so TSan stays silent.
//  3. Retirement vs. upgrade: InstallSnapshot with an insert-only delta
//     that preserves lambda upgrades plans in place, and parked sessions
//     resume on them (the correct suffix of the NEW enumeration, no
//     kRetired); a delta that shortens lambda breaks the enumeration
//     order anchor, so started sessions are rejected gracefully
//     (PumpStatus::kRetired, stale index untouched), even one whose
//     first batch was still running when the install came. The repairs
//     run on the installing thread and the workers, equal serial
//     repairs bit for bit, reach across any number of freezes the
//     engine never installed, and read a reverse CSR derived only when
//     a trim asks for it, across installs that derived none.
//  4. The snapshot layer itself: raw reader threads sharing one
//     Snapshot build annotations/indexes/enumerators concurrently with
//     no engine and no synchronization.
//  5. Bounds and misuse: unknown, closed and released ids and a null
//     snapshot answer with a status (in release builds too), and a
//     long churn of installs, prepares, sessions, closes and releases
//     leaves the plan table within a fixed bound and no handle or
//     session open.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/annotate.h"
#include "core/delta_annotate.h"
#include "core/resumable_enumerator.h"
#include "core/resumable_index.h"
#include "engine/engine.h"
#include "tests/oracles.h"
#include "tests/plan_equality.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

// Duplicates existing edges [first, first + count) as parallel edges,
// which adds answers but keeps lambda.
void DuplicateEdges(Instance& inst, uint32_t first, uint32_t count) {
  for (uint32_t id = first; id < first + count; ++id)
    inst.db.AddEdge(inst.db.src(id), inst.db.edge(id).label,
                    inst.db.dst(id));
}

// A two-edge source -> target shortcut: StaircaseNfa(2, 2) accepts any
// word of length >= 2, so lambda drops to 2.
void AddShortcut(Instance& inst) {
  const uint32_t mid = inst.db.AddVertex();
  inst.db.AddEdge(inst.source, 0u, mid);
  inst.db.AddEdge(mid, 0u, inst.target);
}

TEST(QueryEngineTest, DrainMatchesOracle) {
  Instance inst = BubbleChain(8, 2);
  Nfa query = StaircaseNfa(2, 2);
  Snapshot snap = inst.db.Freeze();
  EdgeSeq expected = Oracle(snap, query, inst.source, inst.target);
  ASSERT_EQ(expected.size(), 256u);  // 2^8 bubbles

  QueryEngine engine(2);
  engine.InstallSnapshot(snap);
  QueryId q = engine.Prepare(query, inst.source, inst.target);
  SessionId s = engine.OpenSession(q);
  PumpResult all = engine.Drain(s, 17);  // batch size not a divisor
  EXPECT_EQ(all.status, PumpStatus::kExhausted);
  EXPECT_EQ(Edges(all.walks), expected);

  // Once exhausted, further pumps report exhaustion and return nothing.
  PumpResult again = engine.Pump(s, 4);
  EXPECT_EQ(again.status, PumpStatus::kExhausted);
  EXPECT_TRUE(again.walks.empty());

  // The engine recorded a first-answer latency for each non-empty batch.
  EXPECT_GE(engine.FirstAnswerLatenciesNs().size(),
            expected.size() / 17);
}

TEST(QueryEngineTest, EveryBatchSizeParksAndResumesCorrectly) {
  Instance inst = StarOfChains(7, 5, 2);
  Nfa query = StaircaseNfa(1, 2);
  Snapshot snap = inst.db.Freeze();
  EdgeSeq expected = Oracle(snap, query, inst.source, inst.target);
  ASSERT_GT(expected.size(), 1u);

  QueryEngine engine(2);
  engine.InstallSnapshot(snap);
  QueryId q = engine.Prepare(query, inst.source, inst.target);
  for (uint32_t batch = 1; batch <= expected.size() + 1; ++batch) {
    SessionId s = engine.OpenSession(q);
    EdgeSeq got;
    for (;;) {
      PumpResult r = engine.Pump(s, batch);
      for (const Walk& w : r.walks) got.push_back(w.edges);
      ASSERT_NE(r.status, PumpStatus::kRetired);
      if (r.status != PumpStatus::kOk) break;
    }
    EXPECT_EQ(got, expected) << "batch " << batch;
  }
}

TEST(QueryEngineTest, SessionsWithNoAnswersExhaustImmediately) {
  Instance inst = Grid(3, 3);
  Snapshot snap = inst.db.Freeze();
  QueryEngine engine(2);
  engine.InstallSnapshot(snap);

  // Unreachable: wrong walk length for the staircase.
  QueryId unreachable = engine.Prepare(AnyKDfa(3, 2), inst.source,
                                       inst.target);
  PumpResult r = engine.Pump(engine.OpenSession(unreachable), 8);
  EXPECT_EQ(r.status, PumpStatus::kExhausted);
  EXPECT_TRUE(r.walks.empty());

  // lambda == 0: exactly the empty walk.
  QueryId lambda0 = engine.Prepare(StaircaseNfa(0, 1), inst.source,
                                   inst.source);
  PumpResult r0 = engine.Pump(engine.OpenSession(lambda0), 8);
  EXPECT_EQ(r0.status, PumpStatus::kExhausted);
  ASSERT_EQ(r0.walks.size(), 1u);
  EXPECT_TRUE(r0.walks[0].edges.empty());
}

// The multi-threaded stress suite: client threads interleave pumps of
// random batch sizes across many sessions sharing a handful of prepared
// queries on ONE snapshot; the pool resumes each parked cursor on
// whichever worker is free. Every session must reassemble its oracle
// sequence exactly.
TEST(QueryEngineStressTest, ConcurrentClientsRandomBatches) {
  Instance inst = BubbleChain(7, 2);
  Snapshot snap = inst.db.Freeze();
  struct Q {
    Nfa nfa;
    EdgeSeq expected;
  };
  std::vector<Q> qs;
  qs.push_back({StaircaseNfa(2, 2), {}});
  qs.push_back({StaircaseNfa(1, 2), {}});
  qs.push_back({CompleteNfa(3, 2), {}});
  for (Q& q : qs)
    q.expected = Oracle(snap, q.nfa, inst.source, inst.target);
  ASSERT_GT(qs[0].expected.size(), 100u);

  QueryEngine engine(4);
  engine.InstallSnapshot(snap);
  std::vector<QueryId> ids;
  for (const Q& q : qs)
    ids.push_back(engine.Prepare(q.nfa, inst.source, inst.target));

  constexpr int kClients = 4;
  constexpr int kSessionsPerClient = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(1000 + c);
      // Each client interleaves progress across its own sessions, so
      // park/resume happens mid-enumeration constantly.
      struct Live {
        SessionId session;
        size_t query;
        EdgeSeq got;
        bool done = false;
      };
      std::vector<Live> live;
      for (int i = 0; i < kSessionsPerClient; ++i) {
        size_t pick = rng() % ids.size();
        live.push_back({engine.OpenSession(ids[pick]), pick, {}, false});
      }
      size_t remaining = live.size();
      while (remaining > 0) {
        Live& l = live[rng() % live.size()];
        if (l.done) continue;
        uint32_t batch = 1 + rng() % 9;
        PumpResult r = engine.Pump(l.session, batch);
        if (r.status == PumpStatus::kRetired ||
            r.status == PumpStatus::kBusy) {
          ++failures;
          return;
        }
        for (const Walk& w : r.walks) l.got.push_back(w.edges);
        if (r.status == PumpStatus::kExhausted) {
          l.done = true;
          --remaining;
          if (l.got != qs[l.query].expected) ++failures;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(QueryEngineTest, RetiredSessionsAreRejectedGracefully) {
  Instance inst = BubbleChain(5, 2);
  Nfa query = StaircaseNfa(2, 2);
  Snapshot snap = inst.db.Freeze();
  QueryEngine engine(2);
  engine.InstallSnapshot(snap);
  QueryId q_old = engine.Prepare(query, inst.source, inst.target);
  SessionId s_old = engine.OpenSession(q_old);
  PumpResult first = engine.Pump(s_old, 4);
  ASSERT_EQ(first.status, PumpStatus::kOk);
  ASSERT_EQ(first.walks.size(), 4u);

  // A two-edge shortcut drops lambda from 10 to 2 (StaircaseNfa(2, 2)
  // accepts any word of length >= 2). The shorter lambda breaks the
  // enumeration-order anchor, so the incremental install must NOT
  // upgrade this started session — it is retired.
  AddShortcut(inst);
  Snapshot snap2 = inst.db.Freeze();
  engine.InstallSnapshot(snap2);

  PumpResult rejected = engine.Pump(s_old, 4);
  EXPECT_EQ(rejected.status, PumpStatus::kRetired);
  EXPECT_TRUE(rejected.walks.empty());
  // Rejection is sticky.
  EXPECT_EQ(engine.Pump(s_old, 4).status, PumpStatus::kRetired);

  // A query re-prepared against the new snapshot sees the new edge and
  // runs to completion on the same engine.
  EdgeSeq expected = Oracle(snap2, query, inst.source, inst.target);
  QueryId q_new = engine.Prepare(query, inst.source, inst.target);
  PumpResult all = engine.Drain(engine.OpenSession(q_new), 8);
  EXPECT_EQ(all.status, PumpStatus::kExhausted);
  EXPECT_EQ(Edges(all.walks), expected);

  // A second shortcut keeps lambda at 2. The install touches no session
  // and counts no further retirement.
  AddShortcut(inst);
  Snapshot snap3 = inst.db.Freeze();
  engine.InstallSnapshot(snap3);
  EXPECT_EQ(engine.Stats().sessions_retired, 1u);

  // The old QueryId follows its plan's upgrades: a session opened on
  // it now drains the newest answers.
  EdgeSeq expected3 = Oracle(snap3, query, inst.source, inst.target);
  ASSERT_EQ(expected3.size(), 2u);
  PumpResult reopened = engine.Drain(engine.OpenSession(q_old), 8);
  EXPECT_EQ(reopened.status, PumpStatus::kExhausted);
  EXPECT_EQ(Edges(reopened.walks), expected3);
}

// Two clients draining ONE session race for its pump lock; the loser
// of each round sees kBusy internally. Drain must absorb those (retry
// until the session parks or exhausts) rather than returning a partial
// batch under kBusy — the regression this pins: both clients finish
// kExhausted and together they partition the oracle sequence exactly.
TEST(QueryEngineTest, ConcurrentDrainsOfOneSessionPartitionTheAnswers) {
  Instance inst = BubbleChain(8, 2);
  Nfa query = StaircaseNfa(2, 2);
  Snapshot snap = inst.db.Freeze();
  EdgeSeq expected = Oracle(snap, query, inst.source, inst.target);
  ASSERT_EQ(expected.size(), 256u);

  QueryEngine engine(2);
  engine.InstallSnapshot(snap);
  SessionId s =
      engine.OpenSession(engine.Prepare(query, inst.source, inst.target));

  PumpResult a, b;
  std::thread ta([&] { a = engine.Drain(s, 3); });
  std::thread tb([&] { b = engine.Drain(s, 5); });
  ta.join();
  tb.join();

  EXPECT_EQ(a.status, PumpStatus::kExhausted);
  EXPECT_EQ(b.status, PumpStatus::kExhausted);
  EXPECT_EQ(a.walks.size() + b.walks.size(), expected.size());

  // Each client's stream is an in-order subsequence of the oracle...
  for (const PumpResult* r : {&a, &b}) {
    size_t pos = 0;
    for (const Walk& w : r->walks) {
      while (pos < expected.size() && expected[pos] != w.edges) ++pos;
      ASSERT_LT(pos, expected.size()) << "walk out of enumeration order";
      ++pos;
    }
  }
  // ...and together they cover it exactly.
  EdgeSeq merged = Edges(a.walks);
  EdgeSeq b_edges = Edges(b.walks);
  merged.insert(merged.end(), b_edges.begin(), b_edges.end());
  std::sort(merged.begin(), merged.end());
  EdgeSeq sorted_expected = expected;
  std::sort(sorted_expected.begin(), sorted_expected.end());
  EXPECT_EQ(merged, sorted_expected);
}

// The flip side of retirement: an insert-only delta that PRESERVES
// lambda (parallel duplicates of existing edges add new distinct
// shortest walks but no shorter one) upgrades the cached plan and the
// parked session in place. The session resumes — on the repaired
// index, against the new snapshot — the exact suffix of the NEW
// enumeration order after its last delivered walk, and is never
// retired.
TEST(QueryEngineTest, ParkedSessionsSurviveInsertOnlyInstall) {
  Instance inst = BubbleChain(6, 2);
  Nfa query = StaircaseNfa(2, 2);
  Snapshot snap = inst.db.Freeze();
  QueryEngine engine(2);
  engine.InstallSnapshot(snap);
  QueryId q = engine.Prepare(query, inst.source, inst.target);
  SessionId s = engine.OpenSession(q);
  PumpResult first = engine.Pump(s, 5);
  ASSERT_EQ(first.status, PumpStatus::kOk);
  ASSERT_EQ(first.walks.size(), 5u);
  EdgeSeq old_expected = Oracle(snap, query, inst.source, inst.target);

  // Insert-only, lambda-preserving mutation: duplicate three existing
  // edges and grow the vertex set; freeze and publish incrementally.
  DuplicateEdges(inst, 0, 3);
  inst.db.AddVertices(2);
  Snapshot snap2 = inst.db.Freeze();
  engine.InstallSnapshot(snap2);

  EngineStats stats = engine.Stats();
  EXPECT_GT(stats.plans_upgraded, 0u);
  EXPECT_EQ(stats.sessions_retired, 0u);

  // Suffix check against the new-snapshot oracle: everything after the
  // session's last delivered walk, in the new order. The duplicated
  // edges added genuinely new answers, so this is not the old suffix.
  EdgeSeq new_expected = Oracle(snap2, query, inst.source, inst.target);
  ASSERT_GT(new_expected.size(), old_expected.size());
  auto anchor = std::find(new_expected.begin(), new_expected.end(),
                          first.walks.back().edges);
  ASSERT_NE(anchor, new_expected.end());
  EdgeSeq want(anchor + 1, new_expected.end());

  PumpResult rest = engine.Drain(s, 7);
  EXPECT_EQ(rest.status, PumpStatus::kExhausted);
  EXPECT_EQ(Edges(rest.walks), want);
  EXPECT_EQ(engine.Stats().sessions_retired, 0u);
  // The upgrade is counted where the parked walk is reused: at the first
  // pump after the install, once.
  EXPECT_EQ(engine.Stats().sessions_upgraded, 1u);
}

// A session resolves its plan through its QueryId at every pump, so it
// may stay parked across any number of installs. Across two
// lambda-preserving ones it resumes the newest order after its last
// walk, and the upgrade is counted once, at that pump; a session that
// is never pumped again counts nothing. Across a lambda-shrinking
// install followed by a lambda-preserving one, a started session
// retires, while a fresh session on the same QueryId serves the newest
// snapshot.
TEST(QueryEngineTest, SessionsStayParkedAcrossChainedInstalls) {
  Instance inst = BubbleChain(6, 2);
  Nfa query = StaircaseNfa(2, 2);
  QueryEngine engine(2);
  engine.InstallSnapshot(inst.db.Freeze());
  QueryId q = engine.Prepare(query, inst.source, inst.target);
  SessionId parked = engine.OpenSession(q);
  PumpResult first = engine.Pump(parked, 5);
  ASSERT_EQ(first.status, PumpStatus::kOk);
  SessionId abandoned = engine.OpenSession(q);
  ASSERT_EQ(engine.Pump(abandoned, 3).status, PumpStatus::kOk);

  Snapshot snap;
  for (uint32_t k = 0; k < 2; ++k) {
    DuplicateEdges(inst, 3 * k, 3);
    snap = inst.db.Freeze();
    engine.InstallSnapshot(snap);
  }
  EXPECT_EQ(engine.Stats().plans_upgraded, 2u);
  EXPECT_EQ(engine.Stats().sessions_upgraded, 0u);

  EdgeSeq newest = Oracle(snap, query, inst.source, inst.target);
  auto anchor = std::find(newest.begin(), newest.end(),
                          first.walks.back().edges);
  ASSERT_NE(anchor, newest.end());
  PumpResult rest = engine.Drain(parked, 7);
  EXPECT_EQ(rest.status, PumpStatus::kExhausted);
  EXPECT_EQ(Edges(rest.walks), EdgeSeq(anchor + 1, newest.end()));
  EXPECT_EQ(engine.Stats().sessions_upgraded, 1u);
  EXPECT_EQ(engine.Stats().sessions_retired, 0u);

  SessionId shortened = engine.OpenSession(q);
  ASSERT_EQ(engine.Pump(shortened, 4).status, PumpStatus::kOk);
  for (int i = 0; i < 2; ++i) {  // lambda 12 -> 2, then 2 -> 2
    AddShortcut(inst);
    snap = inst.db.Freeze();
    engine.InstallSnapshot(snap);
  }
  EXPECT_EQ(engine.Stats().plans_upgraded, 4u);

  PumpResult retired = engine.Pump(shortened, 4);
  EXPECT_EQ(retired.status, PumpStatus::kRetired);
  EXPECT_TRUE(retired.walks.empty());
  EdgeSeq expected = Oracle(snap, query, inst.source, inst.target);
  ASSERT_EQ(expected.size(), 2u);
  PumpResult fresh = engine.Drain(engine.OpenSession(q), 8);
  EXPECT_EQ(fresh.status, PumpStatus::kExhausted);
  EXPECT_EQ(Edges(fresh.walks), expected);
  EXPECT_EQ(engine.Stats().sessions_retired, 1u);
  EXPECT_EQ(engine.Stats().sessions_upgraded, 1u);
}

// A generation names a database state by its counts, so an install
// repairs from the installed snapshot across any number of freezes the
// engine never saw. After 70 uninstalled freezes (one lambda-preserving
// duplicate, then new vertices with edges out of them), one install
// upgrades both entries and detaches none, and the session parked on
// the first resumes the new order after its last walk.
TEST(QueryEngineTest, InstallRepairsAcrossUninstalledFreezes) {
  Instance inst = BubbleChain(6, 2);
  Nfa query = StaircaseNfa(2, 2);
  QueryEngine engine(2);
  engine.InstallSnapshot(inst.db.Freeze());
  QueryId q = engine.Prepare(query, inst.source, inst.target);
  engine.Prepare(StaircaseNfa(1, 2), inst.source, inst.target);
  SessionId s = engine.OpenSession(q);
  PumpResult first = engine.Pump(s, 5);
  ASSERT_EQ(first.status, PumpStatus::kOk);

  DuplicateEdges(inst, 0, 1);
  (void)inst.db.Freeze();
  for (int i = 1; i < 70; ++i) {
    inst.db.AddEdge(inst.db.AddVertex(), 0u, inst.target);
    (void)inst.db.Freeze();
  }
  const Snapshot snap = inst.db.Freeze();
  engine.InstallSnapshot(snap);
  EXPECT_EQ(engine.Stats().plans_upgraded, 2u);
  EXPECT_EQ(engine.Stats().plan_cache.invalidations, 0u);

  EdgeSeq newest = Oracle(snap, query, inst.source, inst.target);
  ASSERT_EQ(newest.size(), 96u);  // bubble 0 gained a third path
  auto anchor = std::find(newest.begin(), newest.end(),
                          first.walks.back().edges);
  ASSERT_NE(anchor, newest.end());
  PumpResult rest = engine.Drain(s, 7);
  EXPECT_EQ(rest.status, PumpStatus::kExhausted);
  EXPECT_EQ(Edges(rest.walks), EdgeSeq(anchor + 1, newest.end()));
  EXPECT_EQ(engine.Stats().sessions_upgraded, 1u);
  EXPECT_EQ(engine.Stats().sessions_retired, 0u);
}

// A session's first batch may still run on the old plan when an install
// shortens lambda. The batch parks the session on an old-length walk,
// which anchors nothing in the new order, so the session's next pump
// must retire it rather than seek the new plan to that walk. The worker
// normally takes the batch at once; a round in which it started only
// after the install published the new snapshot and plan (the batch ran
// on the new plan) checks nothing, so a loaded host can make the test
// pass without checking, never fail.
TEST(QueryEngineTest, FirstBatchInFlightAcrossLambdaShrinkingInstallRetires) {
  constexpr uint32_t kBatch = 65000;
  const Nfa query = StaircaseNfa(2, 2);
  EdgeSeq old_prefix;
  {
    Instance inst = BubbleChain(16, 2);
    old_prefix = Oracle(inst.db.Freeze(), query, inst.source, inst.target);
  }
  ASSERT_EQ(old_prefix.size(), 65536u);  // 2^16 bubbles, lambda = 32
  old_prefix.resize(kBatch);

  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    Instance inst = BubbleChain(16, 2);
    QueryEngine engine(1);
    engine.InstallSnapshot(inst.db.Freeze());
    SessionId s =
        engine.OpenSession(engine.Prepare(query, inst.source, inst.target));
    std::future<PumpResult> pending = engine.PumpAsync(s, kBatch);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    AddShortcut(inst);
    engine.InstallSnapshot(inst.db.Freeze());

    PumpResult batch = pending.get();
    if (batch.status == PumpStatus::kRetired ||
        (!batch.walks.empty() &&
         batch.walks[0].length() != old_prefix[0].size()))
      continue;  // the worker took the batch after the install began
    EXPECT_EQ(batch.status, PumpStatus::kOk);
    EXPECT_EQ(Edges(batch.walks), old_prefix);
    PumpResult next = engine.Pump(s, 4);
    EXPECT_EQ(next.status, PumpStatus::kRetired);
    EXPECT_TRUE(next.walks.empty());
  }
}

// The engine keeps the last reverse CSR it derived and, when a trim
// reads in-neighbors, derives the installed snapshot's from it, so a
// chain of incremental installs never rebuilds it from every edge. The
// chain also skips a frozen generation that was never installed and is
// broken once by a second database, which drops the kept context, so
// the first database's next derive starts from an empty one. After
// every install each query must drain to the oracle of the installed
// snapshot, through plans repaired (not rebuilt) on the incremental
// installs.
TEST(QueryEngineTest, ChainedInstallsRepairThroughDerivedContexts) {
  Instance inst = EmbedInNoise(BubbleChain(5, 2), 30, 90, 11);
  Instance other = Grid(4, 4);
  const std::vector<Nfa> queries = {StaircaseNfa(2, 2), StaircaseNfa(1, 2),
                                    CompleteNfa(3, 2)};
  QueryEngine engine(2);
  std::mt19937_64 rng(2026);
  auto expect_oracle = [&](const Instance& in, const Snapshot& snap) {
    for (const Nfa& query : queries) {
      QueryId q = engine.Prepare(query, in.source, in.target);
      PumpResult all = engine.Drain(engine.OpenSession(q), 16);
      EXPECT_EQ(all.status, PumpStatus::kExhausted);
      EXPECT_EQ(Edges(all.walks), Oracle(snap, query, in.source, in.target));
    }
  };
  auto insert_edges = [&] {
    if (rng() % 3 == 0) inst.db.AddVertices(1);
    for (int i = 0; i < 4; ++i)
      inst.db.AddEdge(static_cast<uint32_t>(rng() % inst.db.num_vertices()),
                      static_cast<uint32_t>(rng() % 2),
                      static_cast<uint32_t>(rng() % inst.db.num_vertices()));
  };

  Snapshot snap = inst.db.Freeze();
  engine.InstallSnapshot(snap);
  expect_oracle(inst, snap);
  int incremental = 0;
  for (int step = 0; step < 9; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    if (step == 4) {
      Snapshot other_snap = other.db.Freeze();
      engine.InstallSnapshot(other_snap);
      expect_oracle(other, other_snap);
      continue;
    }
    insert_edges();
    if (step == 2) {
      (void)inst.db.Freeze();  // a generation the engine never sees
      insert_edges();
    }
    const uint64_t upgraded = engine.Stats().plans_upgraded;
    snap = inst.db.Freeze();
    engine.InstallSnapshot(snap);
    if (step != 5) {  // step 5 returns from the other database
      EXPECT_EQ(engine.Stats().plans_upgraded, upgraded + queries.size());
      ++incremental;
    }
    expect_oracle(inst, snap);
  }
  EXPECT_GE(incremental, 6);
}

// An install derives the reverse CSR only when a trim reads
// in-neighbors, and derives it from the last context the engine
// derived. The first write adds a third branch to bubble 0, so a useful
// set changes and the install derives. The next three touch no useful
// set and derive nothing: an edge from hub 1 into w, a vertex with no
// out-edges; noise edges; and an edge from an unreachable new vertex
// into hub 2. The last write, w -> hub 2, keeps lambda and makes w
// useful at level 3, so the trim of level 2 reads w's in-neighbors,
// among them hub 1 through the edge of a skipped install. Every
// repaired plan must equal the serial repair through a context built
// from empty, whose trims read in-neighbors at the first and the last
// write only, and the last snapshot's answers must match the oracle.
TEST(QueryEngineTest, OnDemandContextCoversInstallsThatDerivedNone) {
  Instance inst = EmbedInNoise(BubbleChain(4, 2), 30, 90, 11);
  const uint32_t hub1 = 3, hub2 = 6;  // after one and two bubbles
  const uint32_t noise_first = inst.db.num_vertices() - 30;
  const std::vector<Nfa> queries = {StaircaseNfa(2, 2), CompleteNfa(3, 2)};
  QueryEngine engine(2);
  Snapshot snap = inst.db.Freeze();
  engine.InstallSnapshot(snap);
  std::vector<QueryId> ids;
  for (const Nfa& query : queries)
    ids.push_back(engine.Prepare(query, inst.source, inst.target));
  const uint32_t w = inst.db.AddVertex();  // inside every derived context
  std::mt19937_64 rng(7);
  struct Write {
    std::function<void()> apply;
    bool reads_in_neighbors;
  };
  const std::vector<Write> writes = {
      {[&] {
         const uint32_t m = inst.db.AddVertex();
         inst.db.AddEdge(inst.source, 0u, m);
         inst.db.AddEdge(m, 0u, hub1);
       },
       true},
      {[&] { inst.db.AddEdge(hub1, 0u, w); }, false},
      {[&] {
         for (int e = 0; e < 6; ++e)
           inst.db.AddEdge(noise_first + static_cast<uint32_t>(rng() % 30),
                           static_cast<uint32_t>(rng() % 2),
                           noise_first + static_cast<uint32_t>(rng() % 30));
       },
       false},
      {[&] { inst.db.AddEdge(inst.db.AddVertex(), 1u, hub2); }, false},
      {[&] { inst.db.AddEdge(w, 1u, hub2); }, true},
  };
  for (size_t k = 0; k < writes.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "write " << k);
    writes[k].apply();
    const Snapshot next = inst.db.Freeze();
    const EdgeDelta delta = next.DeltaFrom(snap.generation());
    const DeltaContext ctx(next);
    bool read = false;
    const std::function<const DeltaContext&()> context =
        [&]() -> const DeltaContext& {
      read = true;
      return ctx;
    };
    std::vector<std::shared_ptr<const PreparedQuery>> old;
    for (QueryId id : ids) old.push_back(engine.Plan(id));
    ASSERT_TRUE(engine.InstallSnapshot(next));
    for (size_t q = 0; q < ids.size(); ++q) {
      Annotation ann = old[q]->ann;
      const AnnotationRepair rep = DeltaAnnotate(next, delta, &ann);
      ASSERT_TRUE(rep.ok);
      ASSERT_FALSE(rep.lambda_changed);
      const std::shared_ptr<const PreparedQuery> plan = engine.Plan(ids[q]);
      ASSERT_NE(plan, nullptr);
      ExpectAnnotationsEqual(plan->ann, ann);
      ExpectTrimsEqual(
          plan->index.trimmed(),
          DeltaTrim(next, ann, old[q]->index.trimmed(), rep, delta, context));
    }
    EXPECT_EQ(read, writes[k].reads_in_neighbors);
    snap = next;
  }
  for (size_t q = 0; q < ids.size(); ++q) {
    const PumpResult all = engine.Drain(engine.OpenSession(ids[q]), 16);
    EXPECT_EQ(all.status, PumpStatus::kExhausted);
    EXPECT_EQ(Edges(all.walks),
              Oracle(snap, queries[q], inst.source, inst.target));
  }
}

// An install repairs its plans on the installing thread and on every
// worker at once. Nine entries (the three queries above from three
// sources on the chain) go through 24 chained incremental installs at
// 1, 2 and 4 workers while two clients drain them, one batch per
// session. Every drain equals the oracle of a snapshot that was
// installed while it ran, every install upgrades every entry, and each
// repaired plan equals, bit for bit, the serial DeltaAnnotate +
// DeltaTrim of the plan it replaced. Run under ThreadSanitizer in CI.
TEST(QueryEngineTest, RepairsOnEveryThreadMatchSerialRepairs) {
  constexpr int kInstalls = 24;
  constexpr uint32_t kBatch = 1u << 20;  // one batch holds every answer
  const std::vector<Nfa> queries = {StaircaseNfa(2, 2), StaircaseNfa(1, 2),
                                    CompleteNfa(3, 2)};
  for (uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << threads << " workers");
    Instance inst = EmbedInNoise(BubbleChain(5, 2), 30, 90, 11);
    QueryEngine engine(threads);
    Snapshot snap = inst.db.Freeze();
    engine.InstallSnapshot(snap);

    struct Key {
      const Nfa* query;
      uint32_t source;
      QueryId id;
    };
    std::vector<Key> keys;
    for (const Nfa& query : queries)
      for (uint32_t source : {0u, 3u, 6u}) {  // hubs after 0, 1, 2 bubbles
        keys.push_back({&query, source,
                        engine.Prepare(query, source, inst.target)});
        ASSERT_TRUE(engine.Plan(keys.back().id)->ann.reachable());
      }
    // oracles[i][k]: key k's answers on the snapshot of install i.
    std::vector<std::vector<EdgeSeq>> oracles(kInstalls + 1);
    auto oracles_of = [&](const Snapshot& s) {
      std::vector<EdgeSeq> out;
      for (const Key& key : keys)
        out.push_back(Oracle(s, *key.query, key.source, inst.target));
      return out;
    };
    oracles[0] = oracles_of(snap);

    // A drain that starts after install `installed` and ends before
    // install `installing` + 1 runs on the plan of one of them.
    std::atomic<int> installing{0}, installed{0};
    std::atomic<bool> done{false};
    std::atomic<int> drains{0}, mismatches{0};
    std::vector<std::thread> clients;
    for (size_t c = 0; c < 2; ++c)
      clients.emplace_back([&, c] {
        for (size_t k = c; !done.load(); k = (k + 1) % keys.size()) {
          const int lo = installed.load();
          const SessionId s = engine.OpenSession(keys[k].id);
          const PumpResult r = engine.Pump(s, kBatch);
          engine.CloseSession(s);
          const int hi = installing.load();
          bool match = false;
          for (int i = lo; i <= hi && !match; ++i)
            match = Edges(r.walks) == oracles[i][k];
          if (r.status != PumpStatus::kExhausted || !match) ++mismatches;
          ++drains;
        }
      });

    std::mt19937_64 rng(2026 + threads);
    for (int i = 1; i <= kInstalls; ++i) {
      SCOPED_TRACE(testing::Message() << "install " << i);
      if (rng() % 3 == 0) inst.db.AddVertices(1);
      for (int e = 0; e < 4; ++e)
        inst.db.AddEdge(static_cast<uint32_t>(rng() % inst.db.num_vertices()),
                        static_cast<uint32_t>(rng() % 2),
                        static_cast<uint32_t>(rng() % inst.db.num_vertices()));
      const Snapshot next = inst.db.Freeze();
      const EdgeDelta delta = next.DeltaFrom(snap.generation());
      const DeltaContext ctx(next);
      std::vector<std::shared_ptr<const PreparedQuery>> old;
      for (const Key& key : keys) old.push_back(engine.Plan(key.id));
      oracles[i] = oracles_of(next);

      installing.store(i);
      const uint64_t upgraded = engine.Stats().plans_upgraded;
      engine.InstallSnapshot(next);
      installed.store(i);
      EXPECT_EQ(engine.Stats().plans_upgraded, upgraded + keys.size());

      // No ASSERT while the clients run: they must be joined.
      for (size_t k = 0; k < keys.size(); ++k) {
        Annotation ann = old[k]->ann;
        const AnnotationRepair rep = DeltaAnnotate(next, delta, &ann);
        const std::shared_ptr<const PreparedQuery> plan =
            engine.Plan(keys[k].id);
        EXPECT_TRUE(rep.ok);
        EXPECT_NE(plan, nullptr);
        if (!rep.ok || plan == nullptr) continue;
        EXPECT_EQ(plan->index.snapshot().generation(), next.generation());
        ExpectAnnotationsEqual(plan->ann, ann);
        ExpectTrimsEqual(
            plan->index.trimmed(),
            DeltaTrim(next, ann, old[k]->index.trimmed(), rep, delta, ctx));
        ExpectSpansMatchSources(plan->index);
      }
      snap = next;
      // Let a drain end, so the installs land between and inside drains.
      const int ended = drains.load();
      while (drains.load() == ended) std::this_thread::yield();
    }
    done = true;
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_GE(drains.load(), kInstalls);
  }
}

// PrepareRegex interns every atom into the caller's dictionary, which
// has no lock of its own, so concurrent calls naming labels the
// dictionary lacks must take turns at it. Each of four clients prepares
// 200 queries that each name a new label: the dictionary grows by
// exactly 800 entries and every query drains to no answers.
// Overlapping installs take turns. Two threads install interleaved,
// pre-frozen snapshots of one database (older ones included, which
// detach the table) while a client prepares and drains; without the
// install lock the two calls race on the kept reverse CSR and on the
// table's repair flag, and can leave plans repaired through a context
// of another generation. Then the newest snapshot is installed, and
// every query prepared afresh must drain to its oracle on it.
TEST(QueryEngineTest, OverlappingInstallsTakeTurns) {
  Instance inst = BubbleChain(6, 2);
  const std::vector<Nfa> queries = {StaircaseNfa(2, 2), StaircaseNfa(3, 2),
                                    StaircaseNfa(1, 2)};
  QueryEngine engine(2);
  engine.InstallSnapshot(inst.db.Freeze());
  for (const Nfa& q : queries) engine.Prepare(q, inst.source, inst.target);

  std::mt19937_64 rng(77);
  std::vector<Snapshot> snaps;
  for (int i = 0; i < 40; ++i) {
    if (rng() % 3 == 0) inst.db.AddVertices(1);
    for (int e = 0; e < 3; ++e)
      inst.db.AddEdge(static_cast<uint32_t>(rng() % inst.db.num_vertices()),
                      static_cast<uint32_t>(rng() % 2),
                      static_cast<uint32_t>(rng() % inst.db.num_vertices()));
    snaps.push_back(inst.db.Freeze());
  }

  std::atomic<bool> done{false};
  std::thread client([&] {
    for (size_t k = 0; !done.load(); ++k) {
      const Nfa& q = queries[k % queries.size()];
      const QueryId id = engine.Prepare(q, inst.source, inst.target);
      const SessionId s = engine.OpenSession(id);
      engine.Drain(s, 8);  // any status: installs may retire it
      engine.CloseSession(s);
      engine.ReleaseQuery(id);
    }
  });
  auto installer = [&](size_t first) {
    for (size_t i = first; i < snaps.size(); i += 2)
      engine.InstallSnapshot(snaps[i]);
  };
  std::thread even(installer, 0), odd(installer, 1);
  even.join();
  odd.join();
  done = true;
  client.join();

  engine.InstallSnapshot(snaps.back());
  for (const Nfa& q : queries) {
    const QueryId id = engine.Prepare(q, inst.source, inst.target);
    PumpResult r = engine.Drain(engine.OpenSession(id), 16);
    EXPECT_EQ(r.status, PumpStatus::kExhausted);
    EXPECT_EQ(Edges(r.walks),
              Oracle(snaps.back(), q, inst.source, inst.target));
  }
}

TEST(QueryEngineTest, ConcurrentPrepareRegexInternsNewLabels) {
  Instance inst = BubbleChain(3, 2);
  QueryEngine engine(2);
  engine.InstallSnapshot(inst.db.Freeze());
  LabelDictionary* dict = inst.db.mutable_dict();
  const uint32_t labels_before = dict->size();
  constexpr int kClients = 4;
  constexpr int kQueries = 200;
  std::vector<std::vector<PrepareRegexResult>> results(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (int i = 0; i < kQueries; ++i)
        results[c].push_back(engine.PrepareRegex(
            "l0* x" + std::to_string(c) + "_" + std::to_string(i), dict,
            inst.source, inst.target));
    });
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(dict->size(), labels_before + kClients * kQueries);
  for (const std::vector<PrepareRegexResult>& client : results)
    for (const PrepareRegexResult& r : client) {
      ASSERT_TRUE(r.ok) << r.error;
      PumpResult all = engine.Drain(engine.OpenSession(r.id), 16);
      EXPECT_EQ(all.status, PumpStatus::kExhausted);
      EXPECT_TRUE(all.walks.empty());
    }
}

// Prepare and Pump read only sealed snapshots, so the control thread
// grows the graph, freezes and installs while two clients keep
// preparing and draining, with their pumps in flight. The new edges run
// among new vertices and from noise vertices into them, which changes
// no answer and no answer order. An install publishes the new snapshot
// together with the repaired plans, so a pump sees either the old
// snapshot and plans or the new ones: every drain — on a plan built
// before or after an install, or upgraded in the middle of the drain —
// runs to exhaustion, equals the first snapshot's oracle, and no
// session retires. Run under ThreadSanitizer in CI.
TEST(QueryEngineTest, MutationWhilePumpingServesOneAnswerSet) {
  constexpr uint32_t kNoise = 40;
  Instance inst = EmbedInNoise(BubbleChain(5, 2), kNoise, 160, 5);
  const uint32_t first_noise = inst.db.num_vertices() - kNoise;
  const Nfa query = StaircaseNfa(2, 2);
  Snapshot snap = inst.db.Freeze();
  const EdgeSeq expected = Oracle(snap, query, inst.source, inst.target);
  ASSERT_EQ(expected.size(), 32u);  // 2^5 bubbles

  QueryEngine engine(2);
  engine.InstallSnapshot(snap);
  std::atomic<bool> done{false};
  std::atomic<int> drains{0};
  std::atomic<int> unexhausted{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < 2; ++c)
    clients.emplace_back([&, c] {
      while (!done.load()) {
        SessionId s = engine.OpenSession(
            engine.Prepare(query, inst.source, inst.target));
        PumpResult all = engine.Drain(s, 3 + c);
        if (all.status != PumpStatus::kExhausted)
          ++unexhausted;
        else if (Edges(all.walks) != expected)
          ++mismatches;
        ++drains;
      }
    });

  std::mt19937 rng(17);
  for (int round = 0; round < 200; ++round) {
    const uint32_t first = inst.db.AddVertices(2);
    const uint32_t noise = first_noise + static_cast<uint32_t>(rng() % kNoise);
    inst.db.AddEdge(first, static_cast<uint32_t>(rng() % 2), first + 1);
    inst.db.AddEdge(noise, static_cast<uint32_t>(rng() % 2), first);
    engine.InstallSnapshot(inst.db.Freeze());
    // Wait for a drain to end, so the installs land between and inside
    // drains instead of all before the first.
    const int ended = drains.load();
    while (drains.load() == ended) std::this_thread::yield();
  }
  done = true;
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(unexhausted.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(engine.Stats().sessions_retired, 0u);
  EXPECT_GE(drains.load(), 200);
}

// Stale and unknown ids are ordinary input. A pump on a session id the
// engine never issued, or on a closed one, returns kRetired — also once
// a new session reuses the closed one's slot under a fresh id.
TEST(QueryEngineTest, PumpOnUnknownOrClosedSessionRetires) {
  Instance inst = BubbleChain(3, 2);
  QueryEngine engine(1);
  engine.InstallSnapshot(inst.db.Freeze());
  EXPECT_EQ(engine.Pump(0, 4).status, PumpStatus::kRetired);
  EXPECT_EQ(engine.Pump(12345, 4).status, PumpStatus::kRetired);

  QueryId q = engine.Prepare(StaircaseNfa(1, 2), inst.source, inst.target);
  SessionId closed = engine.OpenSession(q);
  engine.CloseSession(closed);
  EXPECT_EQ(engine.Pump(closed, 4).status, PumpStatus::kRetired);
  SessionId reused = engine.OpenSession(q);
  EXPECT_NE(reused, closed);
  EXPECT_EQ(engine.Pump(closed, 4).status, PumpStatus::kRetired);
  engine.CloseSession(closed);  // ignored: reused stays open
  EXPECT_EQ(engine.Drain(reused).status, PumpStatus::kExhausted);
  EXPECT_EQ(engine.Stats().open_sessions, 1u);
  EXPECT_EQ(engine.Stats().sessions_retired, 0u);  // no session retired
}

// A session opened on a QueryId the engine never issued, or on a
// released one, retires at its first pump; a session opened before the
// release retires at its next.
TEST(QueryEngineTest, SessionOnUnknownOrReleasedQueryRetires) {
  Instance inst = BubbleChain(3, 2);
  QueryEngine engine(1);
  engine.InstallSnapshot(inst.db.Freeze());
  EXPECT_EQ(engine.Pump(engine.OpenSession(987654321), 4).status,
            PumpStatus::kRetired);

  QueryId q = engine.Prepare(StaircaseNfa(1, 2), inst.source, inst.target);
  SessionId before = engine.OpenSession(q);
  ASSERT_EQ(engine.Pump(before, 1).status, PumpStatus::kOk);
  engine.ReleaseQuery(q);
  EXPECT_EQ(engine.Pump(before, 1).status, PumpStatus::kRetired);
  EXPECT_EQ(engine.Pump(engine.OpenSession(q), 1).status,
            PumpStatus::kRetired);
  engine.ReleaseQuery(q);  // ignored
  EXPECT_EQ(engine.Stats().open_queries, 0u);
  EXPECT_EQ(engine.Stats().sessions_retired, 3u);
}

// With no snapshot installed, Prepare returns kNoQuery, which no
// Prepare ever issues, so its sessions retire; PrepareRegex reports the
// missing snapshot in its result before it interns or compiles
// anything. Nothing is built.
TEST(QueryEngineTest, PrepareWithoutSnapshotReturnsAStatus) {
  Instance inst = BubbleChain(3, 2);
  QueryEngine engine(1);
  QueryId q = engine.Prepare(StaircaseNfa(1, 2), inst.source, inst.target);
  EXPECT_EQ(q, kNoQuery);
  EXPECT_EQ(engine.Pump(engine.OpenSession(q), 4).status,
            PumpStatus::kRetired);
  const uint32_t labels = inst.db.mutable_dict()->size();
  PrepareRegexResult r = engine.PrepareRegex(
      "new0 new1", inst.db.mutable_dict(), inst.source, inst.target);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.id, kNoQuery);
  EXPECT_EQ(inst.db.mutable_dict()->size(), labels);
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.frontend_thompson + stats.frontend_glushkov, 0u);
  EXPECT_EQ(stats.plan_cache.misses, 0u);
  EXPECT_EQ(stats.open_queries, 0u);
}

// A null snapshot is ordinary input: InstallSnapshot returns false and
// changes nothing, before the first install and after it. The engine
// keeps its snapshot and its plans, and a prepared query drains to the
// installed snapshot's oracle.
TEST(QueryEngineTest, NullInstallReturnsFalseAndChangesNothing) {
  Instance inst = BubbleChain(4, 2);
  Nfa query = StaircaseNfa(2, 2);
  QueryEngine engine(1);
  EXPECT_FALSE(engine.InstallSnapshot(Snapshot()));
  EXPECT_EQ(engine.Prepare(query, inst.source, inst.target), kNoQuery);

  const Snapshot snap = inst.db.Freeze();
  EXPECT_TRUE(engine.InstallSnapshot(snap));
  QueryId q = engine.Prepare(query, inst.source, inst.target);
  EXPECT_FALSE(engine.InstallSnapshot(Snapshot()));
  EXPECT_EQ(engine.Stats().plan_cache.invalidations, 0u);
  PumpResult all = engine.Drain(engine.OpenSession(q), 5);
  EXPECT_EQ(all.status, PumpStatus::kExhausted);
  EXPECT_EQ(Edges(all.walks), Oracle(snap, query, inst.source, inst.target));
  EXPECT_EQ(engine.Stats().plan_cache.misses, 1u);  // the plan was kept
}

// The engine stays bounded however long it runs. Each of 200 cycles
// makes a lambda-preserving insert and installs it, prepares six keys,
// pumps a session on each, then closes every session and releases every
// handle. After every cycle the plan table holds at most the six keys
// within the byte budget, and no handle or session is open. Run under
// ASan+UBSan and ThreadSanitizer in CI.
TEST(QueryEngineSoakTest, ChurnStaysBounded) {
  constexpr uint32_t kNoise = 30;
  constexpr size_t kBudget = size_t{8} << 10;
  Instance inst = EmbedInNoise(BubbleChain(4, 2), kNoise, 90, 3);
  const uint32_t first_noise = inst.db.num_vertices() - kNoise;
  const std::vector<Nfa> queries = {StaircaseNfa(2, 2), StaircaseNfa(1, 2),
                                    CompleteNfa(3, 2)};
  EngineOptions opts;
  opts.num_threads = 2;
  opts.plan_cache_bytes = kBudget;
  QueryEngine engine(opts);
  engine.InstallSnapshot(inst.db.Freeze());
  std::mt19937 rng(7);
  for (int cycle = 0; cycle < 200; ++cycle) {
    SCOPED_TRACE(testing::Message() << "cycle " << cycle);
    const uint32_t first = inst.db.AddVertices(2);
    const uint32_t noise = first_noise + static_cast<uint32_t>(rng() % kNoise);
    inst.db.AddEdge(first, static_cast<uint32_t>(rng() % 2), first + 1);
    inst.db.AddEdge(noise, static_cast<uint32_t>(rng() % 2), first);
    engine.InstallSnapshot(inst.db.Freeze());

    std::vector<QueryId> ids;
    std::vector<SessionId> sessions;
    for (const Nfa& query : queries)
      for (uint32_t source : {inst.source, first_noise}) {
        ids.push_back(engine.Prepare(query, source, inst.target));
        sessions.push_back(engine.OpenSession(ids.back()));
        ASSERT_NE(engine.Pump(sessions.back(), 3).status,
                  PumpStatus::kRetired);
      }
    for (SessionId s : sessions) engine.CloseSession(s);
    for (QueryId q : ids) engine.ReleaseQuery(q);

    const EngineStats stats = engine.Stats();
    EXPECT_EQ(stats.open_queries, 0u);
    EXPECT_EQ(stats.open_sessions, 0u);
    EXPECT_LE(stats.plan_cache.entries, ids.size());
    EXPECT_LE(stats.plan_cache.bytes_used, kBudget);
  }
  EXPECT_GT(engine.Stats().plan_cache.evictions, 0u);
  EXPECT_GT(engine.Stats().plan_cache.upgrades, 0u);
}

// No engine: the snapshot layer alone must let raw threads share one
// frozen snapshot — each thread builds its own annotations, indexes and
// enumerators concurrently. Before the snapshot refactor the first
// label_index() access rebuilt a mutable cache and this raced; now the
// build happened in Freeze() and the read path is const. Each thread
// annotates several queries in sequence, starting at a different one,
// so every product BFS after its first reuses the thread's scratch
// across one-, two- and three-word queries. TSan (CI matrix) verifies
// the absence of the race, the EXPECTs verify the shared data was not
// corrupted.
TEST(SnapshotConcurrencyTest, ReadersShareOneSnapshotWithoutLocks) {
  Instance inst = EmbedInNoise(BubbleChain(6, 2), 40, 160, 7);
  Snapshot snap = inst.db.Freeze();
  const std::vector<Nfa> queries = {
      StaircaseNfa(2, 2), SpreadStates(StaircaseNfa(2, 2), 3),
      CompleteNfa(3, 2), SpreadStates(StaircaseNfa(1, 2), 2)};
  std::vector<EdgeSeq> expected;
  for (const Nfa& query : queries) {
    expected.push_back(Oracle(snap, query, inst.source, inst.target));
    ASSERT_GT(expected.back().size(), 0u);
  }

  constexpr int kReaders = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      for (size_t k = 0; k < queries.size(); ++k) {
        const size_t j = (static_cast<size_t>(i) + k) % queries.size();
        Annotation ann =
            Annotate(snap, queries[j], inst.source, inst.target);
        ResumableIndex index(snap, ann);
        ResumableEnumerator en(ann, index, inst.source, inst.target);
        EdgeSeq got;
        for (; en.Valid(); en.Next()) got.push_back(en.walk().edges);
        if (got != expected[j]) ++mismatches;
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// And the sharing the engine actually performs: many enumerators over
// ONE prepared (annotation, index) pair, concurrently.
TEST(SnapshotConcurrencyTest, EnumeratorsShareOnePreparedQuery) {
  Instance inst = BubbleChain(8, 2);
  Snapshot snap = inst.db.Freeze();
  Nfa query = StaircaseNfa(2, 2);
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ResumableIndex index(snap, ann);
  EdgeSeq expected = Oracle(snap, query, inst.source, inst.target);

  constexpr int kReaders = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      // Stagger entry points: thread i starts from answer i via the
      // memoryless SeekAfter, then walks to the end.
      ResumableEnumerator en(ann, index, inst.source, inst.target);
      size_t start = static_cast<size_t>(i) % expected.size();
      if (start > 0) {
        Walk w;
        w.edges = expected[start - 1];
        if (!en.SeekAfter(w)) {
          ++mismatches;
          return;
        }
      }
      EdgeSeq got;
      for (; en.Valid(); en.Next()) got.push_back(en.walk().edges);
      EdgeSeq want(expected.begin() + static_cast<ptrdiff_t>(start),
                   expected.end());
      if (got != want) ++mismatches;
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace dsw
