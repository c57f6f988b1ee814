// The concurrent query engine, pinned from four sides:
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
//     that preserves lambda upgrades plans and parked sessions in place
//     (they resume the correct suffix of the NEW enumeration, no
//     kRetired); a delta that shortens lambda breaks the enumeration
//     order anchor, so started sessions are rejected gracefully
//     (PumpStatus::kRetired, stale index untouched).
//  4. The snapshot layer itself: raw reader threads sharing one
//     Snapshot build annotations/indexes/enumerators concurrently with
//     no engine and no synchronization.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "core/annotate.h"
#include "core/resumable_enumerator.h"
#include "core/resumable_index.h"
#include "engine/engine.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

using EdgeSeq = std::vector<std::vector<uint32_t>>;

EdgeSeq Edges(const std::vector<Walk>& walks) {
  EdgeSeq out;
  out.reserve(walks.size());
  for (const Walk& w : walks) out.push_back(w.edges);
  return out;
}

// Single-threaded ground truth for (query, source, target) on a frozen
// snapshot.
EdgeSeq Oracle(const Snapshot& snap, const Nfa& query, uint32_t source,
               uint32_t target) {
  Annotation ann = Annotate(snap, query, source, target);
  ResumableIndex index(snap, ann);
  EdgeSeq out;
  for (ResumableEnumerator en(ann, index, source, target); en.Valid();
       en.Next())
    out.push_back(en.walk().edges);
  return out;
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
  uint32_t mid = inst.db.AddVertex();
  inst.db.AddEdge(inst.source, 0u, mid);
  inst.db.AddEdge(mid, 0u, inst.target);
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
  // (Before mutating: the old snapshot's accessors assert freshness.)
  EdgeSeq old_expected = Oracle(snap, query, inst.source, inst.target);

  // Insert-only, lambda-preserving mutation: duplicate three existing
  // edges and grow the vertex set; freeze and publish incrementally.
  for (uint32_t id = 0; id < 3; ++id)
    inst.db.AddEdge(inst.db.src(id), inst.db.edge(id).label,
                    inst.db.dst(id));
  inst.db.AddVertices(2);
  Snapshot snap2 = inst.db.Freeze();
  engine.InstallSnapshot(snap2);

  EngineStats stats = engine.Stats();
  EXPECT_GT(stats.plans_upgraded, 0u);
  EXPECT_GT(stats.sessions_upgraded, 0u);
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
}

// No engine: the snapshot layer alone must let raw threads share one
// frozen snapshot — each thread builds its own annotation, index and
// enumerator concurrently. Before the snapshot refactor the first
// label_index() access rebuilt a mutable cache and this raced; now the
// build happened in Freeze() and the read path is const. TSan (CI
// matrix) verifies the absence of the race, the EXPECTs verify the
// shared data was not corrupted.
TEST(SnapshotConcurrencyTest, ReadersShareOneSnapshotWithoutLocks) {
  Instance inst = EmbedInNoise(BubbleChain(6, 2), 40, 160, 7);
  Snapshot snap = inst.db.Freeze();
  Nfa query = StaircaseNfa(2, 2);
  EdgeSeq expected = Oracle(snap, query, inst.source, inst.target);
  ASSERT_GT(expected.size(), 0u);

  constexpr int kReaders = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      Annotation ann = Annotate(snap, query, inst.source, inst.target);
      ResumableIndex index(snap, ann);
      ResumableEnumerator en(ann, index, inst.source, inst.target);
      EdgeSeq got;
      for (; en.Valid(); en.Next()) got.push_back(en.walk().edges);
      if (got != expected) ++mismatches;
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
