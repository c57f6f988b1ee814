// The cross-query plan cache and its engine integration, pinned on the
// properties the PR claims:
//
//  - Warm hits do ZERO annotate/trim work. Build work is observable in
//    PlanCacheStats.misses (each miss is exactly one build), so
//    "repeat Prepare is free" is asserted as misses staying flat while
//    hits climb — including across textually different but equivalent
//    regexes, which reach the same canonical automaton bytes.
//  - Single-flight: concurrent cold Prepares of one key build once;
//    everyone else blocks and shares the one result. Run under TSan in
//    CI, this doubles as the race regression test for the cache.
//  - Invalidation: with incremental install disabled, InstallSnapshot
//    drops entries of other generations and stale sessions retire
//    gracefully (and are counted); with it enabled (the default), an
//    insert-only delta upgrades entries in place instead (counted as
//    upgrades, served as warm hits). A building claim invalidated
//    mid-wait is re-claimed and rebuilt, never lost.
//  - Byte-budget LRU: a tiny budget keeps the cache bounded and
//    evicting; budget 0 disables caching outright (the bench's cold
//    arm) with every call building.
//  - PrepareBatch: many sources resolve through one multi-source BFS,
//    answers identical to per-source Prepare; warm batches are pure
//    hits; duplicate sources alias a single entry.
//  - The per-worker enumerator LRU is bounded by worker_cache_entries
//    and evictions are visible in EngineStats.
//
// Everything is cross-checked against the single-threaded
// annotate/trim/enumerate oracle: cache plumbing must never change
// answers, only the work done to produce them.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/annotate.h"
#include "core/resumable_index.h"
#include "engine/engine.h"
#include "engine/plan_cache.h"
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

EdgeSeq DrainAll(QueryEngine& engine, QueryId q, uint32_t batch = 16) {
  PumpResult r = engine.Drain(engine.OpenSession(q), batch);
  EXPECT_EQ(r.status, PumpStatus::kExhausted);
  return Edges(r.walks);
}

TEST(PlanCacheTest, WarmPrepareDoesNoBuildWork) {
  Instance inst = BubbleChain(7, 2);
  Nfa query = StaircaseNfa(2, 2);
  Snapshot snap = inst.db.Freeze();
  EdgeSeq expected = Oracle(snap, query, inst.source, inst.target);

  QueryEngine engine(2);
  engine.InstallSnapshot(snap);
  QueryId q1 = engine.Prepare(query, inst.source, inst.target);
  EngineStats cold = engine.Stats();
  EXPECT_EQ(cold.plan_cache.misses, 1u);
  EXPECT_EQ(cold.plan_cache.hits, 0u);
  EXPECT_EQ(cold.plan_cache.entries, 1u);
  EXPECT_GT(cold.plan_cache.bytes_used, 0u);

  // The acceptance criterion: repeat Prepares are pure cache hits —
  // misses (== builds) stay flat, so no annotate/trim ran.
  QueryId q2 = engine.Prepare(query, inst.source, inst.target);
  QueryId q3 = engine.Prepare(query, inst.source, inst.target);
  EngineStats warm = engine.Stats();
  EXPECT_EQ(warm.plan_cache.misses, 1u);
  EXPECT_EQ(warm.plan_cache.hits, 2u);
  EXPECT_EQ(warm.plan_cache.entries, 1u);
  EXPECT_EQ(warm.plan_cache.bytes_used, cold.plan_cache.bytes_used);

  // Distinct endpoints are distinct plans, not hits.
  engine.Prepare(query, inst.source, inst.source);
  EXPECT_EQ(engine.Stats().plan_cache.misses, 2u);

  for (QueryId q : {q1, q2, q3}) EXPECT_EQ(DrainAll(engine, q), expected);
}

TEST(PlanCacheTest, EquivalentRegexesShareOneEntry) {
  Instance inst = BubbleChain(6, 2);
  {
    QueryEngine engine(2);
    engine.InstallSnapshot(inst.db.Freeze());
    LabelDictionary* dict = inst.db.mutable_dict();

    PrepareRegexResult a = engine.PrepareRegex("(l0|l1)* l1 (l0|l1)?", dict,
                                               inst.source, inst.target);
    ASSERT_TRUE(a.ok);
    // Same language, different text: flipped alternands, stacked
    // repetition spelled differently.
    PrepareRegexResult b = engine.PrepareRegex("(l1|l0)* l1 ((l1|l0)?)?",
                                               dict, inst.source, inst.target);
    ASSERT_TRUE(b.ok);
    EngineStats stats = engine.Stats();
    EXPECT_EQ(stats.plan_cache.misses, 1u);
    EXPECT_EQ(stats.plan_cache.hits, 1u);
    EXPECT_EQ(stats.frontend_thompson + stats.frontend_glushkov, 2u);

    EXPECT_EQ(DrainAll(engine, a.id), DrainAll(engine, b.id));

    // Parse failures surface in the result and touch nothing.
    PrepareRegexResult bad = engine.PrepareRegex("((l0", dict, inst.source,
                                                 inst.target);
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.error.empty());
    EXPECT_EQ(engine.Stats().plan_cache.misses, 1u);
  }
}

// The drop-everything install path, kept reachable by the
// incremental_install kill-switch: with delta repair disabled, a new
// generation invalidates every cached plan and retires every started
// session — the pre-incremental contract, verbatim.
TEST(PlanCacheTest, InstallSnapshotInvalidatesAndRetires) {
  Instance inst = BubbleChain(5, 2);
  Nfa query = StaircaseNfa(2, 2);
  EngineOptions opts;
  opts.num_threads = 2;
  opts.incremental_install = false;
  QueryEngine engine(opts);
  engine.InstallSnapshot(inst.db.Freeze());
  QueryId q_old = engine.Prepare(query, inst.source, inst.target);
  SessionId s_old = engine.OpenSession(q_old);
  ASSERT_EQ(engine.Pump(s_old, 4).status, PumpStatus::kOk);
  ASSERT_EQ(engine.Stats().plan_cache.entries, 1u);

  inst.db.AddEdge(inst.source, 0u, inst.target);
  Snapshot snap2 = inst.db.Freeze();
  engine.InstallSnapshot(snap2);

  EngineStats after = engine.Stats();
  EXPECT_EQ(after.plan_cache.invalidations, 1u);
  EXPECT_EQ(after.plan_cache.entries, 0u);
  EXPECT_EQ(after.plan_cache.bytes_used, 0u);

  // The retired session still fails gracefully — and is counted.
  EXPECT_EQ(engine.Pump(s_old, 4).status, PumpStatus::kRetired);
  EXPECT_GE(engine.Stats().sessions_retired, 1u);

  // Re-preparing against the new snapshot is a fresh build with fresh
  // answers.
  QueryId q_new = engine.Prepare(query, inst.source, inst.target);
  EXPECT_EQ(engine.Stats().plan_cache.misses, 2u);
  EXPECT_EQ(DrainAll(engine, q_new),
            Oracle(snap2, query, inst.source, inst.target));
}

// The incremental install path: an insert-only, lambda-preserving
// delta re-keys the cached plan to the new generation by delta repair
// (TakeGeneration + InsertUpgraded) instead of dropping it. The
// upgraded entry serves warm hits, the remapped QueryId enumerates the
// new snapshot's answers, and nothing was invalidated.
TEST(PlanCacheTest, IncrementalInstallUpgradesEntriesInPlace) {
  Instance inst = BubbleChain(5, 2);
  Nfa query = StaircaseNfa(2, 2);
  QueryEngine engine(2);
  engine.InstallSnapshot(inst.db.Freeze());
  QueryId q = engine.Prepare(query, inst.source, inst.target);
  ASSERT_EQ(engine.Stats().plan_cache.entries, 1u);

  // A parallel duplicate of an existing edge: new distinct shortest
  // walks, same lambda.
  inst.db.AddEdge(inst.db.src(0), inst.db.edge(0).label, inst.db.dst(0));
  Snapshot snap2 = inst.db.Freeze();
  engine.InstallSnapshot(snap2);

  EngineStats after = engine.Stats();
  EXPECT_EQ(after.plan_cache.upgrades, 1u);
  EXPECT_EQ(after.plan_cache.entries, 1u);
  EXPECT_EQ(after.plan_cache.invalidations, 0u);
  EXPECT_EQ(after.plans_upgraded, 1u);

  // A warm Prepare against the new generation hits the upgraded entry —
  // no rebuild ran.
  QueryId q2 = engine.Prepare(query, inst.source, inst.target);
  EngineStats warm = engine.Stats();
  EXPECT_EQ(warm.plan_cache.misses, after.plan_cache.misses);
  EXPECT_EQ(warm.plan_cache.hits, after.plan_cache.hits + 1);

  EdgeSeq expected = Oracle(snap2, query, inst.source, inst.target);
  EXPECT_EQ(DrainAll(engine, q), expected);  // old QueryId was remapped
  EXPECT_EQ(DrainAll(engine, q2), expected);
}

// A GetOrBuildBatch phase-3 waiter whose awaited claim is dropped by
// Invalidate mid-wait must wake, re-claim the vacant key, and rebuild
// — the batch result is never null and the builder's orphaned value
// goes to its own caller only. The deterministic schedule: thread B
// claims k2 and parks inside its builder; thread A batches {k1, k2},
// builds k1, and waits on B's claim; Invalidate then erases both the
// completed k1 and B's building marker before B is released.
TEST(PlanCacheTest, InvalidateDuringBatchWaitReclaimsAndRebuilds) {
  Instance inst = BubbleChain(3, 2);
  Nfa query = StaircaseNfa(1, 2);
  Snapshot snap = inst.db.Freeze();
  AnnotateOptions aopts;
  auto make_value = [&] {
    return std::make_shared<const PreparedQuery>(snap, query, inst.source,
                                                 inst.target, aopts);
  };

  PlanCache cache(size_t{64} << 20);
  PlanKey k1{&inst.db, 1, 0x1111, "a", inst.source, inst.target};
  PlanKey k2{&inst.db, 1, 0x2222, "b", inst.source, inst.target};

  std::promise<void> builder_entered, release_builder;
  std::thread b([&] {
    PlanCache::Value v = cache.GetOrBuild(k2, [&]() -> PlanCache::Value {
      builder_entered.set_value();
      release_builder.get_future().wait();
      return make_value();
    });
    // The orphaned build still reaches its own caller.
    EXPECT_NE(v, nullptr);
  });
  builder_entered.get_future().wait();

  std::atomic<int> batch_builds{0};
  std::vector<PlanCache::Value> got;
  std::thread a([&] {
    std::vector<PlanKey> keys{k1, k2};
    got = cache.GetOrBuildBatch(
        keys, [&](const std::vector<size_t>& idx) {
          std::vector<PlanCache::Value> out;
          for (size_t i : idx) {
            (void)i;
            ++batch_builds;
            out.push_back(make_value());
          }
          return out;
        });
  });
  // A has reached its wait on k2 (or is about to — both interleavings
  // resolve identically) once the single-flight wait is counted.
  while (cache.Stats().single_flight_waits < 1) std::this_thread::yield();

  // A new generation drops everything: k1's completed entry and k2's
  // building marker.
  cache.Invalidate(&inst.db, 2);
  release_builder.set_value();
  b.join();
  a.join();

  ASSERT_EQ(got.size(), 2u);
  EXPECT_NE(got[0], nullptr);
  EXPECT_NE(got[1], nullptr);              // re-claimed, rebuilt, not lost
  EXPECT_GE(batch_builds.load(), 2);       // k1 + the phase-3 rebuild of k2
  EXPECT_GE(cache.Stats().invalidations, 2u);
}

// Concurrent cold misses on ONE key: exactly one build, everyone shares
// it. TSan (CI matrix) turns this into the cache's race regression
// test.
TEST(PlanCacheTest, ConcurrentPreparesSingleFlight) {
  Instance inst = EmbedInNoise(BubbleChain(6, 2), 50, 200, 3);
  Nfa query = StaircaseNfa(2, 2);
  Snapshot snap = inst.db.Freeze();
  EdgeSeq expected = Oracle(snap, query, inst.source, inst.target);

  QueryEngine engine(2);
  engine.InstallSnapshot(snap);
  constexpr int kThreads = 8;
  std::vector<QueryId> ids(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      ids[i] = engine.Prepare(query, inst.source, inst.target);
    });
  for (std::thread& t : threads) t.join();

  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.plan_cache.misses, 1u);  // one build, total
  EXPECT_EQ(stats.plan_cache.hits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.plan_cache.entries, 1u);
  // Waits only happen for threads that arrived mid-build; bounded by
  // the losers of the claim race.
  EXPECT_LE(stats.plan_cache.single_flight_waits,
            static_cast<uint64_t>(kThreads - 1));

  for (QueryId q : ids) EXPECT_EQ(DrainAll(engine, q), expected);
}

TEST(PlanCacheTest, TinyBudgetEvictsLru) {
  Instance inst = Grid(4, 4);
  Snapshot snap = inst.db.Freeze();
  EngineOptions opts;
  opts.num_threads = 1;
  opts.plan_cache_bytes = 1;  // any completed entry is oversized
  QueryEngine engine(opts);
  engine.InstallSnapshot(snap);

  Nfa query = StaircaseNfa(0, 1);
  // An oversized entry lives alone (never thrashes itself out)...
  engine.Prepare(query, inst.source, inst.target);
  EXPECT_EQ(engine.Stats().plan_cache.entries, 1u);
  EXPECT_EQ(engine.Stats().plan_cache.evictions, 0u);
  // ...until the next insert displaces it.
  engine.Prepare(query, 1, inst.target);
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.plan_cache.entries, 1u);
  EXPECT_EQ(stats.plan_cache.evictions, 1u);
  // The displaced key must rebuild: 3 misses, no hits.
  engine.Prepare(query, inst.source, inst.target);
  EXPECT_EQ(engine.Stats().plan_cache.misses, 3u);
  EXPECT_EQ(engine.Stats().plan_cache.hits, 0u);
}

TEST(PlanCacheTest, ZeroBudgetDisablesCaching) {
  Instance inst = BubbleChain(4, 2);
  Nfa query = StaircaseNfa(2, 2);
  Snapshot snap = inst.db.Freeze();
  EdgeSeq expected = Oracle(snap, query, inst.source, inst.target);

  EngineOptions opts;
  opts.num_threads = 1;
  opts.plan_cache_bytes = 0;  // the bench's cold arm
  QueryEngine engine(opts);
  engine.InstallSnapshot(snap);
  QueryId q1 = engine.Prepare(query, inst.source, inst.target);
  QueryId q2 = engine.Prepare(query, inst.source, inst.target);
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.plan_cache.misses, 2u);
  EXPECT_EQ(stats.plan_cache.hits, 0u);
  EXPECT_EQ(stats.plan_cache.entries, 0u);
  EXPECT_EQ(stats.plan_cache.bytes_used, 0u);
  EXPECT_EQ(DrainAll(engine, q1), expected);
  EXPECT_EQ(DrainAll(engine, q2), expected);
}

TEST(PlanCacheTest, PrepareBatchMatchesPerSourcePrepare) {
  Instance inst = Grid(4, 4);
  Nfa query = AnyKDfa(3, 1);
  Snapshot snap = inst.db.Freeze();

  QueryEngine engine(2);
  engine.InstallSnapshot(snap);
  // Mixed batch: duplicates, the real source, the target itself, and a
  // vertex that cannot reach the target in 3 steps.
  std::vector<uint32_t> sources = {0, 5, 0, 10, 15};
  std::vector<QueryId> ids =
      engine.PrepareBatch(query, sources, inst.target);
  ASSERT_EQ(ids.size(), sources.size());

  EngineStats cold = engine.Stats();
  EXPECT_EQ(cold.plan_cache.misses, 4u);  // unique sources only
  EXPECT_EQ(cold.plan_cache.entries, 4u);

  for (size_t j = 0; j < sources.size(); ++j) {
    SCOPED_TRACE("source " + std::to_string(sources[j]));
    EXPECT_EQ(DrainAll(engine, ids[j]),
              Oracle(snap, query, sources[j], inst.target));
  }

  // A warm batch — and warm single Prepares — are pure hits; the
  // batch-filled and singly-filled entries are interchangeable.
  engine.PrepareBatch(query, sources, inst.target);
  engine.Prepare(query, 5, inst.target);
  EngineStats warm = engine.Stats();
  EXPECT_EQ(warm.plan_cache.misses, 4u);
  // 4 unique keys hit in the warm batch (the duplicate aliases its
  // first occurrence) plus the single warm Prepare.
  EXPECT_EQ(warm.plan_cache.hits, cold.plan_cache.hits + 5u);
}

TEST(PlanCacheTest, WorkerEnumeratorCacheIsBounded) {
  Instance inst = Grid(4, 4);
  Nfa query = AnyKDfa(3, 1);
  Snapshot snap = inst.db.Freeze();

  EngineOptions opts;
  opts.num_threads = 1;          // one worker owns one enumerator LRU
  opts.worker_cache_entries = 2;
  QueryEngine engine(opts);
  engine.InstallSnapshot(snap);

  // Four distinct prepared queries round-robin over a 2-entry LRU:
  // every pump after the first cycle needs a rebuild, so evictions must
  // show up — and answers must not change.
  std::vector<uint32_t> sources = {0, 1, 4, 5};
  std::vector<QueryId> ids = engine.PrepareBatch(query, sources, inst.target);
  std::vector<SessionId> sessions;
  std::vector<EdgeSeq> got(ids.size()), want;
  for (QueryId q : ids) sessions.push_back(engine.OpenSession(q));
  for (uint32_t s : sources)
    want.push_back(Oracle(snap, query, s, inst.target));

  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t j = 0; j < sessions.size(); ++j) {
      PumpResult r = engine.Pump(sessions[j], 1);
      ASSERT_NE(r.status, PumpStatus::kRetired);
      for (const Walk& w : r.walks) got[j].push_back(w.edges);
      if (r.status == PumpStatus::kOk) progress = true;
    }
  }
  for (size_t j = 0; j < sessions.size(); ++j) EXPECT_EQ(got[j], want[j]);
  EXPECT_GT(engine.Stats().worker_cache_evictions, 0u);
}

TEST(PlanCacheTest, FrontendChoiceIsRecorded) {
  Instance inst = BubbleChain(4, 2);
  QueryEngine engine(1);
  engine.InstallSnapshot(inst.db.Freeze());
  LabelDictionary* dict = inst.db.mutable_dict();

  PrepareRegexResult small = engine.PrepareRegex("(l0|l1)* l1", dict,
                                                 inst.source, inst.target);
  ASSERT_TRUE(small.ok);
  EXPECT_EQ(small.frontend, Frontend::kThompson);

  PrepareRegexResult big = engine.PrepareRegex(ContainsL0Regex(40), dict,
                                               inst.source, inst.target);
  ASSERT_TRUE(big.ok);
  EXPECT_EQ(big.frontend, Frontend::kGlushkov);

  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.frontend_thompson, 1u);
  EXPECT_EQ(stats.frontend_glushkov, 1u);
}

}  // namespace
}  // namespace dsw
