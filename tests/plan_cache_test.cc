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
//  - One table: an insert-only delta upgrades every entry in place
//    (counted as upgrades, served as warm hits), so a parked session
//    survives the install at any byte budget; an install of another
//    database detaches the entries and stale sessions retire gracefully
//    (and are counted). A detached entry gives up its plan at once: a
//    handle that still names it keeps a plan-less tombstone, resolves to
//    null and counts in no stat, so held handles pin no replaced
//    snapshot however many installs pass. A claim detached mid-build, or
//    whose build throws, is re-claimed and rebuilt by its waiter, never
//    lost, and a build an install orphaned reaches no caller: its own
//    caller claims the key again or shares the waiter's rebuild. A build
//    that returns while an install repairs waits for the publish, and a
//    repair that throws on any of the threads sharing an install's
//    repairs leaves the table as it was.
//  - Byte-budget LRU over the entries no handle names: a tiny budget
//    keeps the table bounded and evicting; at budget 0 an entry dies
//    with its last handle (the bench's cold arm: every Prepare after a
//    release builds).
//  - A worker's one enumerator serves every plan it pumps, and a worker
//    keeps no plan alive once an install has replaced it.
//
// Everything is cross-checked against the single-threaded
// annotate/trim/enumerate oracle: cache plumbing must never change
// answers, only the work done to produce them.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/annotate.h"
#include "core/delta_annotate.h"
#include "core/resumable_index.h"
#include "engine/engine.h"
#include "engine/plan_cache.h"
#include "tests/oracles.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

EdgeSeq EnumeratePlan(const PreparedQuery& plan) {
  ResumableEnumerator en(plan.ann, plan.index, plan.ann.source,
                         plan.ann.target);
  return Drain(en);
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

// The drop-everything install path: a snapshot of another database
// detaches every entry, and every session on one retires — the
// pre-incremental contract. A detached entry gives up its plan at once;
// the handle that still names it keeps a tombstone, which dies with it.
TEST(PlanCacheTest, InstallSnapshotInvalidatesAndRetires) {
  Instance inst = BubbleChain(5, 2);
  Instance other = BubbleChain(4, 2);
  Nfa query = StaircaseNfa(2, 2);
  QueryEngine engine(2);
  engine.InstallSnapshot(inst.db.Freeze());
  QueryId q_old = engine.Prepare(query, inst.source, inst.target);
  SessionId s_old = engine.OpenSession(q_old);
  ASSERT_EQ(engine.Pump(s_old, 4).status, PumpStatus::kOk);
  ASSERT_EQ(engine.Stats().plan_cache.entries, 1u);

  Snapshot snap2 = other.db.Freeze();
  engine.InstallSnapshot(snap2);

  EngineStats after = engine.Stats();
  EXPECT_EQ(after.plan_cache.invalidations, 1u);
  EXPECT_EQ(after.plan_cache.upgrades, 0u);
  EXPECT_EQ(after.plan_cache.entries, 0u);  // q_old names a tombstone
  EXPECT_EQ(engine.Plan(q_old), nullptr);

  // The retired session still fails gracefully — and is counted.
  EXPECT_EQ(engine.Pump(s_old, 4).status, PumpStatus::kRetired);
  EXPECT_GE(engine.Stats().sessions_retired, 1u);
  engine.ReleaseQuery(q_old);
  EXPECT_EQ(engine.Stats().plan_cache.entries, 0u);
  EXPECT_EQ(engine.Stats().plan_cache.bytes_used, 0u);

  // Re-preparing against the new snapshot is a fresh build with fresh
  // answers.
  QueryId q_new = engine.Prepare(query, other.source, other.target);
  EXPECT_EQ(engine.Stats().plan_cache.misses, 2u);
  EXPECT_EQ(DrainAll(engine, q_new),
            Oracle(snap2, query, other.source, other.target));
}

// The incremental install path: an insert-only, lambda-preserving
// delta repairs the entry's plan in place instead of dropping it. The
// upgraded entry serves warm hits, the old QueryId enumerates the new
// snapshot's answers, and nothing was invalidated.
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
  EXPECT_EQ(DrainAll(engine, q), expected);  // same entry, new plan
  EXPECT_EQ(DrainAll(engine, q2), expected);
}

// Whether a parked session survives an install no longer depends on the
// byte budget: its QueryId names the entry, the install repairs every
// entry, and a named entry is never evicted. A session pumped 4 answers
// before a second key is prepared and a lambda-preserving install lands
// drains exactly the new order's suffix after its last walk, at the
// default budget, at 1 byte and at 0.
TEST(PlanCacheTest, SessionSurvivesInstallAtAnyBudget) {
  for (size_t budget : {size_t{64} << 20, size_t{1}, size_t{0}}) {
    SCOPED_TRACE(testing::Message() << "budget " << budget);
    Instance inst = BubbleChain(5, 2);
    Nfa query = StaircaseNfa(2, 2);
    EngineOptions opts;
    opts.num_threads = 2;
    opts.plan_cache_bytes = budget;
    QueryEngine engine(opts);
    engine.InstallSnapshot(inst.db.Freeze());
    SessionId s =
        engine.OpenSession(engine.Prepare(query, inst.source, inst.target));
    PumpResult first = engine.Pump(s, 4);
    ASSERT_EQ(first.status, PumpStatus::kOk);
    ASSERT_EQ(first.walks.size(), 4u);
    // A second key: a small budget must not cost the first its plan.
    engine.Prepare(StaircaseNfa(1, 2), inst.source, inst.target);

    inst.db.AddEdge(inst.db.src(0), inst.db.edge(0).label, inst.db.dst(0));
    Snapshot snap2 = inst.db.Freeze();
    engine.InstallSnapshot(snap2);

    EdgeSeq newest = Oracle(snap2, query, inst.source, inst.target);
    auto anchor = std::find(newest.begin(), newest.end(),
                            first.walks.back().edges);
    ASSERT_NE(anchor, newest.end());
    PumpResult rest = engine.Drain(s, 3);
    EXPECT_EQ(rest.status, PumpStatus::kExhausted);
    EXPECT_EQ(Edges(rest.walks), EdgeSeq(anchor + 1, newest.end()));
    EXPECT_EQ(engine.Stats().sessions_retired, 0u);
    EXPECT_EQ(engine.Stats().plan_cache.upgrades, 2u);
  }
}

// Plans built straight through the table, as the engine builds them.
struct TableFixture {
  Instance inst = BubbleChain(3, 2);
  Nfa query = StaircaseNfa(1, 2);
  std::atomic<int> builds{0};
  PlanCache cache{size_t{64} << 20};

  PlanCache::Value Build(const Snapshot& snap) {
    ++builds;
    return std::make_shared<const PreparedQuery>(snap, query, inst.source,
                                                 inst.target);
  }
  PlanKey Key(const std::string& bytes) {
    return PlanKey{0x2222, inst.source, inst.target, bytes};
  }
  // The plan is of the installed snapshot.
  bool Current(const PlanCache::Value& plan) const {
    const Snapshot snap = cache.installed();
    return plan != nullptr && &plan->index.snapshot().db() == &snap.db() &&
           plan->index.snapshot().generation() == snap.generation();
  }

  // A builder whose first call parks until release is set; later calls
  // build at once, as the caller's re-claim after an install does.
  std::promise<void> entered, release;
  std::atomic<int> parking_calls{0};
  PlanCache::Builder Parking() {
    return [this](const Snapshot& snap) {
      if (parking_calls++ == 0) {
        entered.set_value();
        release.get_future().wait();
      }
      return Build(snap);
    };
  }
};

// An install during a build detaches the claim: an Acquire waiter
// whose awaited claim is detached mid-wait must wake, re-claim the
// vacant key and build against the new snapshot; its plan is never
// null. The builder's orphaned plan reaches no caller: its own caller
// finds the key filled by the waiter's rebuild and shares it.
// The deterministic schedule: thread B claims the key and parks inside
// its builder; thread A waits on B's claim; an install of a new
// generation (no delta, so nothing repairs) then detaches B's claim. A
// re-claims and builds while B is still parked.
TEST(PlanCacheTest, InvalidateDuringWaitReclaimsAndRebuilds) {
  TableFixture t;
  const PlanCache::Builder build = [&t](const Snapshot& s) {
    return t.Build(s);
  };
  t.cache.Install(t.inst.db.Freeze(), nullptr);
  const PlanKey key = t.Key("b");

  QueryId b_id = kNoQuery;
  std::thread b([&] { b_id = t.cache.Acquire(key, t.Parking()); });
  t.entered.get_future().wait();

  QueryId a_id = kNoQuery;
  std::thread a([&] { a_id = t.cache.Acquire(key, build); });
  // The wait is counted under the table lock that the wait releases, so
  // once it shows, A is parked on B's claim.
  while (t.cache.Stats().single_flight_waits < 1) std::this_thread::yield();

  t.inst.db.AddVertices(1);
  const Snapshot snap2 = t.inst.db.Freeze();
  t.cache.Install(snap2, nullptr);
  a.join();  // A rebuilt the key without waiting for B
  t.release.set_value();
  b.join();

  const PlanCache::Value a_plan = t.cache.Resolve(a_id);
  ASSERT_NE(a_plan, nullptr);  // re-claimed, rebuilt, not lost
  EXPECT_TRUE(t.Current(a_plan));
  EXPECT_EQ(a_plan->index.snapshot().generation(), snap2.generation());
  // B's orphaned build reaches no one: B's handle names A's rebuild.
  EXPECT_EQ(t.cache.Resolve(b_id), a_plan);
  EXPECT_EQ(t.builds.load(), 2);  // B's orphaned build + A's rebuild
  const PlanCacheStats stats = t.cache.Stats();
  EXPECT_EQ(stats.misses, 2u);  // B's claim and A's re-claim
  EXPECT_EQ(stats.hits, 1u);    // B, once its build was orphaned
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.entries, 1u);  // A's rebuild, named by both handles

  // The table serves A's rebuild, never B's orphan.
  EXPECT_EQ(t.cache.Resolve(t.cache.Acquire(key, build)), a_plan);
  EXPECT_EQ(t.builds.load(), 2);
}

// The same re-claim when the waiter is part-way through a sequence of
// keys, each acquired in turn: one install detaches both the entry A
// completed (A's handle on it then resolves to null) and the claim A
// waits on.
// The deterministic schedule: thread B claims k2 and parks inside its
// builder; thread A builds k1, then waits on B's claim; an install of a
// new generation detaches k1's entry and B's claim. A wakes, re-claims
// k2 and builds against the new snapshot while B is still parked; B's
// orphaned build reaches no one, and B shares A's rebuild of k2.
TEST(PlanCacheTest, InvalidateDuringBatchWaitReclaimsAndRebuilds) {
  TableFixture t;
  const PlanCache::Builder build = [&t](const Snapshot& s) {
    return t.Build(s);
  };
  t.cache.Install(t.inst.db.Freeze(), nullptr);
  const PlanKey k1 = t.Key("a"), k2 = t.Key("b");

  QueryId b_id = kNoQuery;
  std::thread b([&] { b_id = t.cache.Acquire(k2, t.Parking()); });
  t.entered.get_future().wait();

  std::vector<QueryId> a_ids;
  std::thread a([&] {
    for (const PlanKey& k : {k1, k2})
      a_ids.push_back(t.cache.Acquire(k, build));
  });
  // k1 is filled before A reaches k2, so once the wait shows, k1 is a
  // completed entry and A is parked on B's claim.
  while (t.cache.Stats().single_flight_waits < 1) std::this_thread::yield();

  t.inst.db.AddVertices(1);
  const Snapshot snap2 = t.inst.db.Freeze();
  t.cache.Install(snap2, nullptr);
  a.join();  // A rebuilt k2 without waiting for B
  t.release.set_value();
  b.join();

  ASSERT_EQ(a_ids.size(), 2u);
  // k1's entry was detached: its handle names a tombstone.
  EXPECT_EQ(t.cache.Resolve(a_ids[0]), nullptr);
  const PlanCache::Value a2 = t.cache.Resolve(a_ids[1]);
  ASSERT_NE(a2, nullptr);  // re-claimed, rebuilt, not lost
  EXPECT_TRUE(t.Current(a2));
  EXPECT_EQ(a2->index.snapshot().generation(), snap2.generation());
  // B's orphaned build reaches no one: B's handle names A's rebuild.
  EXPECT_EQ(t.cache.Resolve(b_id), a2);
  EXPECT_EQ(t.builds.load(), 3);  // A's k1, B's orphan, A's rebuild of k2
  EXPECT_EQ(t.cache.Stats().invalidations, 2u);
  EXPECT_EQ(t.cache.Stats().entries, 1u);  // k2's; k1's plan left with it

  // The table serves A's rebuild of k2, never B's orphan; k1 rebuilds.
  EXPECT_EQ(t.cache.Resolve(t.cache.Acquire(k2, build)), a2);
  EXPECT_EQ(t.builds.load(), 3);
  EXPECT_TRUE(t.Current(t.cache.Resolve(t.cache.Acquire(k1, build))));
  EXPECT_EQ(t.builds.load(), 4);
}

// A build that returns while an install repairs the table is of the
// snapshot that install replaces, and the publish detaches its claim.
// Filled at once, its caller would resolve it as current until the
// publish, and a session on it would retire at its first pump. So the
// caller waits for the publish, claims the key again and builds against
// the new snapshot: the key fills after the publish, with a current
// plan. The schedule: thread B claims a key and parks in its builder;
// an install's upgrade releases B and gives it 50 ms to return. A
// loaded host can keep B from returning within them; B's build then
// returns after the publish and is rebuilt the same way without the
// wait, so the test can pass without checking the wait, never fail.
TEST(PlanCacheTest, BuildReturningDuringRepairsFillsAfterThePublish) {
  TableFixture t;
  t.cache.Install(t.inst.db.Freeze(), nullptr);

  bool current_at_return = false;
  QueryId b_id = kNoQuery;
  std::thread b([&] {
    b_id = t.cache.Acquire(t.Key("b"), t.Parking());
    current_at_return = t.Current(t.cache.Resolve(b_id));
  });
  t.entered.get_future().wait();

  t.inst.db.AddEdge(t.inst.db.src(0), t.inst.db.edge(0).label,
                    t.inst.db.dst(0));
  const Snapshot snap2 = t.inst.db.Freeze();
  t.cache.Install(snap2, [&](std::vector<PlanCache::Value>& plans) {
    EXPECT_TRUE(plans.empty());  // B's claim had no plan to repair
    t.release.set_value();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  b.join();

  EXPECT_TRUE(current_at_return);
  const PlanCache::Value r = t.cache.Resolve(b_id);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(t.Current(r));
  EXPECT_EQ(r->index.snapshot().generation(), snap2.generation());
  EXPECT_EQ(t.builds.load(), 2);  // the orphan and the rebuild
  const PlanCacheStats stats = t.cache.Stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.invalidations, 1u);  // the claim, at publish
  EXPECT_EQ(stats.entries, 1u);
}

// No test elsewhere throws, so this one drives the table's failure path:
// a builder throws while a second caller waits on its claim. The
// deterministic schedule: thread B claims the key and parks inside a
// builder that will throw; thread A waits on B's claim. B's caller sees
// the exception, A re-claims and builds, the key serves A's build, and
// the failed build leaves no handle behind.
TEST(PlanCacheFaultTest, ThrowingBuildHandsTheClaimToItsWaiter) {
  TableFixture t;
  const PlanCache::Builder build = [&t](const Snapshot& s) {
    return t.Build(s);
  };
  t.cache.Install(t.inst.db.Freeze(), nullptr);
  const PlanKey key = t.Key("b");

  std::promise<void> builder_entered, release_builder;
  bool b_threw = false;
  std::thread b([&] {
    try {
      t.cache.Acquire(key, [&](const Snapshot&) -> PlanCache::Value {
        builder_entered.set_value();
        release_builder.get_future().wait();
        throw std::runtime_error("injected build failure");
      });
    } catch (const std::runtime_error&) {
      b_threw = true;
    }
  });
  builder_entered.get_future().wait();

  QueryId a_id = kNoQuery;
  std::thread a([&] { a_id = t.cache.Acquire(key, build); });
  while (t.cache.Stats().single_flight_waits < 1) std::this_thread::yield();
  release_builder.set_value();
  b.join();
  a.join();

  EXPECT_TRUE(b_threw);
  const PlanCache::Value a_plan = t.cache.Resolve(a_id);
  ASSERT_NE(a_plan, nullptr);
  EXPECT_TRUE(t.Current(a_plan));
  EXPECT_EQ(t.builds.load(), 1);
  EXPECT_EQ(t.cache.Stats().misses, 2u);  // B's claim and A's re-claim
  EXPECT_EQ(t.cache.open_handles(), 1u);  // A's; the throw issued none

  const QueryId again = t.cache.Acquire(key, build);
  EXPECT_EQ(t.cache.Resolve(again), a_plan);
  EXPECT_EQ(t.builds.load(), 1);
  t.cache.Release(again);
  t.cache.Release(a_id);
  EXPECT_EQ(t.cache.open_handles(), 0u);
  EXPECT_EQ(t.cache.Stats().entries, 1u);  // unnamed, cached
}

// An install's upgrade may spread the repairs over several threads, as
// the engine does, and one repair may throw. Four helper threads and the
// installing thread share the repairs of six entries through
// PlanRepairs, and the repair of the fourth entry's plan throws,
// whichever thread claims it. Install rethrows and changes nothing: the
// old snapshot stays installed, and every entry keeps its plan, which
// still enumerates the old snapshot's answers. A later install whose
// repairs all succeed upgrades every entry.
TEST(PlanCacheFaultTest, ThrowingRepairAcrossThreadsChangesNothing) {
  TableFixture t;
  const PlanCache::Builder build = [&t](const Snapshot& s) {
    return t.Build(s);
  };
  const Snapshot snap1 = t.inst.db.Freeze();
  t.cache.Install(snap1, nullptr);
  std::vector<QueryId> ids;
  std::vector<PlanCache::Value> before;
  for (const char* bytes : {"a", "b", "c", "d", "e", "f"}) {
    ids.push_back(t.cache.Acquire(t.Key(bytes), build));
    before.push_back(t.cache.Resolve(ids.back()));
  }

  // A parallel duplicate of an existing edge keeps lambda.
  t.inst.db.AddEdge(t.inst.db.src(0), t.inst.db.edge(0).label,
                    t.inst.db.dst(0));
  const Snapshot snap2 = t.inst.db.Freeze();
  const EdgeDelta delta = snap2.DeltaFrom(snap1.generation());
  const DeltaContext ctx(snap2);
  auto upgrade = [&](const PreparedQuery* failing) {
    return [&, failing](std::vector<PlanCache::Value>& plans) {
      auto repairs = std::make_shared<PlanRepairs>(plans.size(), [&](size_t i) {
        if (plans[i].get() == failing)
          throw std::runtime_error("injected repair failure");
        Annotation ann = plans[i]->ann;
        const AnnotationRepair rep = DeltaAnnotate(snap2, delta, &ann);
        TrimmedIndex trimmed = DeltaTrim(
            snap2, ann, plans[i]->index.trimmed(), rep, delta, ctx);
        plans[i] = std::make_shared<const PreparedQuery>(snap2, std::move(ann),
                                                         std::move(trimmed));
      });
      std::vector<std::jthread> helpers;  // joined as Finish rethrows, too
      for (int h = 0; h < 4; ++h)
        helpers.emplace_back([repairs] { repairs->Run(); });
      repairs->Run();
      repairs->Finish();
    };
  };

  EXPECT_THROW(t.cache.Install(snap2, upgrade(before[3].get())),
               std::runtime_error);
  EXPECT_EQ(t.cache.installed().generation(), snap1.generation());
  const EdgeSeq old_answers =
      Oracle(snap1, t.query, t.inst.source, t.inst.target);
  for (size_t i = 0; i < ids.size(); ++i) {
    const PlanCache::Value r = t.cache.Resolve(ids[i]);
    EXPECT_EQ(r, before[i]);
    ASSERT_TRUE(t.Current(r));
    EXPECT_EQ(EnumeratePlan(*r), old_answers);
  }
  EXPECT_EQ(t.cache.Stats().upgrades, 0u);
  EXPECT_EQ(t.cache.Stats().invalidations, 0u);

  t.cache.Install(snap2, upgrade(nullptr));
  EXPECT_EQ(t.cache.installed().generation(), snap2.generation());
  const EdgeSeq new_answers =
      Oracle(snap2, t.query, t.inst.source, t.inst.target);
  ASSERT_GT(new_answers.size(), old_answers.size());
  for (QueryId id : ids) {
    const PlanCache::Value r = t.cache.Resolve(id);
    ASSERT_TRUE(t.Current(r));
    EXPECT_EQ(EnumeratePlan(*r), new_answers);
  }
  EXPECT_EQ(t.cache.Stats().upgrades, ids.size());
  EXPECT_EQ(t.builds.load(), 6);  // the repairs built nothing
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
  // An oversized entry lives alone once released (never thrashes itself
  // out)...
  engine.ReleaseQuery(engine.Prepare(query, inst.source, inst.target));
  EXPECT_EQ(engine.Stats().plan_cache.entries, 1u);
  EXPECT_EQ(engine.Stats().plan_cache.evictions, 0u);
  // ...until the next insert displaces it.
  engine.ReleaseQuery(engine.Prepare(query, 1, inst.target));
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.plan_cache.entries, 1u);
  EXPECT_EQ(stats.plan_cache.evictions, 1u);
  // The displaced key must rebuild: 3 misses, no hits.
  engine.ReleaseQuery(engine.Prepare(query, inst.source, inst.target));
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
  // An entry dies with its last handle, so each Prepare builds.
  for (int i = 0; i < 2; ++i) {
    QueryId q = engine.Prepare(query, inst.source, inst.target);
    EXPECT_EQ(DrainAll(engine, q), expected);
    engine.ReleaseQuery(q);
  }
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.plan_cache.misses, 2u);
  EXPECT_EQ(stats.plan_cache.hits, 0u);
  EXPECT_EQ(stats.plan_cache.entries, 0u);
  EXPECT_EQ(stats.plan_cache.bytes_used, 0u);
}

TEST(PlanCacheTest, OneWorkerEnumeratorServesEveryPlan) {
  Instance inst = Grid(4, 4);
  Snapshot snap = inst.db.Freeze();

  QueryEngine engine(1);  // one worker, so one enumerator runs every pump
  engine.InstallSnapshot(snap);

  // Four plans of different lambda (6, 3, 4, 5) and words per set
  // (1, 3, 1, 2), pumped round-robin one answer at a time: every pump
  // re-points the enumerator at another plan, and the drains must not
  // change.
  struct Plan {
    Nfa query;
    uint32_t source, target;
  };
  const std::vector<Plan> plans = {
      {AnyKDfa(6, 1), 0, 15},
      {SpreadStates(AnyKDfa(3, 1), 3), 0, 9},
      {AnyKDfa(4, 1), 5, 15},
      {SpreadStates(AnyKDfa(5, 1), 2), 1, 15},
  };
  std::vector<SessionId> sessions;
  std::vector<EdgeSeq> got(plans.size()), want;
  for (const Plan& p : plans) {
    sessions.push_back(
        engine.OpenSession(engine.Prepare(p.query, p.source, p.target)));
    want.push_back(Oracle(snap, p.query, p.source, p.target));
    ASSERT_FALSE(want.back().empty());
  }

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
}

// A plan an install replaced is freed once no handle, session or pump
// uses it: the worker that ran it before the install keeps nothing of
// it, so no worker pins a superseded snapshot's adjacency.
TEST(PlanCacheTest, WorkersPinNoSupersededPlan) {
  Instance inst = BubbleChain(5, 2);
  Nfa query = StaircaseNfa(2, 2);
  QueryEngine engine(1);
  engine.InstallSnapshot(inst.db.Freeze());
  QueryId q = engine.Prepare(query, inst.source, inst.target);
  SessionId s = engine.OpenSession(q);
  ASSERT_EQ(engine.Pump(s, 4).status, PumpStatus::kOk);
  std::weak_ptr<const PreparedQuery> old = engine.Plan(q);
  ASSERT_FALSE(old.expired());

  // Insert-only: an edge out of a new vertex, so the plan is repaired.
  const uint32_t v = inst.db.AddVertex();
  inst.db.AddEdge(v, 0u, inst.target);
  engine.InstallSnapshot(inst.db.Freeze());
  ASSERT_EQ(engine.Stats().plans_upgraded, 1u);

  ASSERT_EQ(engine.Pump(s, 4).status, PumpStatus::kOk);
  EXPECT_TRUE(old.expired());
}

// A handle held on a plan no install can repair pins nothing. The plan
// from the chain's sink back to its source is unreachable, so the first
// install detaches its entry and hands the plan to the free job with the
// replaced ones; the handle keeps a tombstone through four more
// installs. A drain on a live query, queued behind the free jobs on the
// one worker, finds the plan freed and one entry counted.
TEST(PlanCacheTest, HeldHandleOnDetachedEntryPinsNoPlan) {
  Instance inst = BubbleChain(5, 2);
  Nfa query = StaircaseNfa(2, 2);
  QueryEngine engine(1);
  engine.InstallSnapshot(inst.db.Freeze());
  const QueryId live = engine.Prepare(query, inst.source, inst.target);
  const QueryId held = engine.Prepare(query, inst.target, inst.source);
  std::weak_ptr<const PreparedQuery> old = engine.Plan(held);
  ASSERT_FALSE(old.expired());
  ASSERT_FALSE(old.lock()->ann.reachable());

  for (int i = 0; i < 5; ++i) {
    const uint32_t v = inst.db.AddVertex();
    inst.db.AddEdge(v, 0u, inst.target);
    engine.InstallSnapshot(inst.db.Freeze());
  }
  EXPECT_EQ(DrainAll(engine, live),
            Oracle(inst.db.Freeze(), query, inst.source, inst.target));
  EXPECT_TRUE(old.expired());
  EXPECT_EQ(engine.Stats().plan_cache.entries, 1u);
  EXPECT_EQ(engine.Plan(held), nullptr);
  EXPECT_EQ(engine.Pump(engine.OpenSession(held), 4).status,
            PumpStatus::kRetired);
}

// Install frees nothing it replaced: it hands the replaced plan back,
// and the plan lives exactly as long as the caller keeps that copy.
TEST(PlanCacheTest, InstallHandsBackReplacedPlans) {
  TableFixture t;
  const PlanCache::Builder build = [&t](const Snapshot& s) {
    return t.Build(s);
  };
  t.cache.Install(t.inst.db.Freeze(), nullptr);
  const QueryId upgraded = t.cache.Acquire(t.Key("up"), build);
  const QueryId dropped = t.cache.Acquire(t.Key("down"), build);
  std::weak_ptr<const PreparedQuery> old_up = t.cache.Resolve(upgraded);
  std::weak_ptr<const PreparedQuery> old_down = t.cache.Resolve(dropped);
  t.cache.Release(dropped);  // unnamed: the install detaches and drops it

  t.inst.db.AddVertices(1);
  const Snapshot snap2 = t.inst.db.Freeze();
  std::vector<PlanCache::Value> replaced =
      t.cache.Install(snap2, [&](std::vector<PlanCache::Value>& plans) {
        for (PlanCache::Value& plan : plans)
          plan = plan == old_up.lock() ? t.Build(snap2) : nullptr;
      });
  EXPECT_EQ(t.cache.Stats().upgrades, 1u);
  EXPECT_NE(t.cache.Resolve(upgraded), old_up.lock());
  EXPECT_FALSE(old_up.expired());
  EXPECT_FALSE(old_down.expired());
  replaced.clear();
  EXPECT_TRUE(old_up.expired());
  EXPECT_TRUE(old_down.expired());
}

// The installing thread frees no replaced plan: the engine queues the
// replaced plans and reverse CSR as one job behind the pumps already
// queued, and a pump queued behind that job finds them freed. The one
// worker is kept busy by a long pump on another plan, so the replaced
// plan is still alive when the install returns unless that pump is over.
TEST(PlanCacheTest, InstallerFreesNoReplacedPlan) {
  Instance inst = BubbleChain(14, 2);
  QueryEngine engine(1);
  engine.InstallSnapshot(inst.db.Freeze());
  const QueryId busy =
      engine.Prepare(StaircaseNfa(2, 2), inst.source, inst.target);
  const QueryId q = engine.Prepare(StaircaseNfa(3, 2), inst.source,
                                   inst.target);
  const SessionId s = engine.OpenSession(q);
  ASSERT_EQ(engine.Pump(s, 4).status, PumpStatus::kOk);
  std::weak_ptr<const PreparedQuery> old = engine.Plan(q);

  std::future<PumpResult> long_pump =
      engine.PumpAsync(engine.OpenSession(busy), 1u << 20);
  const uint32_t v = inst.db.AddVertex();
  inst.db.AddEdge(v, 0u, inst.target);
  engine.InstallSnapshot(inst.db.Freeze());
  ASSERT_EQ(engine.Stats().plans_upgraded, 2u);
  const bool freed = old.expired();
  const bool pump_over =
      long_pump.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  EXPECT_TRUE(!freed || pump_over) << "the installing thread freed the plan";

  ASSERT_EQ(engine.Pump(s, 4).status, PumpStatus::kOk);
  EXPECT_TRUE(old.expired());
  EXPECT_EQ(long_pump.get().walks.size(), size_t{1} << 14);
}

// An engine destroyed while the job that frees an install's replaced
// plans is still queued frees them with its queue (the ASan job checks
// that nothing leaks).
TEST(PlanCacheTest, EngineDestroyedWithQueuedFreeLeaksNothing) {
  Instance inst = BubbleChain(12, 2);
  std::weak_ptr<const PreparedQuery> old;
  {
    QueryEngine engine(1);
    engine.InstallSnapshot(inst.db.Freeze());
    const QueryId q =
        engine.Prepare(StaircaseNfa(2, 2), inst.source, inst.target);
    old = engine.Plan(q);
    engine.PumpAsync(engine.OpenSession(q), 1u << 20);  // keeps it busy
    const uint32_t v = inst.db.AddVertex();
    inst.db.AddEdge(v, 0u, inst.target);
    engine.InstallSnapshot(inst.db.Freeze());
  }
  EXPECT_TRUE(old.expired());
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
