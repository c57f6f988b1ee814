// Unit tests for Database and LabelDictionary, pinning the contract the
// regex front-end relies on: mutable_dict() is a stable pointer into the
// database, and Intern is idempotent, so recompiling a query inside a
// bench loop never changes label ids or grows the dictionary.

#include <gtest/gtest.h>

#include <string>

#include "core/annotate.h"
#include "core/database.h"
#include "core/resumable_index.h"
#include "util/state_set.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

TEST(LabelDictionaryTest, InternIsIdempotent) {
  LabelDictionary dict;
  uint32_t a = dict.Intern("a");
  uint32_t b = dict.Intern("b");
  EXPECT_NE(a, b);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(dict.Intern("a"), a);
    EXPECT_EQ(dict.Intern("b"), b);
  }
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Name(a), "a");
  EXPECT_EQ(dict.Name(b), "b");
}

TEST(LabelDictionaryTest, FindDoesNotCreate) {
  LabelDictionary dict;
  EXPECT_EQ(dict.Find("missing"), LabelDictionary::kInvalid);
  EXPECT_EQ(dict.size(), 0u);
  uint32_t id = dict.Intern("present");
  EXPECT_EQ(dict.Find("present"), id);
}

TEST(DatabaseTest, MutableDictIsStableAcrossMutations) {
  Database db;
  LabelDictionary* dict = db.mutable_dict();
  ASSERT_NE(dict, nullptr);
  EXPECT_EQ(dict, &db.labels());

  uint32_t l0 = dict->Intern("l0");
  db.AddVertices(100);
  for (uint32_t v = 0; v + 1 < 100; ++v) db.AddEdge(v, "l1", v + 1);

  // Same pointer, same ids, after vertex/edge growth.
  EXPECT_EQ(db.mutable_dict(), dict);
  EXPECT_EQ(dict->Intern("l0"), l0);
  EXPECT_EQ(dict->size(), 2u);
}

TEST(DatabaseTest, RepeatedInterningThroughInstanceIsIdempotent) {
  // Mirror of bench_regex's timed loop: interning the generator's
  // labels over and over through mutable_dict() must be a no-op.
  Instance inst = BubbleChain(3, 2);
  uint32_t size_before = inst.db.labels().size();
  uint32_t l0 = inst.db.labels().Find("l0");
  ASSERT_NE(l0, LabelDictionary::kInvalid);
  for (int round = 0; round < 10; ++round) {
    LabelDictionary* dict = inst.db.mutable_dict();
    EXPECT_EQ(dict->Intern("l0"), l0);
    std::string name("l");
    name += std::to_string(round % 2);
    EXPECT_EQ(dict->Intern(name),
              round % 2 == 0 ? l0 : inst.db.labels().Find("l1"));
  }
  EXPECT_EQ(inst.db.labels().size(), size_before);
}

TEST(DatabaseTest, GenerationCountsStructuralMutationsOnly) {
  Database db;
  EXPECT_EQ(db.generation(), 0u);
  db.AddVertex();
  uint64_t after_vertex = db.generation();
  EXPECT_GT(after_vertex, 0u);
  db.AddVertices(4);
  uint64_t after_vertices = db.generation();
  EXPECT_GT(after_vertices, after_vertex);
  db.AddEdge(0, "l0", 1);
  EXPECT_GT(db.generation(), after_vertices);

  // Label interning, read-only accessors and freezing are not
  // mutations: a query recompiled against a live database must not flag
  // the snapshots stale.
  uint64_t gen = db.generation();
  db.mutable_dict()->Intern("l1");
  db.labels().Find("l0");
  (void)db.Freeze();
  EXPECT_EQ(db.generation(), gen);
}

TEST(DatabaseTest, ZeroVertexAddIsGenerationNeutral) {
  // Regression: AddVertices(0) used to bump the generation, retiring
  // every snapshot, session and cached plan for a mutation that never
  // happened. A zero-vertex call must be a complete no-op.
  Database db;
  db.AddVertices(3);
  db.AddEdge(0, "l0", 1);
  Snapshot snap = db.Freeze();
  uint64_t gen = db.generation();

  EXPECT_EQ(db.AddVertices(0), 3u);  // still returns the next id
  EXPECT_EQ(db.generation(), gen);
  EXPECT_EQ(db.num_vertices(), 3u);
  EXPECT_TRUE(snap.fresh());  // the snapshot survived

  // And the delta layer agrees: re-freezing yields the same generation
  // with an empty known delta.
  Snapshot again = db.Freeze();
  EXPECT_EQ(again.generation(), snap.generation());
  EdgeDelta delta = again.DeltaFrom(snap.generation());
  EXPECT_TRUE(delta.known);
  EXPECT_EQ(delta.first_new_vertex, 3u);
  EXPECT_EQ(delta.first_new_edge, 1u);
}

TEST(SnapshotTest, DeltaFromTracksInsertOnlyFreezes) {
  Database db;
  db.AddVertices(4);
  db.AddEdge(0, "l0", 1);
  Snapshot first = db.Freeze();
  uint64_t gen1 = first.generation();

  db.AddVertices(2);
  db.AddEdge(1, "l0", 2);
  db.AddEdge(2, "l0", 5);
  Snapshot second = db.Freeze();

  // Known delta: exactly the vertex and edge suffixes added since gen1.
  EdgeDelta d = second.DeltaFrom(gen1);
  ASSERT_TRUE(d.known);
  EXPECT_EQ(d.first_new_vertex, 4u);
  EXPECT_EQ(d.first_new_edge, 1u);

  // Same-generation delta: known and empty (suffixes start at the end).
  EdgeDelta same = second.DeltaFrom(second.generation());
  ASSERT_TRUE(same.known);
  EXPECT_EQ(same.first_new_vertex, 6u);
  EXPECT_EQ(same.first_new_edge, 3u);

  // A generation that was never frozen — or lies in the future — is
  // unknown: callers must rebuild from scratch.
  EXPECT_FALSE(second.DeltaFrom(gen1 + 1).known);
  EXPECT_FALSE(second.DeltaFrom(second.generation() + 100).known);
}

TEST(SnapshotTest, DeltaFromForgetsMarksBeyondTheBoundedLog) {
  // The freeze-mark log keeps the most recent kMaxFreezeMarks (64)
  // freezes; a generation older than that ages out and its delta
  // becomes unknown — the fall-back-to-rebuild signal, not an error.
  Database db;
  db.AddVertices(2);
  db.AddEdge(0, "l0", 1);
  uint64_t oldest = db.Freeze().generation();
  for (int i = 0; i < 70; ++i) {
    db.AddEdge(0, "l0", 1);
    (void)db.Freeze();
  }
  Snapshot latest = db.Freeze();
  EXPECT_FALSE(latest.DeltaFrom(oldest).known);
  // Recent marks are still served.
  EdgeDelta recent = latest.DeltaFrom(latest.generation());
  EXPECT_TRUE(recent.known);
}

TEST(SnapshotTest, FreezeCapturesTheCurrentGeneration) {
  Database db;
  db.AddVertices(3);
  db.AddEdge(0, "l0", 1);
  Snapshot snap = db.Freeze();
  EXPECT_TRUE(static_cast<bool>(snap));
  EXPECT_TRUE(snap.fresh());
  EXPECT_EQ(snap.generation(), db.generation());
  EXPECT_EQ(snap.num_vertices(), 3u);
  EXPECT_EQ(snap.num_edges(), 1u);
  EXPECT_EQ(snap.tgt_idx(0), snap.label_index().PositionOf(0));

  // A default-constructed snapshot is null and never fresh.
  Snapshot null_snap;
  EXPECT_FALSE(static_cast<bool>(null_snap));
  EXPECT_FALSE(null_snap.fresh());
}

TEST(SnapshotTest, RefreezeWithoutMutationReusesTheBuiltIndex) {
  // Freeze() caches the built LabelIndex per generation; re-freezing an
  // unchanged database is O(1) and shares the same physical index —
  // the contract the engine relies on when many queries Freeze() the
  // same database.
  Database db;
  db.AddVertices(4);
  db.AddEdge(0, "l0", 1);
  db.AddEdge(1, "l0", 2);
  Snapshot a = db.Freeze();
  Snapshot b = db.Freeze();
  const LabelIndex* shared = &b.label_index();
  EXPECT_EQ(&a.label_index(), shared);
  EXPECT_EQ(a.generation(), b.generation());

  // A mutation retires both (so their label_index() would assert from
  // here on) and the next freeze builds a new index.
  db.AddEdge(2, "l0", 3);
  EXPECT_FALSE(a.fresh());
  EXPECT_FALSE(b.fresh());
  Snapshot c = db.Freeze();
  EXPECT_TRUE(c.fresh());
  EXPECT_NE(&c.label_index(), shared);
  EXPECT_EQ(c.num_edges(), 3u);
}

TEST(SnapshotTest, OldSnapshotStaysReadableUntilAccessedAfterMutation) {
  // The shared_ptr keeps the frozen index alive independently of the
  // database's cache slot, so holding a snapshot across someone else's
  // Freeze() of the same generation is safe.
  Database db;
  db.AddVertices(3);
  db.AddEdge(0, "l0", 1);
  Snapshot a = db.Freeze();
  const LabelIndex* ix = &a.label_index();
  Snapshot b = db.Freeze();
  EXPECT_EQ(&b.label_index(), ix);
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
// The stale-snapshot hazard, made loud: an index built before a
// mutation must assert on its next access instead of serving spans and
// positions that describe the pre-mutation adjacency.
TEST(DatabaseDeathTest, StalePlanSeekAfterAssertsInDebug) {
  // A plan reads its seek keys through the snapshot it was built from,
  // so resuming a session on it after a mutation trips the snapshot's
  // generation check instead of seeking through stale positions.
  Instance inst = BubbleChain(3, 2);
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, StaircaseNfa(1, 2), inst.source,
                            inst.target);
  ResumableIndex index(snap, ann);
  ResumableEnumerator en(ann, index, inst.source, inst.target);
  ASSERT_TRUE(en.Valid());
  const Walk first = en.walk();
  EXPECT_TRUE(en.SeekAfter(first));  // fresh: fine
  inst.db.AddEdge(inst.source, 0u, inst.target);  // invalidates the plan
  EXPECT_DEATH(en.SeekAfter(first), "stale Snapshot");
}

TEST(DatabaseDeathTest, StaleSnapshotAssertsInDebug) {
  Database db;
  db.AddVertices(2);
  db.AddEdge(0, "l0", 1);
  Snapshot snap = db.Freeze();
  (void)snap.label_index();  // fresh: fine
  db.AddVertex();            // retires the snapshot
  EXPECT_DEATH((void)snap.label_index(), "stale Snapshot");
  EXPECT_DEATH((void)snap.OutEdges(0), "stale Snapshot");
}
#endif

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
TEST(StateSetViewDeathTest, NullViewProbesAssertInDebug) {
  // A null view is the lookup-miss sentinel; probing one is a missed
  // branch at the call site and must die loudly instead of reading
  // through nullptr.
  StateSetView null_view;
  EXPECT_DEATH((void)null_view.Test(0), "null StateSetView");
  EXPECT_DEATH(null_view.ForEach([](uint32_t) {}), "null StateSetView");
}
#endif

}  // namespace
}  // namespace dsw
