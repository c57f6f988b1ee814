// Unit tests for Database and LabelDictionary, pinning the contract the
// regex front-end relies on: mutable_dict() is a stable pointer into the
// database, and Intern is idempotent, so recompiling a query inside a
// bench loop never changes label ids or grows the dictionary.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/annotate.h"
#include "core/database.h"
#include "core/resumable_enumerator.h"
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
  // mutations: a query recompiled against a live database must not move
  // it past its snapshots' generation.
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
  EXPECT_EQ(snap.generation(), db.generation());  // the snapshot survived

  // And the delta layer agrees: re-freezing yields the same generation
  // with an empty known delta.
  Snapshot again = db.Freeze();
  EXPECT_EQ(again.generation(), snap.generation());
  EdgeDelta delta = again.DeltaFrom(snap.generation());
  EXPECT_TRUE(delta.known);
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
  const uint64_t never_frozen = db.generation();
  db.AddEdge(2, "l0", 5);
  Snapshot second = db.Freeze();

  // Known delta: exactly the edge suffix added since gen1, the sources
  // of its edges and their (dst, src) pairs.
  EdgeDelta d = second.DeltaFrom(gen1);
  ASSERT_TRUE(d.known);
  EXPECT_EQ(d.first_new_edge, 1u);
  EXPECT_EQ(d.new_sources, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(d.new_arcs, (std::vector<EdgeDelta::Arc>{{2, 1}, {5, 2}}));

  // Same-generation delta: known and empty (the suffix starts at the
  // end).
  EdgeDelta same = second.DeltaFrom(second.generation());
  ASSERT_TRUE(same.known);
  EXPECT_EQ(same.first_new_edge, 3u);
  EXPECT_TRUE(same.new_sources.empty());
  EXPECT_TRUE(same.new_arcs.empty());

  // A past state needs no freeze: its generation names its edge count.
  EdgeDelta suffix = second.DeltaFrom(never_frozen);
  ASSERT_TRUE(suffix.known);
  EXPECT_EQ(suffix.first_new_edge, 2u);
  EXPECT_EQ(suffix.new_sources, (std::vector<uint32_t>{2}));

  // A generation in the future is unknown: callers must rebuild from
  // scratch.
  EXPECT_FALSE(second.DeltaFrom(second.generation() + 100).known);
  EXPECT_FALSE(first.DeltaFrom(second.generation()).known);
}

// A generation is a state's counts, so a snapshot serves the delta from
// every earlier state of its database however many freezes lie between
// them.
TEST(SnapshotTest, DeltaFromServesEveryEarlierState) {
  Database db;
  db.AddVertices(3);
  db.AddEdge(0, "l0", 1);
  const uint64_t oldest = db.Freeze().generation();
  for (uint32_t i = 0; i < 70; ++i) {
    db.AddEdge(1 + i % 2, "l0", 0);
    (void)db.Freeze();
  }
  const Snapshot latest = db.Freeze();
  const EdgeDelta delta = latest.DeltaFrom(oldest);
  ASSERT_TRUE(delta.known);
  EXPECT_EQ(delta.first_new_edge, 1u);
  EXPECT_EQ(delta.new_sources, (std::vector<uint32_t>{1, 2}));
  // 70 parallel edges give two distinct pairs, sorted by destination
  // and then source.
  EXPECT_EQ(delta.new_arcs, (std::vector<EdgeDelta::Arc>{{0, 1}, {0, 2}}));
}

TEST(SnapshotTest, FreezeCapturesTheCurrentGeneration) {
  Database db;
  db.AddVertices(3);
  db.AddEdge(0, "l0", 1);
  Snapshot snap = db.Freeze();
  EXPECT_TRUE(static_cast<bool>(snap));
  EXPECT_EQ(snap.generation(), db.generation());
  EXPECT_EQ(snap.num_vertices(), 3u);
  EXPECT_EQ(snap.num_edges(), 1u);

  // A default-constructed snapshot is null and stamps no generation.
  Snapshot null_snap;
  EXPECT_FALSE(static_cast<bool>(null_snap));
  EXPECT_NE(null_snap.generation(), db.generation());
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

  // A mutation moves the database past both, and the next freeze
  // builds a new index while the old snapshots keep theirs.
  db.AddEdge(2, "l0", 3);
  EXPECT_NE(a.generation(), db.generation());
  EXPECT_NE(b.generation(), db.generation());
  Snapshot c = db.Freeze();
  EXPECT_EQ(c.generation(), db.generation());
  EXPECT_NE(&c.label_index(), shared);
  EXPECT_EQ(&a.label_index(), shared);
  EXPECT_EQ(c.num_edges(), 3u);
}

TEST(SnapshotTest, OldSnapshotStaysReadableAfterMutation) {
  // The shared_ptr keeps the frozen index alive independently of the
  // database's cache slot, so holding a snapshot across someone else's
  // Freeze() of the same generation is safe — and across later
  // mutations and freezes too: the old snapshot keeps reading its own
  // index, edge table prefix and delta log.
  Database db;
  db.AddVertices(3);
  db.AddEdge(0, "l0", 1);
  Snapshot a = db.Freeze();
  const LabelIndex* ix = &a.label_index();
  Snapshot b = db.Freeze();
  EXPECT_EQ(&b.label_index(), ix);

  db.AddVertices(2);
  db.AddEdge(0, "l0", 4);
  db.AddEdge(1, "l1", 0);
  Snapshot c = db.Freeze();
  EXPECT_EQ(&a.label_index(), ix);
  EXPECT_EQ(a.num_vertices(), 3u);
  EXPECT_EQ(a.num_edges(), 1u);
  const LabelIndex::OutEdges out = a.label_index().Out(0);
  ASSERT_EQ(out.groups.size(), 1u);
  auto targets = out.Targets(out.groups[0]);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0].edge, 0u);
  EXPECT_EQ(targets[0].dst, 1u);
  EXPECT_TRUE(a.label_index().Out(1).groups.empty());
  EXPECT_EQ(a.dst(0), 1u);
  EXPECT_EQ(a.labels().Name(a.edge(0).label), "l0");
  EXPECT_TRUE(a.DeltaFrom(a.generation()).known);
  EXPECT_EQ(a.DeltaFrom(a.generation()).first_new_edge, 1u);
  EXPECT_EQ(c.num_edges(), 3u);
}

// A snapshot answers from its freeze: a vertex added afterwards is out
// of range for it, and Annotate reports that vertex unreachable instead
// of passing its bounds check and reading past the frozen LabelIndex.
TEST(SnapshotTest, RetiredSnapshotKeepsItsFrozenCounts) {
  Database db;
  db.AddVertices(2);
  db.AddEdge(0, "l0", 1);
  Snapshot old = db.Freeze();
  const uint32_t new_vertex = db.AddVertices(1);
  EXPECT_EQ(old.num_vertices(), 2u);
  EXPECT_EQ(old.num_edges(), 1u);
  Annotation ann = Annotate(old, StaircaseNfa(1, 1), new_vertex, 1);
  EXPECT_EQ(ann.lambda, -1);
}

// A plan reads only its snapshot's frozen index, so mutating and
// re-freezing the database after it was built changes none of its
// answers, their order or any SeekAfter successor, in either build
// type; a plan on the new snapshot sees the inserted edge.
TEST(SnapshotTest, PlanKeepsItsGenerationAfterMutation) {
  Instance inst = BubbleChain(3, 2);
  const Nfa query = StaircaseNfa(1, 2);
  auto answers = [&](ResumableEnumerator& en) {
    std::vector<std::vector<uint32_t>> out;
    for (en.Rewind(); en.Valid(); en.Next()) out.push_back(en.walk().edges);
    return out;
  };
  auto successors = [&](ResumableEnumerator& en,
                        const std::vector<std::vector<uint32_t>>& walks) {
    std::vector<std::vector<uint32_t>> out;
    for (const std::vector<uint32_t>& w : walks) {
      EXPECT_TRUE(en.SeekAfter(Walk{w}));
      out.push_back(en.Valid() ? en.walk().edges : std::vector<uint32_t>{});
    }
    return out;
  };

  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ResumableIndex index(snap, ann);
  ResumableEnumerator en(ann, index, inst.source, inst.target);
  const auto before = answers(en);
  ASSERT_EQ(before.size(), 8u);  // 2^3 bubbles
  const auto seek_before = successors(en, before);

  // A new vertex, and a parallel twin of the first answer's first edge:
  // every answer through that edge gains a twin through the new one.
  (void)inst.db.AddVertices(1);
  const uint32_t e0 = before[0][0];
  const uint32_t twin = inst.db.AddEdge(
      inst.db.src(e0), inst.db.edge(e0).label, inst.db.dst(e0));
  Snapshot next = inst.db.Freeze();
  ASSERT_NE(next.generation(), snap.generation());

  EXPECT_EQ(answers(en), before);
  EXPECT_EQ(successors(en, before), seek_before);

  Annotation ann2 = Annotate(next, query, inst.source, inst.target);
  ResumableIndex index2(next, ann2);
  ResumableEnumerator en2(ann2, index2, inst.source, inst.target);
  const auto after = answers(en2);
  EXPECT_EQ(after.size(), 12u);
  size_t with_twin = 0;
  for (const std::vector<uint32_t>& w : after)
    with_twin += std::count(w.begin(), w.end(), twin);
  EXPECT_EQ(with_twin, 4u);
}

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
