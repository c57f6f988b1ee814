// Unit tests for the label-stratified data layer: the snapshot's CSR
// LabelIndex (grouping, ordering, rebuild on Freeze after mutation, and
// each Freeze deriving its index from the previous one), the derived
// reverse CSR of the delta-repair layer (DeltaContext), and the
// precompiled CompiledDelta transition relation (forward rows with
// after-side epsilon-closure composition, reverse rows, label/source
// masks), and AddEdge's rejection of an edge the index could not hold.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/delta_annotate.h"
#include "core/nfa.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

// The CSR must partition each vertex's out-edges into label groups,
// groups sorted by label id, edges inside a group in insertion order.
void ExpectIndexMatchesAdjacency(Database& db) {
  Snapshot snap = db.Freeze();
  const LabelIndex& ix = snap.label_index();
  // The reference, from the edge table: per vertex, label -> edges.
  std::vector<std::map<uint32_t, std::vector<uint32_t>>> expected(
      db.num_vertices());
  for (uint32_t e = 0; e < db.num_edges(); ++e)
    expected[db.src(e)][db.edge(e).label].push_back(e);
  for (uint32_t v = 0; v < db.num_vertices(); ++v) {

    uint32_t prev_label = 0;
    bool first = true;
    std::map<uint32_t, std::vector<uint32_t>> got;
    for (const LabelIndex::Group& g : ix.GroupsOf(v)) {
      if (!first) {
        EXPECT_LT(prev_label, g.label) << "groups not sorted";
      }
      first = false;
      prev_label = g.label;
      for (const LabelIndex::Target& t : ix.Targets(g)) {
        EXPECT_EQ(db.edge(t.edge).src, v);
        EXPECT_EQ(db.edge(t.edge).label, g.label);
        EXPECT_EQ(db.edge(t.edge).dst, t.dst) << "denormalized dst is stale";
        got[g.label].push_back(t.edge);
      }
    }
    EXPECT_EQ(got, expected[v]) << "vertex " << v;
  }
}

TEST(LabelIndexTest, StratifiesRandomGraphs) {
  LayeredGraphParams params;
  params.layers = 4;
  params.width = 6;
  params.edges_per_vertex = 3;
  params.num_labels = 3;
  params.extra_labels = 2;
  params.multi_label_p = 0.5;
  params.seed = 12345;
  Instance inst = LayeredGraph(params);
  ExpectIndexMatchesAdjacency(inst.db);
}

TEST(LabelIndexTest, ParallelEdgesStayAdjacentInInsertionOrder) {
  Database db;
  uint32_t s = db.AddVertex(), t = db.AddVertex();
  uint32_t a = db.labels().Intern("a"), b = db.labels().Intern("b");
  uint32_t e0 = db.AddEdge(s, b, t);
  uint32_t e1 = db.AddEdge(s, a, t);
  uint32_t e2 = db.AddEdge(s, b, t);  // parallel to e0, same label
  Snapshot snap = db.Freeze();
  const LabelIndex& ix = snap.label_index();
  auto groups = ix.GroupsOf(s);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].label, a);
  EXPECT_EQ(groups[1].label, b);
  ASSERT_EQ(ix.Targets(groups[0]).size(), 1u);
  EXPECT_EQ(ix.Targets(groups[0])[0].edge, e1);
  ASSERT_EQ(ix.Targets(groups[1]).size(), 2u);
  EXPECT_EQ(ix.Targets(groups[1])[0].edge, e0);
  EXPECT_EQ(ix.Targets(groups[1])[1].edge, e2);
}

TEST(LabelIndexTest, FreezeAfterMutationSeesTheNewEdges) {
  Database db;
  uint32_t s = db.AddVertex(), t = db.AddVertex();
  db.AddEdge(s, "a", t);
  EXPECT_EQ(db.Freeze().label_index().GroupsOf(s).size(), 1u);

  // Mutations retire the frozen index; the next Freeze() rebuilds and
  // sees the new edges.
  db.AddEdge(s, "b", t);
  uint32_t u = db.AddVertex();
  db.AddEdge(s, "a", u);
  Snapshot snap = db.Freeze();
  const LabelIndex& ix = snap.label_index();
  ASSERT_EQ(ix.GroupsOf(s).size(), 2u);
  EXPECT_EQ(ix.Targets(ix.GroupsOf(s)[0]).size(), 2u);  // two a-edges
  EXPECT_TRUE(ix.GroupsOf(u).empty());
  ExpectIndexMatchesAdjacency(db);
}

// Runs one random append-only sequence of `freezes` batches and calls
// check(db, snapshot) after each Freeze. The batches cycle through the
// shapes a derived build must handle: empty (the freeze reuses the
// index), vertex-only, edges among existing vertices with parallel
// copies, and new vertices with edges out of and into them. Label 0 is
// first used halfway through, so its group sorts ahead of the groups a
// touched vertex already has.
template <typename Check>
void RunAppends(uint64_t seed, int freezes, Check check) {
  std::mt19937_64 rng(seed);
  Database db;
  db.AddVertices(1 + static_cast<uint32_t>(rng() % 4));
  for (int f = 0; f < freezes; ++f) {
    const uint32_t first_label = f < freezes / 2 ? 1 : 0;
    auto label = [&] {
      return first_label + static_cast<uint32_t>(rng() % (3 - first_label));
    };
    auto any_vertex = [&] {
      return static_cast<uint32_t>(rng() % db.num_vertices());
    };
    const uint32_t edges = 1 + static_cast<uint32_t>(rng() % 6);
    switch ((seed + f) % 4) {
      case 0:
        break;
      case 1:
        db.AddVertices(1 + static_cast<uint32_t>(rng() % 3));
        break;
      case 2:
        for (uint32_t i = 0; i < edges; ++i) {
          if (db.num_edges() > 0 && rng() % 3 == 0) {
            const Edge e =
                db.edge(static_cast<uint32_t>(rng() % db.num_edges()));
            db.AddEdge(e.src, e.label, e.dst);
          } else {
            db.AddEdge(any_vertex(), label(), any_vertex());
          }
        }
        break;
      case 3: {
        const uint32_t first =
            db.AddVertices(1 + static_cast<uint32_t>(rng() % 3));
        auto new_vertex = [&] {
          return first +
                 static_cast<uint32_t>(rng() % (db.num_vertices() - first));
        };
        for (uint32_t i = 0; i < edges; ++i) {
          db.AddEdge(new_vertex(), label(), any_vertex());
          db.AddEdge(any_vertex(), label(), new_vertex());
        }
        break;
      }
    }
    check(db, db.Freeze());
  }
}

void ExpectSameIndex(const LabelIndex& got, const LabelIndex& want) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  for (uint32_t v = 0; v < want.num_vertices(); ++v) {
    auto got_groups = got.GroupsOf(v);
    auto want_groups = want.GroupsOf(v);
    ASSERT_EQ(got_groups.size(), want_groups.size()) << "vertex " << v;
    for (size_t g = 0; g < want_groups.size(); ++g) {
      EXPECT_EQ(got_groups[g].label, want_groups[g].label) << "vertex " << v;
      EXPECT_EQ(got_groups[g].begin, want_groups[g].begin) << "vertex " << v;
      EXPECT_EQ(got_groups[g].end, want_groups[g].end) << "vertex " << v;
      auto got_targets = got.Targets(got_groups[g]);
      auto want_targets = want.Targets(want_groups[g]);
      ASSERT_EQ(got_targets.size(), want_targets.size()) << "vertex " << v;
      for (size_t t = 0; t < want_targets.size(); ++t) {
        EXPECT_EQ(got_targets[t].edge, want_targets[t].edge);
        EXPECT_EQ(got_targets[t].dst, want_targets[t].dst);
      }
    }
  }
  for (uint32_t e = 0; e < want.num_edges(); ++e)
    EXPECT_EQ(got.PositionOf(e), want.PositionOf(e)) << "edge " << e;
}

// Every Freeze derives its index from the previous one; a database that
// was never frozen derives its first from an empty index. Both must
// produce the same layout for the same edge list.
TEST(LabelIndexTest, DerivedFreezeMatchesFullBuild) {
  for (uint64_t seq = 0; seq < 24; ++seq) {
    SCOPED_TRACE(testing::Message() << "sequence " << seq);
    // Sequence 0 runs 80 freezes: each derives from the one before.
    RunAppends(seq, seq == 0 ? 80 : 12,
               [](const Database& db, const Snapshot& snap) {
                 Database fresh;
                 fresh.AddVertices(db.num_vertices());
                 for (uint32_t e = 0; e < db.num_edges(); ++e)
                   fresh.AddEdge(db.src(e), db.edge(e).label, db.dst(e));
                 Snapshot full = fresh.Freeze();
                 EXPECT_EQ(snap.num_vertices(), db.num_vertices());
                 EXPECT_EQ(snap.num_edges(), db.num_edges());
                 ExpectSameIndex(snap.label_index(), full.label_index());
               });
  }
}

// The same oracle for the delta-repair layer's reverse CSR: a context
// derived at every freeze, one derived only at every third (skipping
// generations, as the engine does when a freeze is never installed) and
// one built from empty all list each vertex's in-edge sources in edge-id
// order.
TEST(DeltaContextTest, DerivedContextMatchesInEdges) {
  for (uint64_t seq = 0; seq < 24; ++seq) {
    SCOPED_TRACE(testing::Message() << "sequence " << seq);
    std::unique_ptr<DeltaContext> every, sparse;
    int freeze = 0;
    RunAppends(seq, seq == 0 ? 80 : 12, [&](const Database& db,
                                            const Snapshot& snap) {
      DeltaContext full(snap);
      std::vector<const DeltaContext*> contexts = {&full};
      every = every ? std::make_unique<DeltaContext>(snap, *every)
                    : std::make_unique<DeltaContext>(snap);
      contexts.push_back(every.get());
      if (freeze++ % 3 == 0) {
        sparse = sparse ? std::make_unique<DeltaContext>(snap, *sparse)
                        : std::make_unique<DeltaContext>(snap);
        contexts.push_back(sparse.get());
      }
      std::vector<std::vector<uint32_t>> want(db.num_vertices());
      for (uint32_t e = 0; e < db.num_edges(); ++e)
        want[db.dst(e)].push_back(db.src(e));
      for (uint32_t v = 0; v < db.num_vertices(); ++v) {
        for (const DeltaContext* ctx : contexts) {
          auto got = ctx->InNeighbors(v);
          EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), want[v])
              << "vertex " << v;
        }
      }
    });
  }
}

// Brute-force oracle for CompiledDelta on an arbitrary Nfa.
void ExpectDeltaMatchesNfa(const Nfa& nfa) {
  CompiledDelta delta(nfa);
  ASSERT_EQ(delta.num_states(), nfa.num_states());
  std::vector<StateSet> closures;
  if (nfa.has_epsilon()) closures = nfa.EpsilonClosures();

  std::set<uint32_t> used_labels;
  std::map<std::pair<uint32_t, uint32_t>, std::set<uint32_t>> succ;
  std::map<uint32_t, std::set<uint32_t>> sources;
  for (uint32_t q = 0; q < nfa.num_states(); ++q)
    for (const auto& [label, to] : nfa.Transitions(q)) {
      used_labels.insert(label);
      sources[label].insert(q);
      if (closures.empty()) {
        succ[{label, q}].insert(to);
      } else {
        closures[to].ForEach(
            [&](uint32_t r) { succ[{label, q}].insert(r); });
      }
    }

  for (uint32_t l = 0; l < delta.num_labels(); ++l) {
    EXPECT_EQ(delta.HasLabel(l), used_labels.count(l) > 0);
    if (!delta.HasLabel(l)) continue;
    std::set<uint32_t> src_got;
    delta.Sources(l).ForEach([&](uint32_t q) { src_got.insert(q); });
    EXPECT_EQ(src_got, sources[l]);
    for (uint32_t q = 0; q < nfa.num_states(); ++q) {
      std::set<uint32_t> got;
      delta.Successors(l, q).ForEach([&](uint32_t r) { got.insert(r); });
      EXPECT_EQ(got, (succ[{l, q}])) << "label " << l << " state " << q;
      // Reverse rows are the transpose of the forward rows.
      for (uint32_t t = 0; t < nfa.num_states(); ++t)
        EXPECT_EQ(delta.Predecessors(l, t).Test(q),
                  delta.Successors(l, q).Test(t))
            << "rev/fwd mismatch at l=" << l << " q=" << q << " t=" << t;
    }
  }
  EXPECT_FALSE(delta.HasLabel(delta.num_labels()));
  EXPECT_FALSE(delta.HasLabel(UINT32_MAX));
}

TEST(CompiledDeltaTest, MatchesTransitionsEpsilonFree) {
  ExpectDeltaMatchesNfa(StaircaseNfa(3, 2));
  ExpectDeltaMatchesNfa(AnyKDfa(4, 3));
  ExpectDeltaMatchesNfa(CompleteNfa(5, 2));

  std::mt19937_64 rng(7);
  for (int round = 0; round < 5; ++round) {
    Nfa nfa(6);
    nfa.AddInitial(0);
    nfa.AddFinal(5);
    for (int i = 0; i < 20; ++i)
      nfa.AddTransition(rng() % 6, rng() % 4, rng() % 6);
    ExpectDeltaMatchesNfa(nfa);
  }
}

TEST(CompiledDeltaTest, ComposesAfterSideEpsilonClosure) {
  // q0 -a-> q1 -eps-> q2 -eps-> q3: delta[a][q0] must be {q1, q2, q3}.
  Nfa nfa(4);
  nfa.AddInitial(0);
  nfa.AddFinal(3);
  nfa.AddTransition(0, 0u, 1);
  nfa.AddEpsilonTransition(1, 2);
  nfa.AddEpsilonTransition(2, 3);
  CompiledDelta delta(nfa);
  EXPECT_EQ(delta.Successors(0, 0).Count(), 3u);
  EXPECT_TRUE(delta.Successors(0, 0).Test(1));
  EXPECT_TRUE(delta.Successors(0, 0).Test(3));
  // Reverse: every closure member points back at q0.
  EXPECT_TRUE(delta.Predecessors(0, 3).Test(0));
  ExpectDeltaMatchesNfa(nfa);
}

TEST(CompiledDeltaTest, EpsilonCyclesAndRandomEpsilonNfas) {
  std::mt19937_64 rng(11);
  for (int round = 0; round < 5; ++round) {
    Nfa nfa(7);
    nfa.AddInitial(0);
    nfa.AddFinal(6);
    for (int i = 0; i < 14; ++i)
      nfa.AddTransition(rng() % 7, rng() % 3, rng() % 7);
    for (int i = 0; i < 6; ++i)
      nfa.AddEpsilonTransition(rng() % 7, rng() % 7);  // cycles likely
    ExpectDeltaMatchesNfa(nfa);
  }
}

// An edge with an endpoint that is not a vertex is rejected in every
// build type: AddEdge returns kNoEdge, appends nothing and interns
// nothing, so the counts and the generation stay, and the next Freeze
// derives the same index as a database that never saw the bad edges.
TEST(DatabaseTest, AddEdgeRejectsBadVertexIds) {
  Database db, clean;
  for (Database* d : {&db, &clean}) {
    d->AddVertices(4);
    d->AddEdge(0, "a", 1);
    d->AddEdge(1, "a", 2);
    (void)d->Freeze();
  }
  const uint64_t generation = db.generation();
  const uint32_t labels = db.labels().size();
  EXPECT_EQ(db.AddEdge(9, 0u, 0), Database::kNoEdge);
  EXPECT_EQ(db.AddEdge(0, 0u, 4), Database::kNoEdge);
  EXPECT_EQ(db.AddEdge(4, "b", 0), Database::kNoEdge);
  EXPECT_EQ(db.AddEdge(0, "b", UINT32_MAX), Database::kNoEdge);
  EXPECT_EQ(db.num_vertices(), 4u);
  EXPECT_EQ(db.num_edges(), 2u);
  EXPECT_EQ(db.generation(), generation);
  EXPECT_EQ(db.labels().size(), labels);
  EXPECT_EQ(db.labels().Find("b"), LabelDictionary::kInvalid);

  EXPECT_EQ(db.AddEdge(3, "a", 0), 2u);
  clean.AddEdge(3, "a", 0);
  ExpectSameIndex(db.Freeze().label_index(), clean.Freeze().label_index());
}

}  // namespace
}  // namespace dsw
