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
#include <string>
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
    const LabelIndex::OutEdges out = ix.Out(v);
    for (const LabelIndex::Group& g : out.groups) {
      if (!first) {
        EXPECT_LT(prev_label, g.label) << "groups not sorted";
      }
      first = false;
      prev_label = g.label;
      for (const LabelIndex::Target& t : out.Targets(g)) {
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
  const LabelIndex::OutEdges out = ix.Out(s);
  ASSERT_EQ(out.groups.size(), 2u);
  EXPECT_EQ(out.groups[0].label, a);
  EXPECT_EQ(out.groups[1].label, b);
  ASSERT_EQ(out.Targets(out.groups[0]).size(), 1u);
  EXPECT_EQ(out.Targets(out.groups[0])[0].edge, e1);
  ASSERT_EQ(out.Targets(out.groups[1]).size(), 2u);
  EXPECT_EQ(out.Targets(out.groups[1])[0].edge, e0);
  EXPECT_EQ(out.Targets(out.groups[1])[1].edge, e2);
  for (uint32_t e : {e0, e1, e2}) EXPECT_EQ(ix.SourceOf(e), s);
  EXPECT_EQ(ix.PositionOf(e1), 0u);  // rank order: (label, insertion)
  EXPECT_EQ(ix.PositionOf(e0), 1u);
  EXPECT_EQ(ix.PositionOf(e2), 2u);
}

TEST(LabelIndexTest, FreezeAfterMutationSeesTheNewEdges) {
  Database db;
  uint32_t s = db.AddVertex(), t = db.AddVertex();
  db.AddEdge(s, "a", t);
  EXPECT_EQ(db.Freeze().label_index().Out(s).groups.size(), 1u);

  // Mutations retire the frozen index; the next Freeze() rebuilds and
  // sees the new edges.
  db.AddEdge(s, "b", t);
  uint32_t u = db.AddVertex();
  db.AddEdge(s, "a", u);
  Snapshot snap = db.Freeze();
  const LabelIndex& ix = snap.label_index();
  const LabelIndex::OutEdges out = ix.Out(s);
  ASSERT_EQ(out.groups.size(), 2u);
  EXPECT_EQ(out.Targets(out.groups[0]).size(), 2u);  // two a-edges
  EXPECT_TRUE(ix.Out(u).groups.empty());
  ExpectIndexMatchesAdjacency(db);
}

constexpr uint32_t kPage = uint32_t{1} << LabelIndex::kPageBits;
constexpr uint32_t kChunk = uint32_t{1} << LabelIndex::kChunkBits;

// A page of new vertices is ordered by one counting sort on (vertex,
// label) when its labels span at most 64 ids, and vertex by vertex
// otherwise. Both must match the edge table, with PositionOf the edge's
// index in Out(source).targets: pages whose labels span 4 and 100 ids,
// vertices without out-edges at a page's start, middle and end, edges
// inserted out of source order, and a derived build that adds edges to
// both kinds of page and opens a page of new vertices.
TEST(LabelIndexTest, CountedAndSortedPagesMatchAdjacency) {
  std::mt19937_64 rng(2024);
  Database db;
  for (int l = 0; l < 100; ++l) db.labels().Intern(std::to_string(l));
  db.AddVertices(3 * kPage + kPage / 2);
  auto add_edges = [&](uint32_t count) {
    for (uint32_t i = 0; i < count; ++i) {
      const uint32_t src = static_cast<uint32_t>(rng() % db.num_vertices());
      const uint32_t slot = src % kPage;
      if (slot == 0 || slot == kPage / 2 - 1 || slot == kPage - 1) continue;
      const uint32_t span = src / kPage == 1 ? 100 : 4;
      db.AddEdge(src, static_cast<uint32_t>(rng() % span),
                 static_cast<uint32_t>(rng() % db.num_vertices()));
    }
  };
  auto check = [&] {
    ExpectIndexMatchesAdjacency(db);
    Snapshot snap = db.Freeze();
    const LabelIndex& ix = snap.label_index();
    for (uint32_t v = 0; v < ix.num_vertices(); ++v) {
      const LabelIndex::OutEdges out = ix.Out(v);
      uint32_t at = 0;  // the groups tile the targets, none of them empty
      for (const LabelIndex::Group& g : out.groups) {
        EXPECT_EQ(g.begin, at) << "vertex " << v;
        EXPECT_LT(g.begin, g.end) << "vertex " << v;
        at = g.end;
      }
      EXPECT_EQ(at, out.targets.size()) << "vertex " << v;
      for (uint32_t r = 0; r < out.targets.size(); ++r)
        EXPECT_EQ(ix.PositionOf(out.targets[r].edge), r) << "vertex " << v;
    }
  };
  add_edges(1500);
  check();
  add_edges(40);
  db.AddVertices(kPage);
  add_edges(400);
  check();
}

// Runs one random append-only sequence of `freezes` batches and calls
// check(db, snapshot) after each Freeze. The graph starts at eight and
// a half pages of vertices and a few edges short of a full edge chunk.
// The batches cycle through the shapes a derived build must handle:
// empty (the freeze reuses the index), vertex-only, edges among
// existing vertices with parallel copies, new vertices with edges out
// of and into them, edges out of a page's first and last vertex and out
// of the last vertex of the last (partial) page, new vertices that open
// a page, and edges that fill the tail chunk exactly or run past its
// end. Label 0 is first used halfway through, so its group sorts ahead
// of the groups a touched vertex already has.
template <typename Check>
void RunAppends(uint64_t seed, int freezes, Check check) {
  std::mt19937_64 rng(seed);
  Database db;
  db.AddVertices(8 * kPage + kPage / 2 + static_cast<uint32_t>(seed % 7));
  auto any_vertex = [&] {
    return static_cast<uint32_t>(rng() % db.num_vertices());
  };
  for (uint32_t i = 0; i < kChunk - 1 - seed % 16; ++i)
    db.AddEdge(any_vertex(), 1 + static_cast<uint32_t>(rng() % 2),
               any_vertex());
  for (int f = 0; f < freezes; ++f) {
    const uint32_t first_label = f < freezes / 2 ? 1 : 0;
    auto label = [&] {
      return first_label + static_cast<uint32_t>(rng() % (3 - first_label));
    };
    const uint32_t edges = 1 + static_cast<uint32_t>(rng() % 6);
    switch ((seed + f) % 7) {
      case 0:
        break;
      case 1:
        db.AddVertices(1 + static_cast<uint32_t>(rng() % 3));
        break;
      case 2:
        for (uint32_t i = 0; i < edges; ++i) {
          if (rng() % 3 == 0) {
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
      case 4: {
        const uint32_t page =
            static_cast<uint32_t>(rng() % (db.num_vertices() / kPage));
        db.AddEdge(page * kPage, label(), any_vertex());
        db.AddEdge(page * kPage + kPage - 1, label(), any_vertex());
        db.AddEdge(db.num_vertices() - 1, label(), any_vertex());
        break;
      }
      case 5: {
        const uint32_t open = (db.num_vertices() / kPage + 1) * kPage;
        db.AddVertices(open - db.num_vertices() +
                       static_cast<uint32_t>(rng() % 3));
        db.AddEdge(open, label(), any_vertex());
        db.AddEdge(any_vertex(), label(), open);
        break;
      }
      case 6: {
        const uint32_t to_boundary =
            kChunk - static_cast<uint32_t>(db.num_edges() % kChunk);
        const uint32_t count =
            to_boundary <= 16 ? to_boundary + static_cast<uint32_t>(rng() % 2)
                              : edges;
        for (uint32_t i = 0; i < count; ++i)
          db.AddEdge(any_vertex(), label(), any_vertex());
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
    const LabelIndex::OutEdges got_out = got.Out(v);
    const LabelIndex::OutEdges want_out = want.Out(v);
    ASSERT_EQ(got_out.groups.size(), want_out.groups.size()) << "vertex " << v;
    for (size_t g = 0; g < want_out.groups.size(); ++g) {
      EXPECT_EQ(got_out.groups[g].label, want_out.groups[g].label)
          << "vertex " << v;
      EXPECT_EQ(got_out.groups[g].begin, want_out.groups[g].begin)
          << "vertex " << v;
      EXPECT_EQ(got_out.groups[g].end, want_out.groups[g].end)
          << "vertex " << v;
    }
    ASSERT_EQ(got_out.targets.size(), want_out.targets.size())
        << "vertex " << v;
    for (size_t t = 0; t < want_out.targets.size(); ++t) {
      EXPECT_EQ(got_out.targets[t].edge, want_out.targets[t].edge);
      EXPECT_EQ(got_out.targets[t].dst, want_out.targets[t].dst);
    }
  }
  for (uint32_t e = 0; e < want.num_edges(); ++e) {
    EXPECT_EQ(got.PositionOf(e), want.PositionOf(e)) << "edge " << e;
    EXPECT_EQ(got.SourceOf(e), want.SourceOf(e)) << "edge " << e;
  }
}

// The vertex pages [0, pages) a write from (prev_vertices, prev_edges)
// to db's contents touched: those holding a new vertex or an endpoint
// (end(edge)) of a new edge.
template <typename End>
std::vector<bool> TouchedPages(const Database& db, uint32_t prev_vertices,
                               uint32_t prev_edges, End end) {
  const uint32_t pages = (db.num_vertices() + kPage - 1) / kPage;
  std::vector<bool> touched(pages, false);
  for (uint32_t v = prev_vertices; v < db.num_vertices(); ++v)
    touched[v / kPage] = true;
  for (uint32_t e = prev_edges; e < db.num_edges(); ++e)
    touched[end(db.edge(e)) / kPage] = true;
  return touched;
}

// A derived structure must share exactly the pages its write left
// alone: page_of(v) is the identity of the page holding v.
template <typename PageOf>
void ExpectSharesUntouchedPages(const std::vector<bool>& touched,
                                uint32_t prev_vertices, PageOf page_of) {
  for (uint32_t p = 0; p < touched.size(); ++p) {
    const auto [now, before] = page_of(p * kPage);
    if (touched[p]) {
      EXPECT_NE(now, before) << "page " << p << " was touched";
    } else {
      ASSERT_LT(p * kPage, prev_vertices);
      EXPECT_EQ(now, before) << "page " << p << " was copied";
    }
  }
}

// Every Freeze derives its index from the previous one; a database that
// was never frozen derives its first from an empty index. Both must
// produce the same layout for the same edge list, and the derived one
// must share every page and full edge chunk the batch did not touch.
TEST(LabelIndexTest, DerivedFreezeMatchesFullBuild) {
  for (uint64_t seq = 0; seq < 24; ++seq) {
    SCOPED_TRACE(testing::Message() << "sequence " << seq);
    Snapshot prev;
    // Sequence 0 runs 80 freezes: each derives from the one before.
    RunAppends(seq, seq == 0 ? 80 : 14, [&](const Database& db,
                                            const Snapshot& snap) {
      Database fresh;
      fresh.AddVertices(db.num_vertices());
      for (uint32_t e = 0; e < db.num_edges(); ++e)
        fresh.AddEdge(db.src(e), db.edge(e).label, db.dst(e));
      Snapshot full = fresh.Freeze();
      EXPECT_EQ(snap.num_vertices(), db.num_vertices());
      EXPECT_EQ(snap.num_edges(), db.num_edges());
      ExpectSameIndex(snap.label_index(), full.label_index());
      if (prev) {
        const LabelIndex& now = snap.label_index();
        const LabelIndex& before = prev.label_index();
        const uint32_t prev_edges = static_cast<uint32_t>(before.num_edges());
        ExpectSharesUntouchedPages(
            TouchedPages(db, before.num_vertices(), prev_edges,
                         [](const Edge& e) { return e.src; }),
            before.num_vertices(), [&](uint32_t v) {
              return std::pair(now.PageOf(v),
                               v < before.num_vertices() ? before.PageOf(v)
                                                         : nullptr);
            });
        // Full chunks are shared; with new edges, the tail is rebuilt.
        for (uint32_t e = 0; e < now.num_edges(); e += kChunk) {
          if (prev_edges < now.num_edges() && e + kChunk > prev_edges)
            EXPECT_NE(now.ChunkOf(e), e < prev_edges ? before.ChunkOf(e)
                                                     : nullptr)
                << "edge " << e;
          else
            EXPECT_EQ(now.ChunkOf(e), before.ChunkOf(e)) << "edge " << e;
        }
      }
      prev = snap;
    });
  }
}

// The same oracle for the delta-repair layer's reverse CSR: a context
// derived at every freeze, one derived only at every third (skipping
// generations, as the engine does when a freeze is never installed) and
// one built from empty all list each vertex's in-edge sources in edge-id
// order, and each derived context shares every page that holds neither
// a new vertex nor a new edge's destination.
TEST(DeltaContextTest, DerivedContextMatchesInEdges) {
  for (uint64_t seq = 0; seq < 24; ++seq) {
    SCOPED_TRACE(testing::Message() << "sequence " << seq);
    std::unique_ptr<DeltaContext> every, sparse;
    uint32_t every_v = 0, every_e = 0, sparse_v = 0, sparse_e = 0;
    int freeze = 0;
    auto derive = [](const Database& db, const Snapshot& snap,
                     std::unique_ptr<DeltaContext>* ctx, uint32_t* vertices,
                     uint32_t* edges) {
      if (*ctx == nullptr) {
        *ctx = std::make_unique<DeltaContext>(snap);
      } else {
        auto next = std::make_unique<DeltaContext>(snap, **ctx);
        ExpectSharesUntouchedPages(
            TouchedPages(db, *vertices, *edges,
                         [](const Edge& e) { return e.dst; }),
            *vertices, [&](uint32_t v) {
              return std::pair(next->PageOf(v),
                               v < *vertices ? (*ctx)->PageOf(v) : nullptr);
            });
        *ctx = std::move(next);
      }
      *vertices = snap.num_vertices();
      *edges = static_cast<uint32_t>(snap.num_edges());
    };
    RunAppends(seq, seq == 0 ? 80 : 14, [&](const Database& db,
                                            const Snapshot& snap) {
      DeltaContext full(snap);
      std::vector<const DeltaContext*> contexts = {&full};
      derive(db, snap, &every, &every_v, &every_e);
      contexts.push_back(every.get());
      if (freeze++ % 3 == 0) {
        derive(db, snap, &sparse, &sparse_v, &sparse_e);
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

// An old snapshot reads the same adjacency and ranks however many
// generations derive from its index afterwards: the later freezes share
// its pages and chunks but never write to them, and the ones they
// replace stay alive while the old snapshot does.
TEST(LabelIndexTest, OldSnapshotReadsTheSameAfterLaterFreezes) {
  auto dump = [](const LabelIndex& ix) {
    std::vector<uint32_t> out;
    for (uint32_t v = 0; v < ix.num_vertices(); ++v) {
      const LabelIndex::OutEdges adj = ix.Out(v);
      out.push_back(static_cast<uint32_t>(adj.groups.size()));
      for (const LabelIndex::Group& g : adj.groups)
        out.insert(out.end(), {g.label, g.begin, g.end});
      for (const LabelIndex::Target& t : adj.targets)
        out.insert(out.end(), {t.edge, t.dst});
    }
    for (uint32_t e = 0; e < ix.num_edges(); ++e)
      out.insert(out.end(), {ix.SourceOf(e), ix.PositionOf(e)});
    return out;
  };
  Snapshot old;
  std::vector<uint32_t> before;
  int freezes = 0;
  RunAppends(3, 72, [&](const Database&, const Snapshot& snap) {
    if (freezes++ == 1) {
      old = snap;
      before = dump(old.label_index());
    }
  });
  ASSERT_EQ(freezes, 72);  // 70 freezes after the old one
  EXPECT_EQ(dump(old.label_index()), before);
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
