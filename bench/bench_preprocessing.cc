// E1 + E2 (Theorem 2): preprocessing time O(|D| x |A|).
//
// E1: fixed query, layered databases with |E| doubling — expect time per
//     edge to stay roughly constant (linearity in |D|).
// E2: fixed database, query automata with |Delta| doubling — expect time
//     per transition to stay roughly constant (linearity in |A|).
//
// Every arm that builds a TrimmedIndex times the seek ranks of the
// memoryless enumeration too: the one backward sweep lays them out.

#include <benchmark/benchmark.h>

#include <random>

#include "bench_util.h"
#include "core/annotate.h"
#include "core/trimmed_index.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

// E1: |D| sweep at fixed |A|. Arg: layer width multiplier.
void BM_Preprocess_VsDbSize(benchmark::State& state) {
  LayeredGraphParams params;
  params.layers = 16;
  params.width = static_cast<uint32_t>(state.range(0));
  params.edges_per_vertex = 8;
  params.num_labels = 2;
  params.extra_labels = 1;
  params.multi_label_p = 0.3;
  params.seed = 17;
  Instance inst = LayeredGraph(params);
  Nfa query = StaircaseNfa(2, 2);

  Snapshot snap = inst.db.Freeze();
  for (auto _ : state) {
    Annotation ann = Annotate(snap, query, inst.source, inst.target);
    TrimmedIndex index(snap, ann);
    benchmark::DoNotOptimize(index.num_slots());
  }
  state.counters["edges"] = static_cast<double>(inst.db.num_edges());
  state.counters["db_size"] = static_cast<double>(inst.db.size());
  state.counters["ns_per_edge"] = benchmark::Counter(
      static_cast<double>(inst.db.num_edges()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_Preprocess_VsDbSize)->RangeMultiplier(2)->Range(16, 512);

// E2: |A| sweep at fixed |D|. Arg: staircase width (|Delta| ~ 4 x width).
void BM_Preprocess_VsAutomatonSize(benchmark::State& state) {
  LayeredGraphParams params;
  params.layers = 12;
  params.width = 48;
  params.edges_per_vertex = 6;
  params.num_labels = 2;
  params.extra_labels = 1;
  params.multi_label_p = 0.3;
  params.seed = 23;
  Instance inst = LayeredGraph(params);
  Nfa query = StaircaseNfa(static_cast<uint32_t>(state.range(0)), 2);

  Snapshot snap = inst.db.Freeze();
  for (auto _ : state) {
    Annotation ann = Annotate(snap, query, inst.source, inst.target);
    TrimmedIndex index(snap, ann);
    benchmark::DoNotOptimize(index.num_slots());
  }
  state.counters["transitions"] =
      static_cast<double>(query.num_transitions());
  state.counters["ns_per_transition"] = benchmark::Counter(
      static_cast<double>(query.num_transitions()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_Preprocess_VsAutomatonSize)->RangeMultiplier(2)->Range(2, 64);

// E1g: Grid workload at |Q| >= 64 — the acceptance workload for the
// label-stratified hot path. StaircaseNfa(63, 1) has 64 states; on an
// n x n grid (n >= 33) lambda = 2(n - 1) >= 63, so annotation visits
// every level of a maximally wide staircase. Arg: grid side n.
void BM_Preprocess_Grid(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  Instance inst = Grid(n, n);
  Nfa query = StaircaseNfa(63, 1);

  Snapshot snap = inst.db.Freeze();
  for (auto _ : state) {
    Annotation ann = Annotate(snap, query, inst.source, inst.target);
    TrimmedIndex index(snap, ann);
    benchmark::DoNotOptimize(index.num_slots());
  }
  state.counters["edges"] = static_cast<double>(inst.db.num_edges());
  state.counters["states"] = static_cast<double>(query.num_states());
  state.counters["ns_per_edge"] = benchmark::Counter(
      static_cast<double>(inst.db.num_edges()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_Preprocess_Grid)->Arg(33)->Arg(48)->Arg(64);

// E1n: EmbedInNoise workload at |Q| >= 64 — a BubbleChain core
// (lambda = 64) drowned in reachable-but-useless noise, so annotation
// wades through the noise at full staircase width while trimming cuts
// straight back to the core. Arg: noise vertex count (edges = 4x).
void BM_Preprocess_EmbedInNoise(benchmark::State& state) {
  Instance core = BubbleChain(32, 2);
  uint32_t noise = static_cast<uint32_t>(state.range(0));
  Instance inst = EmbedInNoise(core, noise, 4 * noise, 97);
  Nfa query = StaircaseNfa(64, 2);

  Snapshot snap = inst.db.Freeze();
  for (auto _ : state) {
    Annotation ann = Annotate(snap, query, inst.source, inst.target);
    TrimmedIndex index(snap, ann);
    benchmark::DoNotOptimize(index.num_slots());
  }
  state.counters["edges"] = static_cast<double>(inst.db.num_edges());
  state.counters["states"] = static_cast<double>(query.num_states());
  state.counters["ns_per_edge"] = benchmark::Counter(
      static_cast<double>(inst.db.num_edges()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_Preprocess_EmbedInNoise)->Arg(512)->Arg(2048)->Arg(8192);

// E1l: a BubbleChain(8, 2) core beside N extra vertices with 4N random
// edges among themselves, none touching the core, so the BFS reaches
// the same pairs at every N. The product BFS takes its V-sized seen and
// slot tables from a per-thread scratch that each call leaves zeroed
// along the levels it built, so annotate + trim should cost the same at
// both sizes; CI gates the large arm at under 3x the small one. Arg:
// extra vertex count.
void BM_Annotate_LocalInLargeGraph(benchmark::State& state) {
  Instance inst = BubbleChain(8, 2);
  const uint32_t extra = static_cast<uint32_t>(state.range(0));
  const uint32_t first = inst.db.AddVertices(extra);
  std::mt19937_64 rng(41);
  for (uint32_t i = 0; i < 4 * extra; ++i) {
    const uint32_t src = first + static_cast<uint32_t>(rng() % extra);
    const uint32_t label = static_cast<uint32_t>(rng() % 2);
    const uint32_t dst = first + static_cast<uint32_t>(rng() % extra);
    inst.db.AddEdge(src, label, dst);
  }
  Nfa query = StaircaseNfa(2, 2);

  Snapshot snap = inst.db.Freeze();
  for (auto _ : state) {
    Annotation ann = Annotate(snap, query, inst.source, inst.target);
    TrimmedIndex index(snap, ann);
    benchmark::DoNotOptimize(index.num_slots());
  }
  state.counters["vertices"] = static_cast<double>(inst.db.num_vertices());
}
BENCHMARK(BM_Annotate_LocalInLargeGraph)
    ->ArgName("extra_vertices")
    ->Arg(4096)
    ->Arg(262144);

// E1s: n x n grids with the exact-length any-word DFA AnyKDfa(2(n-1),
// 1), a one-word query (|Q| = 2n-1), so annotate + trim run the
// single-word kernels. Arg: n.
void BM_Preprocess_GridSingleWord(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Instance inst = Grid(n, n);
  Nfa dfa = AnyKDfa(2 * (n - 1), 1);

  Snapshot snap = inst.db.Freeze();
  for (auto _ : state) {
    Annotation ann = Annotate(snap, dfa, inst.source, inst.target);
    TrimmedIndex index(snap, ann);
    benchmark::DoNotOptimize(index.num_slots());
  }
}
BENCHMARK(BM_Preprocess_GridSingleWord)->DenseRange(6, 14, 4)
    ->Unit(benchmark::kMillisecond);

// E2b: densest possible query (complete automaton) to stress |Delta|.
void BM_Preprocess_CompleteQuery(benchmark::State& state) {
  LayeredGraphParams params;
  params.layers = 10;
  params.width = 32;
  params.edges_per_vertex = 4;
  params.seed = 29;
  Instance inst = LayeredGraph(params);
  Nfa query = CompleteNfa(static_cast<uint32_t>(state.range(0)), 2);

  Snapshot snap = inst.db.Freeze();
  for (auto _ : state) {
    Annotation ann = Annotate(snap, query, inst.source, inst.target);
    benchmark::DoNotOptimize(ann.lambda);
  }
  state.counters["transitions"] =
      static_cast<double>(query.num_transitions());
}
BENCHMARK(BM_Preprocess_CompleteQuery)->RangeMultiplier(2)->Range(2, 16);

}  // namespace
}  // namespace dsw
