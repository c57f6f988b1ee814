// E13: incremental maintenance under edge insertions. Measures the cost
// of bringing a prepared query's structures (Annotation + TrimmedIndex +
// ResumableIndex) up to date after a batch of k inserted edges, as a
// function of the mutation rate k / |E| (permille), two ways:
//
//   DeltaRepair  — DeltaContext + DeltaAnnotate (the product BFS resumed
//                  from the old levels) + DeltaTrim patch + resumable
//                  re-layout (the incremental InstallSnapshot path of the
//                  engine)
//   FullRebuild  — Annotate product BFS + full backward sweep + layout
//                  (what every mutation used to cost)
//
// The inserted edges land in the noise region of the instance — the
// headline use case: writes that touch parts of the graph away from the
// query's answer set, where the repair's touched region stays small. Both
// arms apply identical insertions (same seed), and the repair arm times
// everything the engine's upgrade path would run, DeltaContext build
// included. The CI perf-smoke job gates DeltaRepair being >3x faster
// than FullRebuild at permille = 10 (a 1% mutation rate).
//
// Two more arms time the Database::Freeze that precedes every install:
//
//   Freeze             — the freeze after a batch, derived from the
//                        previous freeze's index (block copies plus the
//                        touched vertices)
//   FreezeFromScratch  — the first freeze of a never-frozen copy, which
//                        derives from an empty index and so emits every
//                        vertex
//
// The CI perf-smoke job fails unless FreezeFromScratch takes more than
// 2x as long as Freeze at permille = 10, so a silent fallback to full
// builds cannot pass.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>

#include "core/annotate.h"
#include "core/database.h"
#include "core/delta_annotate.h"
#include "core/resumable_index.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

struct Fixture {
  Instance pristine;
  uint32_t noise_first;
  uint32_t noise_count;
  Nfa query;

  // The shape matters: noise never re-enters the core (EmbedInNoise
  // wires source -> noise and noise -> noise only), so the trimmed
  // useful set stays core-sized while the *annotation* spans the whole
  // noise region — and the wide staircase keeps the per-vertex state
  // sets dense, which the from-scratch product BFS pays for state by
  // state (one delta-row OR each) at every vertex of every level, while
  // the repair marks the old levels into its seen bitmap word by word
  // and moves only the new pairs and the new edges' sources. That
  // asymmetry, not a microbenchmark accident, is what the >3x CI gate
  // pins.
  Fixture()
      : pristine(BubbleChain(16, 2)), query(StaircaseNfa(31, 2)) {
    noise_first = pristine.db.num_vertices();
    noise_count = 1500;
    pristine = EmbedInNoise(pristine, noise_count, 6000, 33);
  }

  static const Fixture& Get() {
    static Fixture fx;
    return fx;
  }

  uint32_t NumInserts(int64_t permille) const {
    auto k = static_cast<uint32_t>(pristine.db.num_edges() * permille / 1000);
    return k == 0 ? 1 : k;
  }

  // Applies the deterministic insertion batch to \p db (noise-region
  // endpoints; identical across arms and iterations).
  void Mutate(Database* db, uint32_t k) const {
    std::mt19937_64 rng(4242);
    auto noise_vertex = [&] {
      return noise_first + static_cast<uint32_t>(rng() % noise_count);
    };
    for (uint32_t i = 0; i < k; ++i)
      db->AddEdge(noise_vertex(), static_cast<uint32_t>(rng() % 2),
                  noise_vertex());
  }
};

void BM_Mutation_DeltaRepair(benchmark::State& state) {
  const Fixture& fx = Fixture::Get();
  const uint32_t k = fx.NumInserts(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Database db = fx.pristine.db;
    Snapshot s0 = db.Freeze();
    const uint64_t prev_gen = s0.generation();
    Annotation ann =
        Annotate(s0, fx.query, fx.pristine.source, fx.pristine.target);
    TrimmedIndex trim(s0, ann);
    fx.Mutate(&db, k);
    Snapshot ns = db.Freeze();
    EdgeDelta delta = ns.DeltaFrom(prev_gen);
    state.ResumeTiming();

    DeltaContext ctx(ns);
    AnnotationRepair rep = DeltaAnnotate(ns, delta, &ann);
    TrimmedIndex repaired = DeltaTrim(ns, ann, trim, rep, delta, ctx);
    ResumableIndex idx(ns, ann, std::move(repaired));
    benchmark::DoNotOptimize(idx);
  }
  state.counters["inserted_edges"] = k;
}
BENCHMARK(BM_Mutation_DeltaRepair)
    ->ArgName("permille")
    ->Arg(1)
    ->Arg(10)
    ->Arg(50);

void BM_Mutation_FullRebuild(benchmark::State& state) {
  const Fixture& fx = Fixture::Get();
  const uint32_t k = fx.NumInserts(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Database db = fx.pristine.db;
    db.Freeze();
    fx.Mutate(&db, k);
    Snapshot ns = db.Freeze();
    state.ResumeTiming();

    Annotation ann =
        Annotate(ns, fx.query, fx.pristine.source, fx.pristine.target);
    ResumableIndex idx(ns, ann);
    benchmark::DoNotOptimize(idx);
  }
  state.counters["inserted_edges"] = k;
}
BENCHMARK(BM_Mutation_FullRebuild)
    ->ArgName("permille")
    ->Arg(1)
    ->Arg(10)
    ->Arg(50);

// The databases and snapshots live across iterations, so neither the
// copy's teardown nor the release of an index lands in the timed region:
// `before` keeps the pre-batch index alive, as the engine's installed
// snapshot does.
void BM_Mutation_Freeze(benchmark::State& state) {
  const Fixture& fx = Fixture::Get();
  const uint32_t k = fx.NumInserts(state.range(0));
  Database db;
  Snapshot before, after;
  for (auto _ : state) {
    state.PauseTiming();
    after = Snapshot();
    db = fx.pristine.db;
    before = db.Freeze();
    fx.Mutate(&db, k);
    state.ResumeTiming();

    after = db.Freeze();
    benchmark::DoNotOptimize(after);
  }
  state.counters["inserted_edges"] = k;
}
BENCHMARK(BM_Mutation_Freeze)
    ->ArgName("permille")
    ->Arg(1)
    ->Arg(10)
    ->Arg(50);

void BM_Mutation_FreezeFromScratch(benchmark::State& state) {
  const Fixture& fx = Fixture::Get();
  const uint32_t k = fx.NumInserts(state.range(0));
  Database db;
  Snapshot after;
  for (auto _ : state) {
    state.PauseTiming();
    after = Snapshot();
    db = fx.pristine.db;  // the generators never freeze
    fx.Mutate(&db, k);
    state.ResumeTiming();

    after = db.Freeze();
    benchmark::DoNotOptimize(after);
  }
  state.counters["inserted_edges"] = k;
}
BENCHMARK(BM_Mutation_FreezeFromScratch)
    ->ArgName("permille")
    ->Arg(1)
    ->Arg(10)
    ->Arg(50);

}  // namespace
}  // namespace dsw
