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
//
// WriteCost times what an install pays before any plan repair, the
// derived Freeze plus the derived DeltaContext, for one fixed 100-edge
// batch inside the first 4,096 noise vertices, on the fixture's core
// with 4,096 (scale:1) or 65,536 (scale:16) noise vertices and four
// edges per noise vertex in both. Both structures share every page the
// batch did not touch, so the 16x graph must cost under 4x as much: the
// CI perf-smoke job fails otherwise, as it does on a full copy, which
// scales with the graph. BM_Mutation_Freeze cannot show this, because
// its fixture has only 1,549 vertices.
//
// Install times the engine's whole InstallSnapshot of a permille-1
// batch (DeltaContext derivation plus 16 plan repairs) with the engine's
// worker count as its argument: the repairs run on the installing
// thread and every worker, 2 threads at threads:1 and 4 at threads:3.
// CalibrateSpinLoop runs fixed, independent integer work on 1 and on 3
// benchmark threads, so its threads:1 / threads:3 real-time ratio says
// how many cores this run really had. The CI perf-smoke job requires
// Install at threads:1 to take >1.3x as long as at threads:3, unless
// the same run's spin loop scaled by 2.5x or less, when it reports the
// gate as not measurable.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "core/annotate.h"
#include "core/database.h"
#include "core/delta_annotate.h"
#include "core/resumable_index.h"
#include "engine/engine.h"
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
  // endpoints; identical across arms, and across iterations unless a
  // \p seed tells them apart).
  void Mutate(Database* db, uint32_t k, uint64_t seed = 4242) const {
    std::mt19937_64 rng(seed);
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

// DeltaTrim alone, on inputs built once: the old index, the batch's
// delta and its repaired annotation, and a context of the new snapshot.
// The trim is a pure function of them, so every iteration repeats the
// same repair.
void BM_Mutation_DeltaTrim(benchmark::State& state) {
  const Fixture& fx = Fixture::Get();
  const uint32_t k = fx.NumInserts(state.range(0));
  Database db = fx.pristine.db;
  const Snapshot s0 = db.Freeze();
  Annotation ann =
      Annotate(s0, fx.query, fx.pristine.source, fx.pristine.target);
  const TrimmedIndex trim(s0, ann);
  fx.Mutate(&db, k);
  const Snapshot ns = db.Freeze();
  const EdgeDelta delta = ns.DeltaFrom(s0.generation());
  const DeltaContext ctx(ns);
  const AnnotationRepair rep = DeltaAnnotate(ns, delta, &ann);
  for (auto _ : state) {
    TrimmedIndex repaired = DeltaTrim(ns, ann, trim, rep, delta, ctx);
    benchmark::DoNotOptimize(repaired);
  }
  state.counters["inserted_edges"] = k;
}
BENCHMARK(BM_Mutation_DeltaTrim)->ArgName("permille")->Arg(1)->Arg(50);

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

// Every 64 iterations the database starts again from its first
// freeze, untimed, so the batch's vertices never grow far past four
// edges each, whichever arm runs more iterations.
void BM_Mutation_WriteCost(benchmark::State& state) {
  const uint32_t noise = 4096 * static_cast<uint32_t>(state.range(0));
  const Instance pristine =
      EmbedInNoise(BubbleChain(16, 2), noise, 4 * noise, 33);
  const uint32_t noise_first = pristine.db.num_vertices() - noise;
  std::mt19937_64 rng(4242);
  std::vector<Edge> batch(100);
  for (Edge& e : batch)
    e = Edge{noise_first + static_cast<uint32_t>(rng() % 4096),
             noise_first + static_cast<uint32_t>(rng() % 4096),
             static_cast<uint32_t>(rng() % 2)};
  Database db;
  Snapshot prev, next;
  std::unique_ptr<DeltaContext> prev_ctx, next_ctx;
  int64_t iteration = 0;
  for (auto _ : state) {
    state.PauseTiming();
    if (iteration++ % 64 == 0) {
      next = Snapshot();
      next_ctx = nullptr;
      db = pristine.db;
      prev = db.Freeze();
      prev_ctx = std::make_unique<DeltaContext>(prev);
    } else {  // the generation before dies here
      prev = std::move(next);
      prev_ctx = std::move(next_ctx);
    }
    for (const Edge& e : batch) db.AddEdge(e.src, e.label, e.dst);
    state.ResumeTiming();

    next = db.Freeze();
    next_ctx = std::make_unique<DeltaContext>(next, *prev_ctx);
    benchmark::DoNotOptimize(next_ctx);
  }
  state.counters["vertices"] = static_cast<double>(db.num_vertices());
}
BENCHMARK(BM_Mutation_WriteCost)->ArgName("scale")->Arg(1)->Arg(16);

// The engine holds 16 entries: StaircaseNfa widths 16..31 from the
// fixture's endpoints, each lambda 32 through the core with levels that
// flood the noise. Each iteration inserts a fresh permille-1 batch (6
// edges) and freezes untimed, then installs, so the graph grows by
// under 10% over a 0.1 s run.
void BM_Mutation_Install(benchmark::State& state) {
  const Fixture& fx = Fixture::Get();
  const uint32_t k = fx.NumInserts(1);
  Database db = fx.pristine.db;
  QueryEngine engine(static_cast<uint32_t>(state.range(0)));
  engine.InstallSnapshot(db.Freeze());
  for (uint32_t width = 16; width < 32; ++width)
    engine.Prepare(StaircaseNfa(width, 2), fx.pristine.source,
                   fx.pristine.target);
  const uint64_t upgraded = engine.Stats().plans_upgraded;
  uint64_t seed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    fx.Mutate(&db, k, ++seed);
    Snapshot snap = db.Freeze();
    state.ResumeTiming();

    engine.InstallSnapshot(std::move(snap));
  }
  state.counters["inserted_edges"] = k;
  state.counters["plans_per_install"] = benchmark::Counter(
      static_cast<double>(engine.Stats().plans_upgraded - upgraded),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_Mutation_Install)->ArgName("threads")->Arg(1)->Arg(3);

// Fixed, independent integer work on every benchmark thread: a real
// time per iteration that falls 3x from 1 to 3 threads means the run
// had 3 free cores.
void BM_Calibrate_SpinLoop(benchmark::State& state) {
  uint64_t x = static_cast<uint64_t>(state.thread_index()) + 1;
  for (auto _ : state) {
    for (int i = 0; i < (1 << 20); ++i)
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Calibrate_SpinLoop)->Threads(1)->Threads(3);

}  // namespace
}  // namespace dsw
