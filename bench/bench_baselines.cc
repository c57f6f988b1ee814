// E6 + E7: the paper's algorithm against Theorem 1 and the naive strawman.
//
// E6 (Theorem 1 vs Theorem 2): the Martens-Trautner reduction's delay
//     carries a factor |D| (its automaton A' has |E| x |Delta| transitions)
//     — sweeping the database size shows its per-output cost growing while
//     the main algorithm's stays flat.
// E7 (introduction): the naive product enumeration generates
//     exponentially many duplicates as nondeterminism grows; the main
//     algorithm's work per output is unchanged.

#include <benchmark/benchmark.h>

// The Theorem 1 baseline lands in a later change; E6a/E7 run without it.
#if __has_include("baseline/mt_baseline.h")
#include "baseline/mt_baseline.h"
#define DSW_HAVE_MT_BASELINE 1
#endif

#include "baseline/naive.h"
#include "bench_util.h"
#include "core/annotate.h"
#include "core/resumable_index.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

Instance GridInstance(int64_t n) {
  return Grid(static_cast<uint32_t>(n), static_cast<uint32_t>(n));
}

// E6a: main algorithm end-to-end on an n x n grid (lambda = 2n - 2).
void BM_Ours_OnGrid(benchmark::State& state) {
  Instance inst = GridInstance(state.range(0));
  Nfa query = StaircaseNfa(1, 1);
  Snapshot snap = inst.db.Freeze();
  bench::DelayProfile profile;
  for (auto _ : state) {
    Annotation ann = Annotate(snap, query, inst.source, inst.target);
    ResumableIndex index(snap, ann);
    ResumableEnumerator en(ann, index, inst.source, inst.target);
    profile = bench::MeasureDelays(&en);
  }
  bench::ReportDelays(state, profile);
  state.counters["db_size"] = static_cast<double>(inst.db.size());
}
BENCHMARK(BM_Ours_OnGrid)->DenseRange(4, 10, 2)
    ->Unit(benchmark::kMillisecond);

// E6b: Theorem 1 baseline on the same instances. Note the growing
// per-output cost (|D| enters the delay through A').
#ifdef DSW_HAVE_MT_BASELINE
void BM_MtBaseline_OnGrid(benchmark::State& state) {
  Instance inst = GridInstance(state.range(0));
  Nfa query = StaircaseNfa(1, 1);
  bench::DelayProfile profile;
  for (auto _ : state) {
    MtBaselineEnumerator en(inst.db, query, inst.source, inst.target);
    profile = bench::MeasureDelays(&en);
  }
  bench::ReportDelays(state, profile);
  state.counters["db_size"] = static_cast<double>(inst.db.size());
}
BENCHMARK(BM_MtBaseline_OnGrid)->DenseRange(4, 10, 2)
    ->Unit(benchmark::kMillisecond);
#endif  // DSW_HAVE_MT_BASELINE

// E7: duplicate blow-up of the naive enumeration. Arg: bubble count k.
// Answers: 2^k; naive product paths: sum over runs and words — grows as
// ~C(k, width) x 2^k. Counter dup_per_answer explodes while the main
// algorithm emits each answer exactly once by construction.
void BM_Naive_DuplicateBlowup(benchmark::State& state) {
  Instance inst = BubbleChain(static_cast<uint32_t>(state.range(0)), 2);
  Nfa query = StaircaseNfa(2, 2);
  NaiveResult res;
  Snapshot snap = inst.db.Freeze();
  for (auto _ : state) {
    res = NaiveDistinctShortestWalks(snap, query, inst.source,
                                     inst.target, uint64_t{1} << 28);
  }
  state.counters["answers"] = static_cast<double>(res.walks.size());
  state.counters["paths"] = static_cast<double>(res.paths_generated);
  state.counters["dup_per_answer"] =
      res.walks.empty() ? 0.0
                        : static_cast<double>(res.duplicates) /
                              static_cast<double>(res.walks.size());
}
// k = 10 already needs ~5 x 10^7 product paths (1024 answers x 1024 label
// words x 45 run shapes); the sweep stops at 8 and the trend is cubic-
// exponential — see EXPERIMENTS.md.
BENCHMARK(BM_Naive_DuplicateBlowup)->DenseRange(4, 8, 2)
    ->Unit(benchmark::kMillisecond);

// E7b: ours on the identical instances — per-answer work flat.
void BM_Ours_DuplicateFree(benchmark::State& state) {
  Instance inst = BubbleChain(static_cast<uint32_t>(state.range(0)), 2);
  Nfa query = StaircaseNfa(2, 2);
  Snapshot snap = inst.db.Freeze();
  bench::DelayProfile profile;
  for (auto _ : state) {
    Annotation ann = Annotate(snap, query, inst.source, inst.target);
    ResumableIndex index(snap, ann);
    ResumableEnumerator en(ann, index, inst.source, inst.target);
    profile = bench::MeasureDelays(&en);
  }
  bench::ReportDelays(state, profile);
}
BENCHMARK(BM_Ours_DuplicateFree)->DenseRange(4, 12, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dsw
