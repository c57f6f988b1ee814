// E0: the paper's worked example (Figures 1 and 3, Example 9) as a
// micro-benchmark — preprocessing and full enumeration of the four
// answers on the five-vertex instance. Sanity anchor for the larger
// experiments.

#include <benchmark/benchmark.h>

#include "core/annotate.h"
#include "core/resumable_index.h"
#include "core/trimmed_index.h"
#include "workload/figure1.h"

namespace dsw {
namespace {

void BM_Figure1_Preprocess(benchmark::State& state) {
  Figure1 fig = MakeFigure1();
  Snapshot snap = fig.db.Freeze();
  for (auto _ : state) {
    Annotation ann = Annotate(snap, fig.query, fig.alix, fig.bob);
    TrimmedIndex index(snap, ann);
    benchmark::DoNotOptimize(index.num_slots());
  }
}
BENCHMARK(BM_Figure1_Preprocess);

void BM_Figure1_Enumerate(benchmark::State& state) {
  Figure1 fig = MakeFigure1();
  Snapshot snap = fig.db.Freeze();
  Annotation ann = Annotate(snap, fig.query, fig.alix, fig.bob);
  ResumableIndex index(snap, ann);
  size_t outputs = 0;
  for (auto _ : state) {
    for (ResumableEnumerator en(ann, index, fig.alix, fig.bob);
         en.Valid(); en.Next()) {
      benchmark::DoNotOptimize(en.walk().edges.data());
      ++outputs;
    }
  }
  state.counters["answers_per_iter"] =
      static_cast<double>(outputs) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_Figure1_Enumerate);

void BM_Figure1_EndToEnd(benchmark::State& state) {
  Figure1 fig = MakeFigure1();
  Snapshot snap = fig.db.Freeze();
  for (auto _ : state) {
    Annotation ann = Annotate(snap, fig.query, fig.alix, fig.bob);
    ResumableIndex index(snap, ann);
    size_t n = 0;
    for (ResumableEnumerator en(ann, index, fig.alix, fig.bob);
         en.Valid(); en.Next()) {
      ++n;
    }
    if (n != 4) state.SkipWithError("expected 4 answers");
  }
}
BENCHMARK(BM_Figure1_EndToEnd);

}  // namespace
}  // namespace dsw
