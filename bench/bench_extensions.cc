// E11 (Section 5.3): the extensions.
//
// Cheapest walks: Dijkstra-based preprocessing vs the BFS preprocessing
// on the same instances (expected: a logarithmic PQ factor on top of
// O(|D| x |A|)). Multiplicity counting: integrated counting leaves the
// delay essentially unchanged. Many targets: one stop-free annotation
// amortized over k targets vs k independent runs.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/annotate.h"
#include "core/cheapest.h"
#include "core/multi_target.h"
#include "core/resumable_index.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

Instance WeightedInstance(int64_t scale) {
  LayeredGraphParams params;
  params.layers = 12;
  params.width = static_cast<uint32_t>(scale);
  params.edges_per_vertex = 6;
  params.num_labels = 2;
  params.extra_labels = 1;
  params.multi_label_p = 0.3;
  params.seed = 71;
  return LayeredGraph(params);
}

// E11a: BFS preprocessing (unit costs implicitly) as the reference.
void BM_Cheapest_BfsReference(benchmark::State& state) {
  Instance inst = WeightedInstance(state.range(0));
  Nfa query = StaircaseNfa(1, 2);
  for (auto _ : state) {
    Annotation ann = Annotate(inst.db, query, inst.source, inst.target);
    benchmark::DoNotOptimize(ann.lambda);
  }
  state.counters["edges"] = static_cast<double>(inst.db.num_edges());
}
BENCHMARK(BM_Cheapest_BfsReference)->RangeMultiplier(2)->Range(16, 256);

// E11b: Dijkstra preprocessing on the same product graph.
void BM_Cheapest_DijkstraAnnotate(benchmark::State& state) {
  Instance inst = WeightedInstance(state.range(0));
  Nfa query = StaircaseNfa(1, 2);
  std::vector<uint64_t> costs = RandomCosts(inst.db, 1, 16, 73);
  for (auto _ : state) {
    CheapestAnnotation ann =
        AnnotateCheapest(inst.db, query, costs, inst.source, inst.target);
    benchmark::DoNotOptimize(ann.best_cost);
  }
  state.counters["edges"] = static_cast<double>(inst.db.num_edges());
}
BENCHMARK(BM_Cheapest_DijkstraAnnotate)->RangeMultiplier(2)->Range(16, 256);

// E11c: cheapest-walk enumeration end to end.
void BM_Cheapest_Enumerate(benchmark::State& state) {
  Instance inst = WeightedInstance(64);
  Nfa query = StaircaseNfa(1, 2);
  std::vector<uint64_t> costs =
      RandomCosts(inst.db, 1, static_cast<uint64_t>(state.range(0)), 79);
  CheapestAnnotation ann =
      AnnotateCheapest(inst.db, query, costs, inst.source, inst.target);
  CheapestIndex index(inst.db, ann);
  bench::DelayProfile profile;
  for (auto _ : state) {
    CheapestEnumerator en(inst.db, ann, index, costs, inst.source,
                          inst.target);
    profile = bench::MeasureDelays(&en);
  }
  bench::ReportDelays(state, profile);
  state.counters["best_cost"] = static_cast<double>(ann.best_cost);
}
BENCHMARK(BM_Cheapest_Enumerate)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// E11d: multiplicity counting on/off (bubble chains have huge counts).
template <bool kCount>
void RunCounting(benchmark::State& state) {
  Instance inst = BubbleChain(static_cast<uint32_t>(state.range(0)), 2);
  Nfa query = StaircaseNfa(2, 2);
  Annotation ann = Annotate(inst.db, query, inst.source, inst.target);
  ResumableIndex index(inst.db, ann);
  EnumeratorOptions opts;
  opts.count_multiplicities = kCount;
  bench::DelayProfile profile;
  uint64_t total_multiplicity = 0;
  for (auto _ : state) {
    ResumableEnumerator en(inst.db, ann, index, inst.source, inst.target,
                           opts);
    total_multiplicity = 0;
    while (en.Valid()) {
      total_multiplicity += en.multiplicity();
      benchmark::DoNotOptimize(en.walk().edges.data());
      en.Next();
    }
    ++profile.outputs;
  }
  state.counters["total_multiplicity"] =
      static_cast<double>(total_multiplicity);
}

void BM_Multiplicity_Off(benchmark::State& state) { RunCounting<false>(state); }
BENCHMARK(BM_Multiplicity_Off)->DenseRange(6, 12, 2)
    ->Unit(benchmark::kMillisecond);

void BM_Multiplicity_On(benchmark::State& state) { RunCounting<true>(state); }
BENCHMARK(BM_Multiplicity_On)->DenseRange(6, 12, 2)
    ->Unit(benchmark::kMillisecond);

// E11e: one-source-many-targets vs per-target annotations. Arg: number
// of targets sampled from a layered graph.
void BM_MultiTarget_Shared(benchmark::State& state) {
  Instance inst = WeightedInstance(32);
  Nfa query = StaircaseNfa(1, 2);
  uint32_t k = static_cast<uint32_t>(state.range(0));
  uint64_t answers = 0;
  for (auto _ : state) {
    MultiTargetQuery multi(inst.db, query, inst.source);
    answers = 0;
    for (uint32_t i = 0; i < k; ++i) {
      VertexId t = 1 + i * 7 % (static_cast<uint32_t>(
                                    inst.db.num_vertices()) -
                                1);
      for (auto en = multi.Enumerate(t); en.Valid() && answers < 100000;
           en.Next()) {
        ++answers;
      }
    }
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_MultiTarget_Shared)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_MultiTarget_Independent(benchmark::State& state) {
  Instance inst = WeightedInstance(32);
  Nfa query = StaircaseNfa(1, 2);
  uint32_t k = static_cast<uint32_t>(state.range(0));
  uint64_t answers = 0;
  for (auto _ : state) {
    answers = 0;
    for (uint32_t i = 0; i < k; ++i) {
      VertexId t = 1 + i * 7 % (static_cast<uint32_t>(
                                    inst.db.num_vertices()) -
                                1);
      Annotation ann = Annotate(inst.db, query, inst.source, t);
      ResumableIndex index(inst.db, ann);
      for (ResumableEnumerator en(inst.db, ann, index, inst.source, t);
           en.Valid() && answers < 100000; en.Next()) {
        ++answers;
      }
    }
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_MultiTarget_Independent)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// E12 (Section 6 perspectives): delta-compressed output. Consecutive
// answers share suffixes; emitting only the changed prefix makes the
// amortized output size much smaller than lambda. The counter
// mean_delta_edges against lambda quantifies the saving.
void BM_DeltaOutput_AmortizedSize(benchmark::State& state) {
  Instance inst = BubbleChain(static_cast<uint32_t>(state.range(0)), 2);
  Nfa query = StaircaseNfa(1, 2);
  Annotation ann = Annotate(inst.db, query, inst.source, inst.target);
  ResumableIndex index(inst.db, ann);
  uint64_t total_delta = 0;
  uint64_t outputs = 0;
  for (auto _ : state) {
    total_delta = 0;
    outputs = 0;
    for (ResumableEnumerator en(inst.db, ann, index, inst.source,
                                inst.target);
         en.Valid(); en.Next()) {
      total_delta += en.delta_length();
      ++outputs;
    }
  }
  state.counters["lambda"] = static_cast<double>(ann.lambda);
  state.counters["outputs"] = static_cast<double>(outputs);
  state.counters["mean_delta_edges"] =
      outputs == 0 ? 0.0
                   : static_cast<double>(total_delta) /
                         static_cast<double>(outputs);
}
BENCHMARK(BM_DeltaOutput_AmortizedSize)->DenseRange(8, 16, 4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dsw
