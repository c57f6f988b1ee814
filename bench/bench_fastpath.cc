// E14: the execution-tier layer's kernels.
//
// SingleWord vs MultiWord: the same annotate + trim + enumeration work
// with the collapsed one-uint64_t kernels vs the generic multi-word
// loops forced onto the same one-word query's whole plan
// (AnnotateOptions::force_multi_word) — the kernel win of the
// single-word tier in isolation, identical output bits on both arms.
// Grids with the any-word DFA are the instances.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "bench_util.h"
#include "core/annotate.h"
#include "core/resumable_index.h"
#include "core/trimmed_index.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

// lambda on an n x n grid is 2(n-1); the DFA has 2n - 1 states, so the
// default arm runs the single-word tier (|Q| <= 64 up to n = 32).
Nfa GridDfa(int64_t n) {
  return AnyKDfa(2 * (static_cast<uint32_t>(n) - 1), 1);
}

// Mean delay over one whole drain, a single clock pair, best of three
// drains. The per-Next stopwatch in MeasureDelays puts a ~30-40ns
// clock-read floor under every sample, which compresses the ratio
// between the arms. Best-of-3 is the standard noise-robust timing
// estimator (a scheduler hiccup inflates a drain, never deflates it);
// max_delay still comes from the per-Next profile (a max cannot be
// batched). \p make constructs a fresh enumerator per drain.
template <typename MakeEnumerator>
double BatchedMeanDelayNs(MakeEnumerator make) {
  constexpr uint64_t kMaxOutputs = 200000;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    auto en = make();
    uint64_t outputs = 0;
    Stopwatch total;
    while (en.Valid() && outputs < kMaxOutputs) {
      benchmark::DoNotOptimize(en.walk().edges.data());
      ++outputs;
      en.Next();
    }
    int64_t ns = total.ElapsedNs();
    if (outputs > 0)
      best = std::min(best, static_cast<double>(ns) /
                                static_cast<double>(outputs));
  }
  return std::isfinite(best) ? best : 0.0;
}

void BM_FastPath_GeneralAlgorithm(benchmark::State& state) {
  Instance inst = Grid(static_cast<uint32_t>(state.range(0)),
                       static_cast<uint32_t>(state.range(0)));
  Snapshot snap = inst.db.Freeze();
  Nfa dfa = GridDfa(state.range(0));
  bench::DelayProfile profile;
  for (auto _ : state) {
    Annotation ann = Annotate(snap, dfa, inst.source, inst.target);
    ResumableIndex index(snap, ann);
    ResumableEnumerator en(ann, index, inst.source, inst.target);
    profile = bench::MeasureDelays(&en);
  }
  bench::ReportDelays(state, profile);
  Annotation ann = Annotate(snap, dfa, inst.source, inst.target);
  ResumableIndex index(snap, ann);
  state.counters["batch_mean_delay_ns"] = BatchedMeanDelayNs([&] {
    return ResumableEnumerator(ann, index, inst.source, inst.target);
  });
}
BENCHMARK(BM_FastPath_GeneralAlgorithm)->DenseRange(6, 14, 2)
    ->Unit(benchmark::kMillisecond);

// The general *tier's* kernel configuration on the same instance:
// multi-word loops throughout annotate, trim and enumeration — what any
// query with > 64 states runs.
void BM_FastPath_GeneralTierKernels(benchmark::State& state) {
  Instance inst = Grid(static_cast<uint32_t>(state.range(0)),
                       static_cast<uint32_t>(state.range(0)));
  Snapshot snap = inst.db.Freeze();
  Nfa dfa = GridDfa(state.range(0));
  AnnotateOptions force;
  force.force_multi_word = true;
  bench::DelayProfile profile;
  for (auto _ : state) {
    Annotation ann = Annotate(snap, dfa, inst.source, inst.target, force);
    ResumableIndex index(snap, ann);
    ResumableEnumerator en(ann, index, inst.source, inst.target);
    profile = bench::MeasureDelays(&en);
  }
  bench::ReportDelays(state, profile);
  Annotation ann = Annotate(snap, dfa, inst.source, inst.target, force);
  ResumableIndex index(snap, ann);
  state.counters["batch_mean_delay_ns"] = BatchedMeanDelayNs([&] {
    return ResumableEnumerator(ann, index, inst.source, inst.target);
  });
}
BENCHMARK(BM_FastPath_GeneralTierKernels)->DenseRange(6, 14, 2)
    ->Unit(benchmark::kMillisecond);

// The single-word kernel win on preprocessing, in isolation: same
// one-word query, same snapshot, same output bits — only the kernel
// instantiation differs (force_multi_word runs the generic loops).
void AnnotateTrimArm(benchmark::State& state, bool force_multi_word) {
  Instance inst = Grid(static_cast<uint32_t>(state.range(0)),
                       static_cast<uint32_t>(state.range(0)));
  Snapshot snap = inst.db.Freeze();
  Nfa dfa = GridDfa(state.range(0));
  AnnotateOptions opts;
  opts.force_multi_word = force_multi_word;
  for (auto _ : state) {
    Annotation ann = Annotate(snap, dfa, inst.source, inst.target, opts);
    TrimmedIndex index(snap, ann);
    benchmark::DoNotOptimize(index.num_slots());
  }
}

void BM_FastPath_AnnotateTrimSingleWord(benchmark::State& state) {
  AnnotateTrimArm(state, /*force_multi_word=*/false);
}
BENCHMARK(BM_FastPath_AnnotateTrimSingleWord)->DenseRange(6, 14, 4)
    ->Unit(benchmark::kMillisecond);

void BM_FastPath_AnnotateTrimMultiWord(benchmark::State& state) {
  AnnotateTrimArm(state, /*force_multi_word=*/true);
}
BENCHMARK(BM_FastPath_AnnotateTrimMultiWord)->DenseRange(6, 14, 4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dsw
