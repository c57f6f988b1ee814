// E3 + E4 + E5 (Theorem 2): delay O(lambda x |A|), independent of |D|.
//
// E3:  a fixed bubble-chain core (2^12 answers) embedded in a noise
//      graph of growing size — max and mean delay must stay flat as |D|
//      grows.
// E3b: the adversarial dead-candidate family (DeadFanout/ForkChainNfa):
//      a fork vertex whose d fanout edges are all candidates but dead
//      for one prefix's reachable-run set. The certificate (B-list)
//      enumerator stays flat in d; the pre-certificate trial-filter
//      baseline is measured alongside and degrades linearly — the
//      before/after of the honest Theorem 2 bound.
// E4:  star-of-chains with depth sweep — delay grows linearly in lambda.
// E5:  fixed data, staircase query width sweep — delay grows linearly in
//      |Delta|.
// E3g: n x n grids with the exact-length any-word DFA, a one-word query
//      on the single-word kernels — the per-answer delay, per-Next and
//      batched over a whole drain.
//
// The certificate enumerator is the served ResumableEnumerator, run as
// a full scan. Enumerator construction (which performs the search for
// the first answer) is reported as setup_ns, separate from the
// per-output delays; ops_per_output_* report the timer-free op-count
// proxy (OpStats::total: queue cells + delta-row ORs + certificate
// probes for the served enumerator, delta-row ORs for the baseline)
// the delay tests assert on.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "baseline/trial_filter_enumerator.h"
#include "bench_util.h"
#include "core/annotate.h"
#include "core/resumable_index.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

template <typename Enumerator>
void RunDelayBench(benchmark::State& state, Instance& inst,
                   const Nfa& query) {
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ResumableIndex plan(snap, ann);
  // The trial-filter baseline reads the trimmed structure directly.
  const auto& index = [&]() -> const auto& {
    if constexpr (std::is_same_v<Enumerator, TrialFilterEnumerator>)
      return plan.trimmed();
    else
      return plan;
  }();
  bench::DelayProfile profile;
  for (auto _ : state) {
    profile = bench::MeasureConstructionAndDelays<Enumerator>(
        /*max_outputs=*/200000, ann, index, inst.source, inst.target);
  }
  bench::ReportDelays(state, profile);

  // One untimed drain for the op-count proxy: max and mean per-output
  // work (OpStats::total), the quantity Theorem 2 bounds by
  // O(lambda x |A|). The final (invalidating) Next is included — the
  // end-of-enumeration scan is a delay like any other.
  Enumerator en(ann, index, inst.source, inst.target);
  uint64_t outputs = 0;
  const uint64_t setup_ops = en.stats().total();  // the first FindNext
  uint64_t last = setup_ops;
  uint64_t max_ops = 0;
  while (en.Valid()) {
    ++outputs;
    en.Next();
    uint64_t now = en.stats().total();
    max_ops = std::max(max_ops, now - last);
    last = now;
  }
  state.counters["ops_per_output_max"] = static_cast<double>(max_ops);
  state.counters["ops_per_output_mean"] =
      outputs == 0
          ? 0.0
          : static_cast<double>(en.stats().total() - setup_ops) /
                static_cast<double>(outputs);
  state.counters["setup_ops"] = static_cast<double>(setup_ops);
  state.counters["lambda"] = static_cast<double>(ann.lambda);
  state.counters["db_size"] = static_cast<double>(inst.db.size());
  state.counters["transitions"] =
      static_cast<double>(query.num_transitions());
}

// E3: delay must not depend on |D|. Arg: noise edges (x1000).
void BM_Delay_VsDbSize(benchmark::State& state) {
  Instance core = BubbleChain(12, 2);
  uint32_t noise_edges = static_cast<uint32_t>(state.range(0)) * 1000;
  Instance inst = EmbedInNoise(core, noise_edges / 4 + 1, noise_edges, 41);
  Nfa query = StaircaseNfa(1, 2);
  RunDelayBench<ResumableEnumerator>(state, inst, query);
}
BENCHMARK(BM_Delay_VsDbSize)->RangeMultiplier(4)->Range(1, 256)
    ->Unit(benchmark::kMillisecond);

// E3b: delay must not depend on the dead-candidate fanout. Arg: the
// fanout d of the fork vertex (answers = d + 1, lambda = 18).
constexpr uint32_t kForkTail = 16;

void BM_Delay_AdversarialFanout(benchmark::State& state) {
  Instance inst = DeadFanout(static_cast<uint32_t>(state.range(0)),
                             kForkTail);
  Nfa query = ForkChainNfa(kForkTail);
  RunDelayBench<ResumableEnumerator>(state, inst, query);
}
BENCHMARK(BM_Delay_AdversarialFanout)->RangeMultiplier(4)->Range(4, 4096)
    ->Unit(benchmark::kMicrosecond);

// E3b baseline: the pre-certificate trial-filter enumerator on the same
// family — same answers, same order, but the dead candidates are
// scanned, so max delay grows linearly in d.
void BM_Delay_AdversarialFanoutTrialRef(benchmark::State& state) {
  Instance inst = DeadFanout(static_cast<uint32_t>(state.range(0)),
                             kForkTail);
  Nfa query = ForkChainNfa(kForkTail);
  RunDelayBench<TrialFilterEnumerator>(state, inst, query);
}
BENCHMARK(BM_Delay_AdversarialFanoutTrialRef)
    ->RangeMultiplier(4)->Range(4, 4096)->Unit(benchmark::kMicrosecond);

// E4: delay linear in lambda. Arg: chain depth = lambda.
void BM_Delay_VsLambda(benchmark::State& state) {
  Instance inst = StarOfChains(64, static_cast<uint32_t>(state.range(0)), 2);
  Nfa query = StaircaseNfa(1, 2);
  RunDelayBench<ResumableEnumerator>(state, inst, query);
}
BENCHMARK(BM_Delay_VsLambda)->RangeMultiplier(2)->Range(4, 256)
    ->Unit(benchmark::kMillisecond);

// E5: delay linear in |A|. Arg: number of states of a complete automaton
// (every state reaches every state on every label), which maximizes the
// certificate sets and the B-list sizes — the quantities behind the
// O(lambda x |A|) delay bound.
void BM_Delay_VsAutomatonSize(benchmark::State& state) {
  Instance inst = BubbleChain(10, 2);
  Nfa query = CompleteNfa(static_cast<uint32_t>(state.range(0)), 2);
  RunDelayBench<ResumableEnumerator>(state, inst, query);
}
BENCHMARK(BM_Delay_VsAutomatonSize)->RangeMultiplier(2)->Range(2, 32)
    ->Unit(benchmark::kMillisecond);

// E3g: annotate + trim + a drain of an n x n grid under AnyKDfa(2(n-1),
// 1), whose answers are the grid's corner-to-corner shortest walks
// (lambda = 2(n-1), |Q| = 2n-1: one word up to n = 32). Arg: n. Besides
// the per-Next profile, batch_mean_delay_ns times whole drains, free of
// the per-sample clock floor.
void BM_Delay_GridSingleWord(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Instance inst = Grid(n, n);
  Snapshot snap = inst.db.Freeze();
  Nfa dfa = AnyKDfa(2 * (n - 1), 1);
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
  state.counters["batch_mean_delay_ns"] = bench::BatchedMeanDelayNs([&] {
    return ResumableEnumerator(ann, index, inst.source, inst.target);
  });
}
BENCHMARK(BM_Delay_GridSingleWord)->DenseRange(6, 14, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dsw
