// E8 (Theorem 18 / Section 4.2): the memoryless variant.
//
// NextOutput recomputes the position of the previous answer with a guided
// run. With the plain trimmed queues this costs an extra factor d (the
// in-degree: queues must be advanced linearly); ResumableIndex's O(1)
// SeekGe removes it. The star-of-chains family pins lambda and the
// answer count while sweeping the in-degree d of the target, so the
// linear-reseek cost surfaces directly.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/annotate.h"
#include "core/resumable_index.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

constexpr uint32_t kDepth = 32;

// Plain DFS enumeration (Next, no reseek) as the reference point.
void BM_Memoryless_StatefulReference(benchmark::State& state) {
  Instance inst =
      StarOfChains(static_cast<uint32_t>(state.range(0)), kDepth, 2);
  Nfa query = StaircaseNfa(1, 2);
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ResumableIndex index(snap, ann);
  bench::DelayProfile profile;
  for (auto _ : state) {
    // Construction (= the first FindNext) is reported as setup_ns, not
    // folded into the first delay.
    profile = bench::MeasureConstructionAndDelays<ResumableEnumerator>(
        /*max_outputs=*/200000, ann, index, inst.source, inst.target);
  }
  bench::ReportDelays(state, profile);
  state.counters["in_degree"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Memoryless_StatefulReference)
    ->RangeMultiplier(4)->Range(4, 1024)->Unit(benchmark::kMillisecond);

// Memoryless chain: every answer recomputed from the previous one via
// SeekAfter (guided run + next output). Theorem 18: the per-output cost
// stays O(lambda x |A|) — flat in the in-degree.
void BM_Memoryless_SeekAfterChain(benchmark::State& state) {
  Instance inst =
      StarOfChains(static_cast<uint32_t>(state.range(0)), kDepth, 2);
  Nfa query = StaircaseNfa(1, 2);
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ResumableIndex index(snap, ann);
  // One enumerator instance is reused across NextOutput steps: the
  // memoryless model keeps the preprocessed structure (queues + cursors)
  // fixed and recomputes positions from the previous output alone.
  ResumableEnumerator en(ann, index, inst.source, inst.target);
  if (!en.Valid()) {
    state.SkipWithError("no answers");
    return;
  }
  const Walk first = en.walk();
  uint64_t outputs = 0;
  for (auto _ : state) {
    Walk prev = first;
    outputs = 1;
    while (en.SeekAfter(prev) && en.Valid()) {
      prev = en.walk();
      ++outputs;
    }
  }
  state.counters["outputs"] = static_cast<double>(outputs);
  state.counters["in_degree"] = static_cast<double>(state.range(0));
  state.counters["ns_per_output"] = benchmark::Counter(
      static_cast<double>(outputs),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_Memoryless_SeekAfterChain)
    ->RangeMultiplier(4)->Range(4, 1024)->Unit(benchmark::kMillisecond);

// The d-factor strawman: reposition by restarting the queues and
// advancing linearly to the previous edge (what Trim without resumability
// forces, cost O(d x lambda) per output).
void BM_Memoryless_LinearReseek(benchmark::State& state) {
  Instance inst =
      StarOfChains(static_cast<uint32_t>(state.range(0)), kDepth, 2);
  Nfa query = StaircaseNfa(1, 2);
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, query, inst.source, inst.target);
  ResumableIndex index(snap, ann);
  ResumableEnumerator en(ann, index, inst.source, inst.target);
  if (!en.Valid()) {
    state.SkipWithError("no answers");
    return;
  }
  const Walk first = en.walk();
  const LabelIndex& adj = snap.label_index();
  uint64_t outputs = 0;
  uint64_t scanned = 0;
  for (auto _ : state) {
    Walk prev = first;
    outputs = 1;
    scanned = 0;  // per-chain count, identical every iteration
    while (true) {
      // Simulate the linear reposition cost along prev's path: for each
      // level, walk the queue from its start to the previous edge. An
      // edge sits in the queue of its *source* vertex at level i (the
      // level-i choice point), so that is the queue to re-advance.
      for (size_t i = prev.edges.size(); i-- > 0;) {
        EdgeId e = prev.edges[i];
        VertexId u = inst.db.src(e);
        uint32_t ti = adj.PositionOf(e);
        const uint32_t level = static_cast<uint32_t>(i);
        auto queue = index.trimmed().CandidatesAt(
            level, index.trimmed().UsefulLevel(level).FindIndex(u));
        uint32_t cur = 0;
        while (cur < queue.size() && adj.PositionOf(queue[cur].edge) < ti) {
          ++cur;
          ++scanned;
        }
        benchmark::DoNotOptimize(cur);
      }
      if (!en.SeekAfter(prev) || !en.Valid()) break;
      prev = en.walk();
      ++outputs;
    }
  }
  state.counters["outputs"] = static_cast<double>(outputs);
  state.counters["in_degree"] = static_cast<double>(state.range(0));
  // Cells scanned over one full SeekAfter chain; divided by outputs
  // this is ~(d - 1) / 2 — the linear factor the O(1) seek removes.
  state.counters["queue_cells_scanned"] = static_cast<double>(scanned);
  state.counters["cells_per_output"] =
      static_cast<double>(scanned) / static_cast<double>(outputs);
}
BENCHMARK(BM_Memoryless_LinearReseek)
    ->RangeMultiplier(4)->Range(4, 1024)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dsw
