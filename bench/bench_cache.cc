// E12: the cross-query plan cache under a Zipfian query mix.
//
// Arms:
//  - BM_Cache_PrepareCold / BM_Cache_PrepareWarm: one Prepare of the
//    hot query, cache disabled (byte budget 0 and each handle released,
//    so the entry dies with it and every call pays the full annotate +
//    trim build) vs cache enabled and warmed (pure key lookup +
//    handle). CI gates warm being >10x faster than cold. The cold arm
//    also reports its plan's plan_bytes (PreparedQuery::ApproxBytes)
//    and annotated_entries (the annotation's (level, vertex) entries).
//  - BM_Cache_ZipfPrepareMix/warm:{0,1}: a stream of PrepareRegex
//    calls over textually-varied spellings of a small shape set with
//    Zipf(1.0) popularity, each followed by one pumped batch, closing
//    the session and releasing the handle — the "millions of users, a
//    handful of query shapes" serving loop.
//    Headlines: answers_per_sec, p50/p99 Prepare-call latency, and the
//    cache hit rate (hit_rate counter; 0 in the cold arm by
//    construction, textual variants collide via canonicalization in
//    the warm arm).
//
// cpu_time is process-wide where the worker pool participates, so the
// regression baseline stays comparable across host core counts;
// wall-clock throughput is reported in explicit counters.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/annotate.h"
#include "core/database.h"
#include "core/nfa.h"
#include "engine/engine.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

// Zipf(s) over ranks 0..n-1 via inverse-CDF lookup.
class Zipf {
 public:
  Zipf(size_t n, double s, uint64_t seed) : rng_(seed) {
    cdf_.reserve(n);
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }

  size_t operator()() {
    double u = dist_(rng_);
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

  uint64_t raw() { return rng_(); }

 private:
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> dist_{0.0, 1.0};
  std::vector<double> cdf_;
};

// Query shapes ranked by popularity; each shape has several textual
// spellings that canonicalize to one automaton — the cache must merge
// them, so the warm arm's hit rate measures canonicalization working,
// not string-identical repeats.
const std::vector<std::vector<std::string>>& ShapeVariants() {
  static const std::vector<std::vector<std::string>> shapes = {
      {"(l0|l1)* l1 (l0|l1)?", "(l1|l0)* l1 ((l0|l1)?)?",
       "((l1|l0)*)* l1 (l1|l0)?"},
      {"l0 l0 (l0|l1)*", "(l0 l0) ((l1|l0)*)?", "l0 (l0 ((l0|l1)+)?)"},
      {"(l0 l0|l1 l1)+", "((l1 l1)|(l0 l0))+"},
      {"(l0|l1) (l0|l1)", "(l1|l0) (l0|l1)"},
      {"(l0 l1)+ l0?", "((l0 l1))+ ((l0?)?)"},
      {"l1* l0 l1*", "(l1*)* l0 (l1+)?"},
  };
  return shapes;
}

struct Workload {
  Instance inst;
  Snapshot snap;

  Workload() : inst(EmbedInNoise(BubbleChain(8, 2), 150, 600, 33)) {
    snap = inst.db.Freeze();
  }
};

Workload& SharedWorkload() {
  static Workload w;
  return w;
}

Nfa HotQuery() { return StaircaseNfa(2, 2); }

// ------------------------------------------------ warm vs cold Prepare

void BM_Cache_PrepareCold(benchmark::State& state) {
  Workload& w = SharedWorkload();
  EngineOptions opts;
  opts.num_threads = 1;
  opts.plan_cache_bytes = 0;  // every Prepare builds from scratch
  QueryEngine engine(opts);
  engine.InstallSnapshot(w.snap);
  Nfa query = HotQuery();
  for (auto _ : state) {
    QueryId q = engine.Prepare(query, w.inst.source, w.inst.target);
    benchmark::DoNotOptimize(q);
    engine.ReleaseQuery(q);  // the entry dies with its last handle
  }
  state.counters["misses"] =
      static_cast<double>(engine.Stats().plan_cache.misses);
  // The plan each iteration built: its budgeted bytes and its annotated
  // (level, vertex) entries, for bytes per entry across commits.
  const QueryId q = engine.Prepare(query, w.inst.source, w.inst.target);
  const std::shared_ptr<const PreparedQuery> plan = engine.Plan(q);
  size_t entries = 0;
  for (const LevelSets& level : plan->ann.levels) entries += level.size();
  state.counters["plan_bytes"] = static_cast<double>(plan->ApproxBytes());
  state.counters["annotated_entries"] = static_cast<double>(entries);
  engine.ReleaseQuery(q);
}
BENCHMARK(BM_Cache_PrepareCold)->Unit(benchmark::kMicrosecond);

void BM_Cache_PrepareWarm(benchmark::State& state) {
  Workload& w = SharedWorkload();
  EngineOptions opts;
  opts.num_threads = 1;
  QueryEngine engine(opts);
  engine.InstallSnapshot(w.snap);
  Nfa query = HotQuery();
  engine.Prepare(query, w.inst.source, w.inst.target);  // the one build
  for (auto _ : state) {
    QueryId q = engine.Prepare(query, w.inst.source, w.inst.target);
    benchmark::DoNotOptimize(q);
  }
  EngineStats stats = engine.Stats();
  state.counters["hits"] = static_cast<double>(stats.plan_cache.hits);
  // The acceptance invariant, visible in the JSON: exactly one build
  // ever ran, no matter how many iterations the leveling chose.
  state.counters["misses"] = static_cast<double>(stats.plan_cache.misses);
}
BENCHMARK(BM_Cache_PrepareWarm)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------- the Zipf mix

void BM_Cache_ZipfPrepareMix(benchmark::State& state) {
  Workload& w = SharedWorkload();
  const bool warm = state.range(0) != 0;
  EngineOptions opts;
  opts.num_threads = 2;
  if (!warm) opts.plan_cache_bytes = 0;
  QueryEngine engine(opts);
  engine.InstallSnapshot(w.snap);
  LabelDictionary* dict = w.inst.db.mutable_dict();
  const auto& shapes = ShapeVariants();

  Zipf zipf(shapes.size(), 1.0, 42);
  std::vector<int64_t> prepare_ns;
  uint64_t answers = 0;
  constexpr int kDrawsPerIter = 32;
  constexpr uint32_t kBatch = 64;

  auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (int d = 0; d < kDrawsPerIter; ++d) {
      size_t shape = zipf();
      const auto& variants = shapes[shape];
      const std::string& pattern = variants[zipf.raw() % variants.size()];
      auto p0 = std::chrono::steady_clock::now();
      PrepareRegexResult r = engine.PrepareRegex(pattern, dict,
                                                 w.inst.source,
                                                 w.inst.target);
      prepare_ns.push_back(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - p0)
              .count());
      if (!r.ok) continue;
      SessionId session = engine.OpenSession(r.id);
      answers += engine.Pump(session, kBatch).walks.size();
      engine.CloseSession(session);
      engine.ReleaseQuery(r.id);  // at budget 0 the entry dies here
    }
  }
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

  EngineStats stats = engine.Stats();
  uint64_t lookups = stats.plan_cache.hits + stats.plan_cache.misses;
  state.counters["answers_per_sec"] =
      secs > 0 ? static_cast<double>(answers) / secs : 0;
  state.counters["hit_rate"] =
      lookups > 0
          ? static_cast<double>(stats.plan_cache.hits) / lookups
          : 0;
  std::sort(prepare_ns.begin(), prepare_ns.end());
  if (!prepare_ns.empty()) {
    state.counters["p50_prepare_ns"] =
        static_cast<double>(prepare_ns[prepare_ns.size() / 2]);
    state.counters["p99_prepare_ns"] = static_cast<double>(
        prepare_ns[std::min(prepare_ns.size() - 1,
                            prepare_ns.size() * 99 / 100)]);
  }
  // Execution-tier mix of the prepared plans (cache hits included) —
  // how much of this workload rides each kernel path.
  state.counters["tier_single_word"] =
      static_cast<double>(stats.tier_single_word);
  state.counters["tier_general"] = static_cast<double>(stats.tier_general);
}
BENCHMARK(BM_Cache_ZipfPrepareMix)
    ->ArgName("warm")->Arg(0)->Arg(1)
    ->UseRealTime()->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dsw
