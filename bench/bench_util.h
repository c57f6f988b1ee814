// Shared helpers for the benchmark harness: delay measurement and
// common counters. Delay is the wall-clock gap between two consecutive
// outputs of an enumerator (the quantity bounded by Theorem 2), measured
// with the steady clock around Next().

#ifndef DSW_BENCH_BENCH_UTIL_H_
#define DSW_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "util/stopwatch.h"

namespace dsw::bench {

/// \brief Delay distribution of one enumeration run. setup_ns is the
/// enumerator-construction time (which performs the search for the
/// *first* answer, i.e. the first FindNext) and is reported separately:
/// folding it into the first measured delay would inflate max_delay_ns
/// and mask the E3 flatness the delay benches exist to show.
struct DelayProfile {
  uint64_t outputs = 0;
  int64_t max_delay_ns = 0;
  int64_t total_ns = 0;
  int64_t setup_ns = 0;

  double mean_delay_ns() const {
    return outputs == 0 ? 0.0
                        : static_cast<double>(total_ns) /
                              static_cast<double>(outputs);
  }
};

/// \brief Drains \p en (already positioned on its first answer), timing
/// each Next() gap, up to \p max_outputs answers (answer sets can be
/// exponential; delays are i.i.d. across the run, so a bounded sample is
/// representative). The gap before the first answer counts as
/// preprocessing, not delay. total_ns accumulates the measured Next()
/// gaps themselves, so mean_delay_ns is the mean of the same quantity
/// max_delay_ns is the max of — walk access and loop overhead stay out
/// of both.
template <typename Enumerator>
DelayProfile MeasureDelays(Enumerator* en, uint64_t max_outputs = 200000) {
  DelayProfile profile;
  while (en->Valid() && profile.outputs < max_outputs) {
    benchmark::DoNotOptimize(en->walk().edges.data());
    ++profile.outputs;
    Stopwatch gap;
    en->Next();
    int64_t ns = gap.ElapsedNs();
    profile.max_delay_ns = std::max(profile.max_delay_ns, ns);
    profile.total_ns += ns;
  }
  return profile;
}

/// \brief Constructs an Enumerator (timing the construction into
/// profile->setup_ns) and drains it through MeasureDelays, honoring
/// \p max_outputs. The setup/delay split keeps the first FindNext —
/// whose cost scales with preprocessing, not with the per-output bound
/// — out of the delay columns. max_outputs is a leading (not trailing)
/// parameter so it can never be swallowed by the constructor-argument
/// pack — a trailing default here would silently forward into the
/// Enumerator constructor instead of bounding the drain.
template <typename Enumerator, typename... Args>
DelayProfile MeasureConstructionAndDelays(uint64_t max_outputs,
                                          Args&&... args) {
  Stopwatch setup;
  Enumerator en(std::forward<Args>(args)...);
  int64_t setup_ns = setup.ElapsedNs();
  DelayProfile profile = MeasureDelays(&en, max_outputs);
  profile.setup_ns = setup_ns;
  return profile;
}

/// \brief Mean delay over one whole drain, a single clock pair, best of
/// three drains. The per-Next stopwatch in MeasureDelays puts a
/// ~30-40ns clock-read floor under every sample, more than a one-word
/// answer costs. Best-of-3 is the standard noise-robust timing estimator
/// (a scheduler hiccup inflates a drain, never deflates it). \p make
/// constructs a fresh enumerator per drain.
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

/// \brief Publishes a delay profile as benchmark counters.
inline void ReportDelays(benchmark::State& state,
                         const DelayProfile& profile) {
  state.counters["outputs"] = static_cast<double>(profile.outputs);
  state.counters["max_delay_ns"] =
      static_cast<double>(profile.max_delay_ns);
  state.counters["mean_delay_ns"] = profile.mean_delay_ns();
  state.counters["setup_ns"] = static_cast<double>(profile.setup_ns);
}

}  // namespace dsw::bench

#endif  // DSW_BENCH_BENCH_UTIL_H_
