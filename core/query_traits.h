// Execution-tier classification: the prepare-time pass that records
// which kernels a query's plan runs on. Two tiers:
//
//  - kSingleWord: |Q| <= 64, so every state set is one uint64_t and the
//    pipeline runs on the collapsed SingleWordKernel loops
//    (util/word_kernel.h) — same algorithms, same answers, no per-set
//    word loop.
//  - kGeneral: the multi-word path, unchanged semantics.
//
// The tier never changes WHAT is computed, only how fast: both tiers
// produce bit-identical annotations, B-lists and enumeration order
// (tests/exec_tier_test.cc). The kernels dispatch on words-per-set
// themselves; the engine records the tier on the cached plan and counts
// per-tier prepares (EngineStats).

#ifndef DSW_CORE_QUERY_TRAITS_H_
#define DSW_CORE_QUERY_TRAITS_H_

#include <cstdint>

#include "core/database.h"
#include "core/nfa.h"

namespace dsw {

// The values index per-tier tables (perfbench counts builds in a
// three-slot array by value, slot 0 unused), so they are fixed.
enum class ExecTier : uint8_t {
  kSingleWord = 1,  // |Q| <= 64: one-uint64_t kernels
  kGeneral = 2,     // multi-word loops
};

inline const char* ExecTierName(ExecTier tier) {
  switch (tier) {
    case ExecTier::kSingleWord:
      return "single_word";
    case ExecTier::kGeneral:
      return "general";
  }
  return "?";
}

struct QueryTraits {
  ExecTier tier = ExecTier::kGeneral;
  bool single_word = false;  // 0 < |Q| <= 64
};

/// The classification pass proper: O(1) over the query. The snapshot
/// does not enter the verdict; the parameter keeps the prepare-time
/// call shape.
inline QueryTraits ClassifyQuery(const Snapshot& /*snap*/, const Nfa& query) {
  QueryTraits traits;
  traits.single_word = query.num_states() > 0 && query.num_states() <= 64;
  traits.tier =
      traits.single_word ? ExecTier::kSingleWord : ExecTier::kGeneral;
  return traits;
}

}  // namespace dsw

#endif  // DSW_CORE_QUERY_TRAITS_H_
