// Query automata and regex families used by the experiments. Label ids
// are 0..L-1 and match the interning order of the generators ("l0",
// "l1", ...).

#ifndef DSW_WORKLOAD_QUERIES_H_
#define DSW_WORKLOAD_QUERIES_H_

#include <cassert>
#include <cstdint>
#include <string>

#include "core/nfa.h"

namespace dsw {

/// "Staircase" NFA with width + 1 states: every state loops on all L
/// labels and nondeterministically advances to the next on all L labels;
/// the last state is final. Accepts every word of length >= width and
/// gives a word of length n about C(n, width) accepting runs — the
/// duplicate factory of E7. |Delta| = L * (2 * width + 1), so sweeping
/// width at L = 2 grows |Delta| as ~4 * width (E2).
inline Nfa StaircaseNfa(uint32_t width, uint32_t num_labels) {
  Nfa nfa(width + 1);
  nfa.AddInitial(0);
  nfa.AddFinal(width);
  for (uint32_t q = 0; q <= width; ++q)
    for (uint32_t l = 0; l < num_labels; ++l) {
      nfa.AddTransition(q, l, q);
      if (q < width) nfa.AddTransition(q, l, q + 1);
    }
  return nfa;
}

/// DFA accepting exactly the words of length k (over L labels): a simple
/// chain, deterministic, one run per word. The [11, 17] "simple setting"
/// query for the fast-path experiments.
inline Nfa AnyKDfa(uint32_t k, uint32_t num_labels) {
  Nfa dfa(k + 1);
  dfa.AddInitial(0);
  dfa.AddFinal(k);
  for (uint32_t q = 0; q < k; ++q)
    for (uint32_t l = 0; l < num_labels; ++l) dfa.AddTransition(q, l, q + 1);
  return dfa;
}

/// Complete NFA: every state reaches every state on every label
/// (|Delta| = n^2 * L). State 0 is initial, state n - 1 final; accepts
/// every nonempty word when n >= 2. Maximizes per-step state sets and
/// run counts — the |A| stressor of E2b/E5.
inline Nfa CompleteNfa(uint32_t num_states, uint32_t num_labels) {
  Nfa nfa(num_states);
  nfa.AddInitial(0);
  nfa.AddFinal(num_states - 1);
  for (uint32_t from = 0; from < num_states; ++from)
    for (uint32_t to = 0; to < num_states; ++to)
      for (uint32_t l = 0; l < num_labels; ++l)
        nfa.AddTransition(from, l, to);
  return nfa;
}

/// The query half of the DeadFanout stressor (workload/generators.h):
/// accepts exactly l0 l0 l0^tail and l1 l1 l0^tail. The two branches
/// (states 1 and 2) keep both prefix edges of the data annotated at the
/// fork, but each fanout edge survives for only one branch's state —
/// the dead-candidate setup of the Theorem 2 delay experiments (E3b).
/// lambda = tail + 2; |Q| = tail + 4.
inline Nfa ForkChainNfa(uint32_t tail) {
  Nfa nfa(tail + 4);
  nfa.AddInitial(0);
  nfa.AddTransition(0, 0u, 1);  // l0 branch
  nfa.AddTransition(0, 1u, 2);  // l1 branch
  nfa.AddTransition(1, 0u, 3);  // must continue with l0
  nfa.AddTransition(2, 1u, 3);  // must continue with l1
  for (uint32_t p = 0; p < tail; ++p)
    nfa.AddTransition(3 + p, 0u, 4 + p);
  nfa.AddFinal(tail + 3);
  return nfa;
}

/// Where SpreadStates puts state \p q: 64 x (q mod words) + q / words.
inline uint32_t SpreadState(uint32_t q, uint32_t words) {
  return 64 * (q % words) + q / words;
}

/// \p nfa renumbered into a (64 x words)-state automaton: state q
/// becomes SpreadState(q, words), with the same initial, final, labeled
/// and epsilon structure; the other states are isolated. Consecutive
/// states land in different words, so a one-word query spread over two
/// or more words runs the multi-word kernels on the same problem — the
/// cross-kernel oracle of tests/exec_tier_test.cc. Requires
/// |Q| <= 64 x words.
inline Nfa SpreadStates(const Nfa& nfa, uint32_t words) {
  assert(nfa.num_states() <= 64 * words);
  Nfa out(64 * words);
  for (uint32_t q = 0; q < nfa.num_states(); ++q) {
    const uint32_t at = SpreadState(q, words);
    if (nfa.initial().Test(q)) out.AddInitial(at);
    if (nfa.IsFinal(q)) out.AddFinal(at);
    for (const auto& [label, to] : nfa.Transitions(q))
      out.AddTransition(at, label, SpreadState(to, words));
    for (uint32_t to : nfa.EpsilonSuccessors(q))
      out.AddEpsilonTransition(at, SpreadState(to, words));
  }
  return out;
}

/// The E9 regex family (l0|...|l_{m-1})* l0 (l0|...|l_{m-1})*: words
/// over {l0..l_{m-1}} containing at least one l0. |R| = 2m + 1 atoms;
/// Thompson compiles it to O(m) transitions, Glushkov to O(m^2) — the
/// crossover family of Corollary 20. Shared by bench_regex and the
/// front-end equivalence tests so both always measure the same family.
inline std::string ContainsL0Regex(uint32_t m) {
  std::string any = "(";
  for (uint32_t i = 0; i < m; ++i) {
    if (i > 0) any += "|";
    any += "l";
    any += std::to_string(i);
  }
  any += ")*";
  return any + " l0 " + any;
}

}  // namespace dsw

#endif  // DSW_WORKLOAD_QUERIES_H_
