// Nondeterministic finite automaton over the database's label alphabet,
// with optional epsilon-transitions. Queries (RPQs) reach the engine in
// this compiled form; the regex front-end produces either an epsilon-NFA
// (Thompson, automaton/thompson.h) or an epsilon-free NFA (Glushkov,
// automaton/glushkov.h) targeting this same type. Section 5.1 of the
// paper shows epsilon handling is free for the pipeline: Annotate
// saturates state sets with epsilon-closures, so downstream stages never
// see epsilon at all.

#ifndef DSW_CORE_NFA_H_
#define DSW_CORE_NFA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "util/state_set.h"

namespace dsw {

// Dense automaton-state id; documentary, like VertexId/EdgeId.
using StateId = uint32_t;

class Nfa {
 public:
  // (label, target) pairs; per-state fan-out is small, linear scans are
  // faster than a map here.
  using TransitionList = std::vector<std::pair<uint32_t, uint32_t>>;

  explicit Nfa(uint32_t num_states = 0)
      : trans_(num_states),
        eps_(num_states),
        initial_(num_states),
        final_(num_states) {}

  uint32_t AddState() {
    trans_.emplace_back();
    eps_.emplace_back();
    initial_.Resize(num_states() + 1);
    final_.Resize(num_states() + 1);
    return static_cast<uint32_t>(trans_.size() - 1);
  }

  void AddInitial(uint32_t q) { initial_.Set(q); }
  void AddFinal(uint32_t q) { final_.Set(q); }

  void AddTransition(uint32_t from, uint32_t label, uint32_t to) {
    trans_[from].emplace_back(label, to);
    ++num_transitions_;
  }

  void AddEpsilonTransition(uint32_t from, uint32_t to) {
    eps_[from].push_back(to);
    ++num_epsilon_transitions_;
  }

  uint32_t num_states() const { return static_cast<uint32_t>(trans_.size()); }
  size_t num_transitions() const { return num_transitions_; }
  size_t num_epsilon_transitions() const { return num_epsilon_transitions_; }
  bool has_epsilon() const { return num_epsilon_transitions_ > 0; }

  const StateSet& initial() const { return initial_; }
  const StateSet& final_states() const { return final_; }
  bool IsFinal(uint32_t q) const { return final_.Test(q); }

  const TransitionList& Transitions(uint32_t q) const { return trans_[q]; }
  const std::vector<uint32_t>& EpsilonSuccessors(uint32_t q) const {
    return eps_[q];
  }

  /// Per-state epsilon-closures (each includes the state itself). Safe on
  /// epsilon-cycles; O(|Q| x (|Q| + |eps|)) — |Q| is small.
  std::vector<StateSet> EpsilonClosures() const {
    std::vector<StateSet> closure(num_states());
    std::vector<uint32_t> stack;
    for (uint32_t q = 0; q < num_states(); ++q) {
      closure[q].Resize(num_states());
      closure[q].Set(q);
      stack.assign(1, q);
      while (!stack.empty()) {
        uint32_t u = stack.back();
        stack.pop_back();
        for (uint32_t r : eps_[u]) {
          if (closure[q].Test(r)) continue;
          closure[q].Set(r);
          stack.push_back(r);
        }
      }
    }
    return closure;
  }

  /// Subset-construction membership test; used by tests and baselines,
  /// not by the enumeration pipeline.
  bool Accepts(const std::vector<uint32_t>& word) const {
    if (num_states() == 0) return false;
    std::vector<StateSet> closures;
    if (has_epsilon()) closures = EpsilonClosures();
    auto close = [&](StateSet* s) {
      if (closures.empty()) return;
      StateSet closed(num_states());
      s->ForEach([&](uint32_t q) { closed |= closures[q]; });
      *s = std::move(closed);
    };
    StateSet cur = initial_;
    close(&cur);
    for (uint32_t label : word) {
      StateSet next(num_states());
      cur.ForEach([&](uint32_t q) {
        for (const auto& [l, to] : trans_[q])
          if (l == label) next.Set(to);
      });
      close(&next);
      cur = std::move(next);
      if (cur.None()) return false;
    }
    return cur.Intersects(final_);
  }

 private:
  std::vector<TransitionList> trans_;
  std::vector<std::vector<uint32_t>> eps_;  // state -> epsilon successors
  StateSet initial_;
  StateSet final_;
  size_t num_transitions_ = 0;
  size_t num_epsilon_transitions_ = 0;
};

/// Precompiled transition relation: for every (label, state) the set of
/// states reachable by one *effective* step label . eps* — the
/// after-side epsilon-closure is composed in at build time, so epsilon
/// never surfaces downstream. (The before-side closure is deliberately
/// not composed: annotation levels are closure-saturated, so every
/// epsilon-mate is scanned in its own right; see core/annotate.h.)
///
/// Successor sets live in one contiguous word pool, indexed
/// [label][state]: the annotate/trim hot paths move a whole frontier set
/// across a label as a word-parallel OR of delta rows instead of
/// scanning TransitionLists per edge. Size is O(num_labels x |Q|^2 / 64)
/// words — built once per Annotate call, amortized over the product BFS.
class CompiledDelta {
 public:
  CompiledDelta() = default;

  explicit CompiledDelta(const Nfa& nfa)
      : CompiledDelta(nfa, nfa.has_epsilon() ? nfa.EpsilonClosures()
                                             : std::vector<StateSet>()) {}

  /// As above with the epsilon-closures precomputed — callers that also
  /// use the closures (Annotate saturates level 0 with them) compute
  /// them once and share. \p closures must be nfa.EpsilonClosures() or
  /// empty for an epsilon-free query.
  CompiledDelta(const Nfa& nfa, const std::vector<StateSet>& closures)
      : num_states_(nfa.num_states()),
        words_per_set_(static_cast<uint32_t>((nfa.num_states() + 63) / 64)) {
    for (uint32_t q = 0; q < num_states_; ++q)
      for (const auto& [label, to] : nfa.Transitions(q)) {
        (void)to;
        if (label + 1 > num_labels_) num_labels_ = label + 1;
      }
    words_.assign(static_cast<size_t>(num_labels_) * num_states_ *
                      words_per_set_,
                  0);
    rev_words_.assign(words_.size(), 0);
    label_used_.assign(num_labels_, 0);
    sources_.assign(static_cast<size_t>(num_labels_) * words_per_set_, 0);

    for (uint32_t q = 0; q < num_states_; ++q)
      for (const auto& [label, to] : nfa.Transitions(q)) {
        label_used_[label] = 1;
        sources_[static_cast<size_t>(label) * words_per_set_ + (q >> 6)] |=
            uint64_t{1} << (q & 63);
        uint64_t* row = MutableRow(words_, label, q);
        const uint64_t q_bit = uint64_t{1} << (q & 63);
        if (closures.empty()) {
          row[to >> 6] |= uint64_t{1} << (to & 63);
          MutableRow(rev_words_, label, to)[q >> 6] |= q_bit;
        } else {
          const uint64_t* cw = closures[to].words();
          for (uint32_t w = 0; w < words_per_set_; ++w) row[w] |= cw[w];
          closures[to].ForEach([&](uint32_t t) {
            MutableRow(rev_words_, label, t)[q >> 6] |= q_bit;
          });
        }
      }
  }

  uint32_t num_states() const { return num_states_; }
  uint32_t num_labels() const { return num_labels_; }
  uint32_t words_per_set() const { return words_per_set_; }

  /// True iff the automaton has any transition on \p label; lets the
  /// product BFS skip whole (vertex, label) edge groups.
  bool HasLabel(uint32_t label) const {
    return label < num_labels_ && label_used_[label] != 0;
  }

  /// Raw words of delta[label][q]; exactly words_per_set() words.
  /// Precondition: HasLabel(label) (rows of unused in-range labels are
  /// valid and empty, out-of-range labels are not addressable).
  const uint64_t* SuccessorWords(uint32_t label, uint32_t q) const {
    return &words_[(static_cast<size_t>(label) * num_states_ + q) *
                   words_per_set_];
  }

  StateSetView Successors(uint32_t label, uint32_t q) const {
    return {SuccessorWords(label, q), num_states_};
  }

  /// Raw words of the reverse relation: the states q with
  /// t in delta[label][q], i.e. q -label.eps*-> t. The trimmed index's
  /// backward sweep ORs these rows over a useful set to get "states with
  /// a surviving move" in one word-parallel pass.
  const uint64_t* ReverseWords(uint32_t label, uint32_t t) const {
    return &rev_words_[(static_cast<size_t>(label) * num_states_ + t) *
                       words_per_set_];
  }

  StateSetView Predecessors(uint32_t label, uint32_t t) const {
    return {ReverseWords(label, t), num_states_};
  }

  /// States with at least one transition on \p label — intersect a
  /// frontier with this before walking delta rows to skip dead states.
  StateSetView Sources(uint32_t label) const {
    return {&sources_[static_cast<size_t>(label) * words_per_set_],
            num_states_};
  }

  /// Heap footprint estimate, for the plan cache's byte budget.
  size_t ApproxBytes() const {
    return (words_.capacity() + rev_words_.capacity() +
            sources_.capacity()) *
               sizeof(uint64_t) +
           label_used_.capacity();
  }

 private:
  uint64_t* MutableRow(std::vector<uint64_t>& pool, uint32_t label,
                       uint32_t q) {
    return &pool[(static_cast<size_t>(label) * num_states_ + q) *
                 words_per_set_];
  }

  uint32_t num_states_ = 0;
  uint32_t num_labels_ = 0;
  uint32_t words_per_set_ = 0;
  std::vector<uint64_t> words_;      // [label][state] -> successor set
  std::vector<uint64_t> rev_words_;  // [label][state] -> predecessor set
  std::vector<uint64_t> sources_;    // [label] -> states with a transition
  std::vector<uint8_t> label_used_;
};

}  // namespace dsw

#endif  // DSW_CORE_NFA_H_
