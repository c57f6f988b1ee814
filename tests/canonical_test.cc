// The canonicalization layer under the plan cache, pinned from three
// sides:
//
//  1. Soundness: every pair the canonicalizer merges really is
//     language-equal — checked against two independent oracles, exact
//     word enumeration (Nfa::Accepts over every word up to length 4)
//     and the full annotate/trim/enumerate pipeline on graph instances
//     (the frontend-equivalence harness).
//  2. Collision: equivalent-by-the-identities patterns produce equal
//     canonical prints AND byte-identical canonical automaton
//     serializations through CompileRegex — the exact property the
//     PlanCache key relies on. Randomized: equivalence-preserving AST
//     mutations (shuffle/duplicate alternands, re-nest concatenations,
//     stack repetition operators) never change the canonical bytes.
//  3. Separation: inequivalent patterns keep distinct canonical bytes,
//     and each separation witness is certified by a distinguishing word
//     — the cache never needed to merge them, and provably must not.
//
// Plus the per-query front-end heuristic (automaton/frontend.h): small
// atom counts compile through Thompson, the E9 m >= 32 family through
// Glushkov, and the choice is deterministic (repeat compiles are
// byte-identical — a nondeterministic front-end would split the cache).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "automaton/canonical_hash.h"
#include "automaton/frontend.h"
#include "core/annotate.h"
#include "core/resumable_index.h"
#include "regex/canonical.h"
#include "regex/regex_parser.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace dsw {
namespace {

std::unique_ptr<RegexNode> Clone(const RegexNode& node) {
  auto out = std::make_unique<RegexNode>();
  out->kind = node.kind;
  out->label = node.label;
  for (const auto& c : node.children) out->children.push_back(Clone(*c));
  return out;
}

std::unique_ptr<RegexNode> MustParse(const std::string& pattern) {
  RegexParseResult r = ParseRegex(pattern);
  EXPECT_TRUE(r.ok()) << pattern << ": " << r.error();
  return r.ok() ? Clone(*r.value()) : nullptr;
}

// ------------------------------------------------------------- oracles

// Exact language comparison over every word of length <= max_len drawn
// from label ids [0, num_labels). 3^0 + ... + 3^4 = 121 words at the
// defaults — cheap, and decisive for the small automata under test.
bool SameLanguage(const Nfa& a, const Nfa& b, uint32_t num_labels = 3,
                  uint32_t max_len = 4, std::vector<uint32_t>* witness = nullptr) {
  std::vector<std::vector<uint32_t>> frontier = {{}};
  for (uint32_t len = 0; len <= max_len; ++len) {
    std::vector<std::vector<uint32_t>> next;
    for (const auto& word : frontier) {
      if (a.Accepts(word) != b.Accepts(word)) {
        if (witness != nullptr) *witness = word;
        return false;
      }
      if (len == max_len) continue;
      for (uint32_t l = 0; l < num_labels; ++l) {
        next.push_back(word);
        next.back().push_back(l);
      }
    }
    frontier = std::move(next);
  }
  return true;
}

struct PipelineResult {
  int32_t lambda = -1;
  std::set<std::vector<uint32_t>> walks;
};

PipelineResult RunPipeline(Instance& inst, const Nfa& nfa) {
  PipelineResult res;
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, nfa, inst.source, inst.target);
  res.lambda = ann.lambda;
  ResumableIndex index(snap, ann);
  for (ResumableEnumerator en(ann, index, inst.source, inst.target);
       en.Valid(); en.Next())
    res.walks.insert(en.walk().edges);
  return res;
}

// Compiles both patterns through the shared front-end and asserts the
// cache-key property end to end: equal canonical prints, byte-identical
// canonical automaton serializations, equal hashes — and soundness via
// the word oracle.
void ExpectCollide(const std::string& pa, const std::string& pb) {
  SCOPED_TRACE(pa + "  vs  " + pb);
  std::unique_ptr<RegexNode> a = MustParse(pa);
  std::unique_ptr<RegexNode> b = MustParse(pb);
  ASSERT_TRUE(a != nullptr && b != nullptr);
  EXPECT_EQ(CanonicalPattern(*CanonicalizeRegex(*a)),
            CanonicalPattern(*CanonicalizeRegex(*b)));

  LabelDictionary dict;
  CompiledRegex ca = CompileRegex(*a, &dict);
  CompiledRegex cb = CompileRegex(*b, &dict);
  EXPECT_EQ(ca.frontend, cb.frontend);
  CanonicalAutomaton sa = CanonicalizeAutomaton(ca.nfa);
  CanonicalAutomaton sb = CanonicalizeAutomaton(cb.nfa);
  EXPECT_EQ(sa.bytes, sb.bytes);
  EXPECT_EQ(sa.hash, sb.hash);

  std::vector<uint32_t> witness;
  EXPECT_TRUE(SameLanguage(ca.nfa, cb.nfa, 3, 4, &witness))
      << "collided but languages differ on a word of length "
      << witness.size();
}

// Asserts the patterns stay apart in the cache AND genuinely denote
// different languages (so keeping them apart is required, not a missed
// optimization we silently depend on).
void ExpectSeparate(const std::string& pa, const std::string& pb) {
  SCOPED_TRACE(pa + "  vs  " + pb);
  std::unique_ptr<RegexNode> a = MustParse(pa);
  std::unique_ptr<RegexNode> b = MustParse(pb);
  ASSERT_TRUE(a != nullptr && b != nullptr);
  EXPECT_NE(CanonicalPattern(*CanonicalizeRegex(*a)),
            CanonicalPattern(*CanonicalizeRegex(*b)));

  LabelDictionary dict;
  CompiledRegex ca = CompileRegex(*a, &dict);
  CompiledRegex cb = CompileRegex(*b, &dict);
  EXPECT_NE(CanonicalizeAutomaton(ca.nfa).bytes,
            CanonicalizeAutomaton(cb.nfa).bytes);
  EXPECT_FALSE(SameLanguage(ca.nfa, cb.nfa))
      << "separated but no word up to length 4 distinguishes them";
}

// ------------------------------------------------- hand-written tables

TEST(CanonicalTest, EquivalentPairsCollide) {
  // Commutativity + idempotence of |.
  ExpectCollide("l0|l1", "l1|l0");
  ExpectCollide("l0|l1|l0|l1", "l1|l0");
  ExpectCollide("(l0|l1)|l2", "l2|(l1|l0)");
  // Associativity of concatenation (and redundant grouping).
  ExpectCollide("l0 (l1 l2)", "(l0 l1) l2");
  ExpectCollide("((l0)) ((l1 l2))", "l0 l1 l2");
  // Repetition-stack collapse: same operator twice...
  ExpectCollide("(l0*)*", "l0*");
  ExpectCollide("(l0+)+", "l0+");
  ExpectCollide("(l0?)?", "l0?");
  // ...and every mixed pair is star.
  ExpectCollide("(l0+)?", "l0*");
  ExpectCollide("(l0?)+", "l0*");
  ExpectCollide("(l0*)?", "l0*");
  ExpectCollide("(l0*)+", "l0*");
  ExpectCollide("(l0?)*", "l0*");
  ExpectCollide("(l0+)*", "l0*");
  // Identities compose through the tree.
  ExpectCollide("((l1|l0) (l2 l0))+", "((l0|l1) l2 l0)+");
  ExpectCollide("(((l0 l1)+)?)|l2", "l2|(l0 l1)*");
}

TEST(CanonicalTest, InequivalentPairsSeparate) {
  ExpectSeparate("l0 l1", "l1 l0");      // concat does not commute
  ExpectSeparate("l0*", "l0+");          // distinct operators are distinct
  ExpectSeparate("l0*", "l0?");
  ExpectSeparate("l0+", "l0?");
  ExpectSeparate("l0", "l0 l0");
  ExpectSeparate("l0|l1", "l0");
  ExpectSeparate("l0 l1*", "(l0 l1)*");  // repetition scope matters
  ExpectSeparate("(l0|l1)*", "l0* l1*"); // deliberately not chased
}

TEST(CanonicalTest, CanonicalPatternRoundTrips) {
  // The canonical print reparses to a tree whose canonical print is
  // itself — the fixed-point property that makes the print usable as a
  // sort/dedup key.
  for (const char* pattern :
       {"l0", "l1|l0|l2", "l0 (l1|l2)+ l0?", "((l0+)?|l1) (l2 l0)*",
        "(l0|l1)* l1 (l0|l1)?", "(l0* l1*)*"}) {
    SCOPED_TRACE(pattern);
    std::unique_ptr<RegexNode> ast = MustParse(pattern);
    ASSERT_NE(ast, nullptr);
    std::string canon = CanonicalPattern(*CanonicalizeRegex(*ast));
    std::unique_ptr<RegexNode> reparsed = MustParse(canon);
    ASSERT_NE(reparsed, nullptr);
    EXPECT_EQ(CanonicalPattern(*CanonicalizeRegex(*reparsed)), canon);
  }
}

// ------------------------------------------- randomized property tests

std::unique_ptr<RegexNode> MakeAtom(uint32_t label) {
  auto node = std::make_unique<RegexNode>();
  node->kind = RegexNode::Kind::kAtom;
  node->label = "l";
  node->label += std::to_string(label);
  return node;
}

std::unique_ptr<RegexNode> MakeNode(
    RegexNode::Kind kind, std::vector<std::unique_ptr<RegexNode>> children) {
  auto node = std::make_unique<RegexNode>();
  node->kind = kind;
  node->children = std::move(children);
  return node;
}

std::unique_ptr<RegexNode> RandomAst(std::mt19937& rng, int depth) {
  if (depth == 0 || rng() % 4 == 0) return MakeAtom(rng() % 3);
  switch (rng() % 3) {
    case 0:
    case 1: {  // concat or alternation of 2-3 subtrees
      RegexNode::Kind kind = rng() % 2 == 0 ? RegexNode::Kind::kConcat
                                            : RegexNode::Kind::kAlternation;
      std::vector<std::unique_ptr<RegexNode>> children;
      uint32_t n = 2 + rng() % 2;
      for (uint32_t i = 0; i < n; ++i)
        children.push_back(RandomAst(rng, depth - 1));
      return MakeNode(kind, std::move(children));
    }
    default: {
      RegexNode::Kind kinds[] = {RegexNode::Kind::kStar,
                                 RegexNode::Kind::kPlus,
                                 RegexNode::Kind::kOptional};
      std::vector<std::unique_ptr<RegexNode>> child;
      child.push_back(RandomAst(rng, depth - 1));
      return MakeNode(kinds[rng() % 3], std::move(child));
    }
  }
}

std::unique_ptr<RegexNode> Wrap1(RegexNode::Kind kind,
                                 std::unique_ptr<RegexNode> child) {
  std::vector<std::unique_ptr<RegexNode>> c;
  c.push_back(std::move(child));
  return MakeNode(kind, std::move(c));
}

// An equivalence-preserving rewrite of the tree, one identity per node
// drawn at random: exactly the transformations the canonicalizer claims
// to undo.
std::unique_ptr<RegexNode> Mutate(const RegexNode& node, std::mt19937& rng) {
  switch (node.kind) {
    case RegexNode::Kind::kAtom:
      return Clone(node);
    case RegexNode::Kind::kConcat: {
      std::vector<std::unique_ptr<RegexNode>> parts;
      for (const auto& c : node.children) parts.push_back(Mutate(*c, rng));
      // Associativity: re-nest a prefix into an inner concatenation.
      if (parts.size() >= 2 && rng() % 2 == 0) {
        std::vector<std::unique_ptr<RegexNode>> head;
        head.push_back(std::move(parts[0]));
        head.push_back(std::move(parts[1]));
        std::vector<std::unique_ptr<RegexNode>> rebuilt;
        rebuilt.push_back(MakeNode(RegexNode::Kind::kConcat, std::move(head)));
        for (size_t i = 2; i < parts.size(); ++i)
          rebuilt.push_back(std::move(parts[i]));
        if (rebuilt.size() == 1) return std::move(rebuilt.front());
        return MakeNode(RegexNode::Kind::kConcat, std::move(rebuilt));
      }
      return MakeNode(RegexNode::Kind::kConcat, std::move(parts));
    }
    case RegexNode::Kind::kAlternation: {
      std::vector<std::unique_ptr<RegexNode>> branches;
      for (const auto& c : node.children)
        branches.push_back(Mutate(*c, rng));
      // Idempotence: duplicate a branch...
      if (rng() % 2 == 0)
        branches.push_back(Clone(*branches[rng() % branches.size()]));
      // ...and commutativity: rotate the order.
      std::rotate(branches.begin(),
                  branches.begin() + rng() % branches.size(), branches.end());
      return MakeNode(RegexNode::Kind::kAlternation, std::move(branches));
    }
    case RegexNode::Kind::kStar:
      // Every mixed stack is star; same-operator stacks keep it.
      switch (rng() % 4) {
        case 0: return Wrap1(RegexNode::Kind::kStar,
                             Wrap1(RegexNode::Kind::kStar,
                                   Mutate(*node.children.front(), rng)));
        case 1: return Wrap1(RegexNode::Kind::kOptional,
                             Wrap1(RegexNode::Kind::kPlus,
                                   Mutate(*node.children.front(), rng)));
        case 2: return Wrap1(RegexNode::Kind::kPlus,
                             Wrap1(RegexNode::Kind::kOptional,
                                   Mutate(*node.children.front(), rng)));
        default: return Wrap1(RegexNode::Kind::kStar,
                              Mutate(*node.children.front(), rng));
      }
    case RegexNode::Kind::kPlus:
      if (rng() % 2 == 0)
        return Wrap1(RegexNode::Kind::kPlus,
                     Wrap1(RegexNode::Kind::kPlus,
                           Mutate(*node.children.front(), rng)));
      return Wrap1(RegexNode::Kind::kPlus,
                   Mutate(*node.children.front(), rng));
    case RegexNode::Kind::kOptional:
      if (rng() % 2 == 0)
        return Wrap1(RegexNode::Kind::kOptional,
                     Wrap1(RegexNode::Kind::kOptional,
                           Mutate(*node.children.front(), rng)));
      return Wrap1(RegexNode::Kind::kOptional,
                   Mutate(*node.children.front(), rng));
  }
  return nullptr;  // unreachable
}

TEST(CanonicalTest, RandomEquivalentMutationsCollide) {
  std::mt19937 rng(20240807);
  for (int round = 0; round < 200; ++round) {
    std::unique_ptr<RegexNode> ast = RandomAst(rng, 3);
    std::unique_ptr<RegexNode> mutated = Mutate(*ast, rng);
    SCOPED_TRACE("round " + std::to_string(round) + ": " +
                 CanonicalPattern(*ast) + "  ~~  " +
                 CanonicalPattern(*mutated));

    EXPECT_EQ(CanonicalPattern(*CanonicalizeRegex(*ast)),
              CanonicalPattern(*CanonicalizeRegex(*mutated)));

    LabelDictionary dict;
    CompiledRegex ca = CompileRegex(*ast, &dict);
    CompiledRegex cb = CompileRegex(*mutated, &dict);
    EXPECT_EQ(CanonicalizeAutomaton(ca.nfa).bytes,
              CanonicalizeAutomaton(cb.nfa).bytes);

    // Soundness oracle: the mutation and the canonicalization both
    // preserved the language (shorter words here: 200 rounds).
    std::vector<uint32_t> witness;
    EXPECT_TRUE(SameLanguage(ca.nfa, cb.nfa, 3, 3, &witness))
        << "witness length " << witness.size();
  }
}

TEST(CanonicalTest, PipelineAgreesOnMergedPatterns) {
  // The end-to-end cross-check the ISSUE names: patterns the cache
  // merges drive the full annotate/trim/enumerate pipeline to the same
  // lambda and the same distinct-shortest-walk set on real instances.
  const std::pair<std::string, std::string> pairs[] = {
      {"(l0|l1)* l1 (l1|l0)?", "(l1|l0)* l1 (l0|l1)?"},
      {"((l0+)?|l1) (l0 l1)", "(l1|l0*) l0 l1"},
      {"(l0 (l1 l1))+", "((l0 l1) l1)+"},
      {"((l0|l1)?)*", "(l1|l0)*"},
  };
  Instance insts[] = {BubbleChain(5, 2), Grid(3, 3),
                      EmbedInNoise(BubbleChain(4, 2), 30, 120, 7)};
  for (Instance& inst : insts) {
    LabelDictionary* dict = inst.db.mutable_dict();
    for (const auto& [pa, pb] : pairs) {
      SCOPED_TRACE(pa + "  vs  " + pb);
      std::unique_ptr<RegexNode> a = MustParse(pa);
      std::unique_ptr<RegexNode> b = MustParse(pb);
      ASSERT_TRUE(a != nullptr && b != nullptr);
      CompiledRegex ca = CompileRegex(*a, dict);
      CompiledRegex cb = CompileRegex(*b, dict);
      ASSERT_EQ(CanonicalizeAutomaton(ca.nfa).bytes,
                CanonicalizeAutomaton(cb.nfa).bytes);
      PipelineResult ra = RunPipeline(inst, ca.nfa);
      PipelineResult rb = RunPipeline(inst, cb.nfa);
      EXPECT_EQ(ra.lambda, rb.lambda);
      EXPECT_EQ(ra.walks, rb.walks);
    }
  }
}

// ------------------------------------------------- front-end heuristic

TEST(CanonicalTest, FrontendHeuristicPicksBySize) {
  LabelDictionary dict;
  // Small atom count: Glushkov saves no words, Thompson's O(|R|) build
  // wins the tie.
  std::unique_ptr<RegexNode> small = MustParse("(l0|l1)* l1");
  EXPECT_EQ(CompileRegex(*small, &dict).frontend, Frontend::kThompson);

  // The E9 family at m = 40: Glushkov's 2m + 2 position states pack
  // into strictly fewer words than Thompson's epsilon machine.
  std::unique_ptr<RegexNode> big = MustParse(ContainsL0Regex(40));
  CompiledRegex cg = CompileRegex(*big, &dict);
  EXPECT_EQ(cg.frontend, Frontend::kGlushkov);
  EXPECT_EQ(cg.nfa.num_states(), cg.canonical->NumAtoms() + 1);
  EXPECT_EQ(cg.nfa.num_epsilon_transitions(), 0u);

  // Determinism: recompiling yields byte-identical automata — a
  // wobbling front-end would split the plan cache.
  for (const RegexNode* ast : {small.get(), big.get()}) {
    CompiledRegex first = CompileRegex(*ast, &dict);
    CompiledRegex second = CompileRegex(*ast, &dict);
    EXPECT_EQ(first.frontend, second.frontend);
    EXPECT_EQ(CanonicalizeAutomaton(first.nfa).bytes,
              CanonicalizeAutomaton(second.nfa).bytes);
  }
}

TEST(CanonicalTest, AutomatonSerializationIgnoresInsertionOrder) {
  // Two NFAs with the same states/transitions added in different orders
  // serialize identically; a genuinely different NFA does not.
  Nfa a;
  for (int i = 0; i < 3; ++i) a.AddState();
  a.AddInitial(0);
  a.AddFinal(2);
  a.AddTransition(0, 0, 1);
  a.AddTransition(1, 1, 2);
  a.AddEpsilonTransition(0, 2);

  Nfa b;
  for (int i = 0; i < 3; ++i) b.AddState();
  b.AddTransition(1, 1, 2);
  b.AddEpsilonTransition(0, 2);
  b.AddTransition(0, 0, 1);
  b.AddFinal(2);
  b.AddInitial(0);

  CanonicalAutomaton sa = CanonicalizeAutomaton(a);
  CanonicalAutomaton sb = CanonicalizeAutomaton(b);
  EXPECT_EQ(sa.bytes, sb.bytes);
  EXPECT_EQ(sa.hash, sb.hash);

  Nfa c;
  for (int i = 0; i < 3; ++i) c.AddState();
  c.AddInitial(0);
  c.AddFinal(2);
  c.AddTransition(0, 0, 1);
  c.AddTransition(1, 0, 2);  // label differs
  c.AddEpsilonTransition(0, 2);
  EXPECT_NE(CanonicalizeAutomaton(c).bytes, sa.bytes);
}

}  // namespace
}  // namespace dsw
