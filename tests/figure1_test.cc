// Tier-1 gate: the full pipeline on the worked example. Checks the
// answer set exactly, output order, label-consistency against the query,
// the trimming of the dead-end vertex, and — via the regex front-end —
// that compiling the example's query from its RPQ string (through both
// Thompson and Glushkov) reproduces the same answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "automaton/glushkov.h"
#include "automaton/thompson.h"
#include "core/annotate.h"
#include "core/resumable_index.h"
#include "regex/regex_parser.h"
#include "workload/figure1.h"

namespace dsw {
namespace {

std::vector<Walk> Drain(ResumableEnumerator* en) {
  std::vector<Walk> out;
  for (; en->Valid(); en->Next()) out.push_back(en->walk());
  return out;
}

class Figure1Test : public ::testing::Test {
 protected:
  // Declaration order is initialization order: the snapshot is frozen
  // before anything downstream of it is built.
  Figure1Test()
      : fig_(MakeFigure1()),
        snap_(fig_.db.Freeze()),
        ann_(Annotate(snap_, fig_.query, fig_.alix, fig_.bob)),
        index_(snap_, ann_) {}

  Figure1 fig_;
  Snapshot snap_;
  Annotation ann_;
  ResumableIndex index_;
};

TEST_F(Figure1Test, LambdaIsTwo) {
  ASSERT_TRUE(ann_.reachable());
  EXPECT_EQ(ann_.lambda, Figure1::kLambda);
}

TEST_F(Figure1Test, EnumeratesExactlyTheFourAnswers) {
  ResumableEnumerator en(ann_, index_, fig_.alix, fig_.bob);
  std::vector<Walk> walks = Drain(&en);
  ASSERT_EQ(walks.size(), Figure1::kNumAnswers);

  std::set<std::vector<uint32_t>> got;
  for (const Walk& w : walks) got.insert(w.edges);
  EXPECT_EQ(got.size(), walks.size()) << "duplicate walk emitted";

  // Edge ids in MakeFigure1 insertion order:
  // 0: alix-a->mid1  1: alix-b->mid1  2: mid1-a->bob  3: mid1-b->bob
  // 4: alix-a->mid2  5: mid2-b->bob   6: alix-b->carl 7: carl-b->mid2
  std::set<std::vector<uint32_t>> expected = {
      {0, 3}, {1, 2}, {1, 3}, {4, 5}};
  EXPECT_EQ(got, expected);
}

TEST_F(Figure1Test, AnswersInNonDecreasingLengthOrder) {
  ResumableEnumerator en(ann_, index_, fig_.alix, fig_.bob);
  size_t prev = 0;
  for (const Walk& w : Drain(&en)) {
    EXPECT_GE(w.length(), prev);
    EXPECT_EQ(w.length(), static_cast<size_t>(ann_.lambda));
    prev = w.length();
  }
}

TEST_F(Figure1Test, EveryAnswerIsLabelConsistentWithTheQuery) {
  ResumableEnumerator en(ann_, index_, fig_.alix, fig_.bob);
  for (const Walk& w : Drain(&en)) {
    EXPECT_TRUE(fig_.query.Accepts(w.LabelWord(fig_.db)));
    std::vector<uint32_t> path = w.VertexPath(fig_.db, fig_.alix);
    EXPECT_EQ(path.front(), fig_.alix);
    EXPECT_EQ(path.back(), fig_.bob);
    for (size_t i = 0; i + 1 < path.size(); ++i)
      EXPECT_EQ(fig_.db.edge(w.edges[i]).src, path[i]);
  }
}

TEST_F(Figure1Test, TrimmingRemovesTheDeadEndVertex) {
  // carl is reachable in the product at level 1 but on no shortest
  // answer, so no level may keep it.
  for (uint32_t level = 0; level <= Figure1::kLambda; ++level)
    EXPECT_FALSE(index_.trimmed().UsefulLevel(level).Find(fig_.carl))
        << "level " << level;
  EXPECT_GT(index_.trimmed().num_slots(), 0u);
}

TEST_F(Figure1Test, RegexFrontEndReproducesTheAnswerSet) {
  // The paper states the example query as the regex (a|b)* b (a|b)*;
  // driving the pipeline from that string must match the hand-built NFA
  // exactly, for both compilation routes. Thompson exercises the
  // epsilon-aware pipeline, Glushkov the epsilon-free one.
  RegexParseResult ast = ParseRegex("(a|b)* b (a|b)*");
  ASSERT_TRUE(ast.ok()) << ast.error();
  std::set<std::vector<uint32_t>> expected = {{0, 3}, {1, 2}, {1, 3}, {4, 5}};

  for (bool use_thompson : {true, false}) {
    SCOPED_TRACE(use_thompson ? "thompson" : "glushkov");
    Nfa nfa = use_thompson
                  ? ThompsonNfa(*ast.value(), fig_.db.mutable_dict())
                  : GlushkovNfa(*ast.value(), fig_.db.mutable_dict());
    EXPECT_EQ(nfa.has_epsilon(), use_thompson);
    Annotation ann = Annotate(snap_, nfa, fig_.alix, fig_.bob);
    ASSERT_TRUE(ann.reachable());
    EXPECT_EQ(ann.lambda, Figure1::kLambda);
    ResumableIndex index(snap_, ann);
    ResumableEnumerator en(ann, index, fig_.alix, fig_.bob);
    std::set<std::vector<uint32_t>> got;
    for (const Walk& w : Drain(&en)) got.insert(w.edges);
    EXPECT_EQ(got, expected);
    // The front-end interned nothing new: a and b were already ids 0, 1.
    EXPECT_EQ(fig_.db.labels().size(), 2u);
  }
}

TEST_F(Figure1Test, EnumeratorIsRestartable) {
  ResumableEnumerator first(ann_, index_, fig_.alix, fig_.bob);
  ResumableEnumerator second(ann_, index_, fig_.alix, fig_.bob);
  std::vector<Walk> a = Drain(&first);
  std::vector<Walk> b = Drain(&second);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].edges, b[i].edges);
}

}  // namespace
}  // namespace dsw
