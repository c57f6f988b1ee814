// Unit tests for the annotation stage: lambda computation, unreachable
// instances, self-loops, parallel multi-label edges, and epsilon-closure
// saturation for epsilon-NFA queries (Section 5.1).

#include <gtest/gtest.h>

#include <vector>

#include "core/annotate.h"
#include "core/resumable_index.h"
#include "workload/queries.h"

namespace dsw {
namespace {

size_t CountAnswers(Database& db, const Nfa& query, uint32_t s,
                    uint32_t t) {
  Snapshot snap = db.Freeze();
  Annotation ann = Annotate(snap, query, s, t);
  ResumableIndex index(snap, ann);
  size_t n = 0;
  for (ResumableEnumerator en(ann, index, s, t); en.Valid(); en.Next())
    ++n;
  return n;
}

TEST(AnnotateTest, LambdaOnAChain) {
  Database db;
  uint32_t v0 = db.AddVertex(), v1 = db.AddVertex(), v2 = db.AddVertex();
  db.AddEdge(v0, "a", v1);
  db.AddEdge(v1, "a", v2);
  Annotation ann = Annotate(db.Freeze(), StaircaseNfa(1, 1), v0, v2);
  ASSERT_TRUE(ann.reachable());
  EXPECT_EQ(ann.lambda, 2);
}

TEST(AnnotateTest, ShortestAcceptingBeatsShortestPlain) {
  // The direct a-edge is shorter but the query demands a b somewhere.
  Database db;
  uint32_t s = db.AddVertex(), m = db.AddVertex(), t = db.AddVertex();
  uint32_t a = db.labels().Intern("a"), b = db.labels().Intern("b");
  db.AddEdge(s, a, t);  // length 1, word "a": rejected
  db.AddEdge(s, b, m);
  db.AddEdge(m, a, t);  // length 2, word "ba": accepted
  Nfa contains_b(2);
  contains_b.AddInitial(0);
  contains_b.AddFinal(1);
  contains_b.AddTransition(0, a, 0);
  contains_b.AddTransition(0, b, 1);
  contains_b.AddTransition(1, a, 1);
  contains_b.AddTransition(1, b, 1);
  Annotation ann = Annotate(db.Freeze(), contains_b, s, t);
  ASSERT_TRUE(ann.reachable());
  EXPECT_EQ(ann.lambda, 2);
}

TEST(AnnotateTest, UnreachableTargetYieldsEmptyEnumeration) {
  Database db;
  uint32_t s = db.AddVertex();
  uint32_t t = db.AddVertex();  // no edges at all
  Annotation ann = Annotate(db.Freeze(), StaircaseNfa(1, 1), s, t);
  EXPECT_FALSE(ann.reachable());
  EXPECT_EQ(ann.lambda, -1);

  ResumableIndex index(db.Freeze(), ann);
  EXPECT_EQ(index.trimmed().num_slots(), 0u);
  EXPECT_TRUE(index.empty());

  ResumableEnumerator en(ann, index, s, t);
  EXPECT_FALSE(en.Valid());
}

TEST(AnnotateTest, LabelMismatchIsUnreachableToo) {
  // A path exists but its word is outside the query language.
  Database db;
  uint32_t s = db.AddVertex(), t = db.AddVertex();
  db.labels().Intern("l0");
  uint32_t l1 = db.labels().Intern("l1");
  db.AddEdge(s, l1, t);
  Annotation ann = Annotate(db.Freeze(), StaircaseNfa(1, 1), s, t);  // only l0
  EXPECT_FALSE(ann.reachable());
  ResumableIndex index(db.Freeze(), ann);
  ResumableEnumerator en(ann, index, s, t);
  EXPECT_FALSE(en.Valid());
}

TEST(AnnotateTest, SelfLoopOnShortestWalk) {
  // s has an a-loop; the query wants exactly "aab", so the loop must be
  // taken twice before the b-edge: one answer of length 3.
  Database db;
  uint32_t s = db.AddVertex(), t = db.AddVertex();
  uint32_t a = db.labels().Intern("a"), b = db.labels().Intern("b");
  uint32_t loop = db.AddEdge(s, a, s);
  uint32_t cross = db.AddEdge(s, b, t);
  Nfa aab(4);
  aab.AddInitial(0);
  aab.AddFinal(3);
  aab.AddTransition(0, a, 1);
  aab.AddTransition(1, a, 2);
  aab.AddTransition(2, b, 3);
  Annotation ann = Annotate(db.Freeze(), aab, s, t);
  ASSERT_TRUE(ann.reachable());
  EXPECT_EQ(ann.lambda, 3);

  ResumableIndex index(db.Freeze(), ann);
  ResumableEnumerator en(ann, index, s, t);
  ASSERT_TRUE(en.Valid());
  EXPECT_EQ(en.walk().edges, (std::vector<uint32_t>{loop, loop, cross}));
  en.Next();
  EXPECT_FALSE(en.Valid());
}

TEST(AnnotateTest, ParallelEdgesAreDistinctAnswers) {
  Database db;
  uint32_t s = db.AddVertex(), t = db.AddVertex();
  uint32_t a = db.labels().Intern("a"), b = db.labels().Intern("b");
  db.AddEdge(s, a, t);
  db.AddEdge(s, b, t);
  db.AddEdge(s, a, t);  // parallel duplicate of the first, same label
  EXPECT_EQ(CountAnswers(db, StaircaseNfa(1, 2), s, t), 3u);
}

TEST(AnnotateTest, EmptyWalkWhenSourceIsTargetAndQueryAcceptsEpsilon) {
  Database db;
  uint32_t s = db.AddVertex();
  db.labels().Intern("l0");
  db.AddEdge(s, 0u, s);  // loop must not produce a second answer
  Nfa query = StaircaseNfa(0, 1);  // accepts every word incl. epsilon
  Annotation ann = Annotate(db.Freeze(), query, s, s);
  ASSERT_TRUE(ann.reachable());
  EXPECT_EQ(ann.lambda, 0);

  ResumableIndex index(db.Freeze(), ann);
  ResumableEnumerator en(ann, index, s, s);
  ASSERT_TRUE(en.Valid());
  EXPECT_TRUE(en.walk().edges.empty());
  en.Next();
  EXPECT_FALSE(en.Valid());
}

TEST(AnnotateTest, EpsilonBeforeFirstLabeledStep) {
  // q0 -eps-> q1 -a-> q2: the initial level must be closure-saturated or
  // the a-edge is never taken.
  Database db;
  uint32_t s = db.AddVertex(), t = db.AddVertex();
  uint32_t a = db.labels().Intern("a");
  db.AddEdge(s, a, t);
  Nfa nfa(3);
  nfa.AddInitial(0);
  nfa.AddFinal(2);
  nfa.AddEpsilonTransition(0, 1);
  nfa.AddTransition(1, a, 2);
  Annotation ann = Annotate(db.Freeze(), nfa, s, t);
  ASSERT_TRUE(ann.reachable());
  EXPECT_EQ(ann.lambda, 1);
  EXPECT_TRUE(ann.has_epsilon());
  EXPECT_EQ(CountAnswers(db, nfa, s, t), 1u);
}

TEST(AnnotateTest, EpsilonAfterLastLabeledStep) {
  // q0 -a-> q1 -eps-> q2 (final): acceptance must see through the
  // trailing epsilon-move.
  Database db;
  uint32_t s = db.AddVertex(), t = db.AddVertex();
  uint32_t a = db.labels().Intern("a");
  db.AddEdge(s, a, t);
  Nfa nfa(3);
  nfa.AddInitial(0);
  nfa.AddFinal(2);
  nfa.AddTransition(0, a, 1);
  nfa.AddEpsilonTransition(1, 2);
  Annotation ann = Annotate(db.Freeze(), nfa, s, t);
  ASSERT_TRUE(ann.reachable());
  EXPECT_EQ(ann.lambda, 1);
  EXPECT_EQ(CountAnswers(db, nfa, s, t), 1u);
}

TEST(AnnotateTest, EpsilonCyclesTerminate) {
  // q0 and q1 form an epsilon-cycle (as Thompson's construction emits
  // for nested stars); closure saturation must not loop.
  Database db;
  uint32_t s = db.AddVertex(), t = db.AddVertex();
  uint32_t a = db.labels().Intern("a");
  db.AddEdge(s, a, t);
  Nfa nfa(3);
  nfa.AddInitial(0);
  nfa.AddFinal(2);
  nfa.AddEpsilonTransition(0, 1);
  nfa.AddEpsilonTransition(1, 0);
  nfa.AddTransition(1, a, 2);
  EXPECT_EQ(CountAnswers(db, nfa, s, t), 1u);
}

TEST(AnnotateTest, EpsilonOnlyAcceptanceYieldsTheEmptyWalk) {
  // source == target and the query accepts epsilon through a chain of
  // epsilon-moves only: lambda = 0, one empty answer.
  Database db;
  uint32_t s = db.AddVertex();
  db.labels().Intern("l0");
  db.AddEdge(s, 0u, s);
  Nfa nfa(3);
  nfa.AddInitial(0);
  nfa.AddFinal(2);
  nfa.AddEpsilonTransition(0, 1);
  nfa.AddEpsilonTransition(1, 2);
  nfa.AddTransition(0, 0u, 0);  // the loop label keeps longer walks legal
  Annotation ann = Annotate(db.Freeze(), nfa, s, s);
  ASSERT_TRUE(ann.reachable());
  EXPECT_EQ(ann.lambda, 0);
  EXPECT_EQ(CountAnswers(db, nfa, s, s), 1u);
}

TEST(AnnotateTest, EpsilonDoesNotShortenBelowTheLabeledDistance) {
  // Epsilon-moves advance the automaton, never the walk: lambda still
  // counts data edges.
  Database db;
  uint32_t v0 = db.AddVertex(), v1 = db.AddVertex(), v2 = db.AddVertex();
  uint32_t a = db.labels().Intern("a");
  db.AddEdge(v0, a, v1);
  db.AddEdge(v1, a, v2);
  Nfa nfa(4);
  nfa.AddInitial(0);
  nfa.AddFinal(3);
  nfa.AddTransition(0, a, 1);
  nfa.AddEpsilonTransition(1, 2);
  nfa.AddTransition(2, a, 3);
  Annotation ann = Annotate(db.Freeze(), nfa, v0, v2);
  ASSERT_TRUE(ann.reachable());
  EXPECT_EQ(ann.lambda, 2);
}

TEST(AnnotateTest, AnnotationSnapshotsTheQuery) {
  Database db;
  uint32_t s = db.AddVertex(), t = db.AddVertex();
  db.labels().Intern("l0");
  db.AddEdge(s, 0u, t);
  Annotation ann;
  {
    Nfa query = StaircaseNfa(1, 1);  // destroyed before use below
    ann = Annotate(db.Freeze(), query, s, t);
  }
  ResumableIndex index(db.Freeze(), ann);
  ResumableEnumerator en(ann, index, s, t);
  ASSERT_TRUE(en.Valid());
  en.Next();
  EXPECT_FALSE(en.Valid());
}

}  // namespace
}  // namespace dsw
