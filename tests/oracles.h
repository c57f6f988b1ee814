// Ground truths shared by the suites: answers as edge-id sequences, the
// single-threaded annotate/trim/enumerate oracle of a query, a regex
// through either front-end, and the whole pipeline's answer set.

#ifndef DSW_TESTS_ORACLES_H_
#define DSW_TESTS_ORACLES_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "automaton/glushkov.h"
#include "automaton/thompson.h"
#include "core/annotate.h"
#include "core/database.h"
#include "core/nfa.h"
#include "core/resumable_enumerator.h"
#include "core/resumable_index.h"
#include "core/walk.h"
#include "regex/regex_parser.h"
#include "workload/generators.h"

namespace dsw {

/// Answers as their edge-id sequences, in emission order.
using EdgeSeq = std::vector<std::vector<uint32_t>>;

inline EdgeSeq Edges(const std::vector<Walk>& walks) {
  EdgeSeq out;
  out.reserve(walks.size());
  for (const Walk& w : walks) out.push_back(w.edges);
  return out;
}

/// Every answer \p en emits from its current position on.
template <typename Enumerator>
EdgeSeq Drain(Enumerator& en) {
  EdgeSeq out;
  for (; en.Valid(); en.Next()) out.push_back(en.walk().edges);
  return out;
}

/// Single-threaded ground truth for (query, source, target) on a frozen
/// snapshot.
inline EdgeSeq Oracle(const Snapshot& snap, const Nfa& query,
                      uint32_t source, uint32_t target) {
  Annotation ann = Annotate(snap, query, source, target);
  ResumableIndex index(snap, ann);
  ResumableEnumerator en(ann, index, source, target);
  return Drain(en);
}

/// \p pattern through the Thompson (\p thompson) or the Glushkov
/// front-end, its labels interned into \p db's dictionary.
inline Nfa CompileRegex(const std::string& pattern, Database* db,
                        bool thompson) {
  RegexParseResult ast = ParseRegex(pattern);
  EXPECT_TRUE(ast.ok()) << ast.error();
  return thompson ? ThompsonNfa(*ast.value(), db->mutable_dict())
                  : GlushkovNfa(*ast.value(), db->mutable_dict());
}

struct PipelineResult {
  int32_t lambda = -1;
  std::set<std::vector<uint32_t>> walks;
};

/// Freezes \p inst and runs annotate, trim and enumerate from its source
/// to its target; a walk emitted twice fails the calling test.
inline PipelineResult RunPipeline(Instance& inst, const Nfa& nfa) {
  PipelineResult res;
  Snapshot snap = inst.db.Freeze();
  Annotation ann = Annotate(snap, nfa, inst.source, inst.target);
  res.lambda = ann.lambda;
  ResumableIndex index(snap, ann);
  size_t emitted = 0;
  for (ResumableEnumerator en(ann, index, inst.source, inst.target);
       en.Valid(); en.Next()) {
    ++emitted;
    EXPECT_TRUE(res.walks.insert(en.walk().edges).second)
        << "duplicate walk emitted";
  }
  EXPECT_EQ(emitted, res.walks.size());
  return res;
}

}  // namespace dsw

#endif  // DSW_TESTS_ORACLES_H_
