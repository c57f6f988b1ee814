// Bit-for-bit comparison of two plans' structures, shared by the
// repair oracles: an Annotation's levels and a TrimmedIndex's useful
// sets and, per queue, its candidates, B-list block and seek ranks; and
// a check of a ResumableIndex's SpanContains against the edge table.

#ifndef DSW_TESTS_PLAN_EQUALITY_H_
#define DSW_TESTS_PLAN_EQUALITY_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "core/annotate.h"
#include "core/resumable_index.h"
#include "core/trimmed_index.h"

namespace dsw {

inline void ExpectAnnotationsEqual(const Annotation& got,
                                   const Annotation& want) {
  ASSERT_EQ(got.lambda, want.lambda);
  ASSERT_EQ(got.levels.size(), want.levels.size());
  const size_t words = want.words_per_set();
  for (size_t i = 0; i < want.levels.size(); ++i) {
    const LevelSets& g = got.levels[i];
    const LevelSets& w = want.levels[i];
    ASSERT_EQ(g.size(), w.size()) << "level " << i;
    for (size_t vi = 0; vi < w.size(); ++vi) {
      ASSERT_EQ(g.vertex(vi), w.vertex(vi)) << "level " << i;
      ASSERT_EQ(std::memcmp(g.states(vi).words(), w.states(vi).words(),
                            words * sizeof(uint64_t)),
                0)
          << "level " << i << " vertex " << w.vertex(vi);
    }
  }
}

inline void ExpectTrimsEqual(const TrimmedIndex& got,
                             const TrimmedIndex& want) {
  ASSERT_EQ(got.num_levels(), want.num_levels());
  ASSERT_EQ(got.num_slots(), want.num_slots());
  if (want.num_levels() == 0) return;
  const size_t words = want.words_per_set();
  const uint32_t lambda = want.num_levels() - 1;
  for (uint32_t i = 0; i <= lambda; ++i) {
    const LevelSets& g = got.UsefulLevel(i);
    const LevelSets& w = want.UsefulLevel(i);
    ASSERT_EQ(g.size(), w.size()) << "useful level " << i;
    for (size_t vi = 0; vi < w.size(); ++vi) {
      ASSERT_EQ(g.vertex(vi), w.vertex(vi)) << "useful level " << i;
      ASSERT_EQ(std::memcmp(g.states(vi).words(), w.states(vi).words(),
                            words * sizeof(uint64_t)),
                0)
          << "useful level " << i << " vertex " << w.vertex(vi);
      if (i == lambda) continue;
      auto gc = got.CandidatesAt(i, vi);
      auto wc = want.CandidatesAt(i, vi);
      ASSERT_EQ(gc.size(), wc.size())
          << "candidates at level " << i << " vertex " << w.vertex(vi);
      for (size_t c = 0; c < wc.size(); ++c) {
        EXPECT_EQ(gc[c].edge, wc[c].edge);
        EXPECT_EQ(gc[c].label, wc[c].label);
        EXPECT_EQ(gc[c].next_pos, wc[c].next_pos)
            << "level " << i << " vertex " << w.vertex(vi) << " cand " << c;
      }
      TrimmedIndex::BList gb = got.BListAt(i, vi);
      TrimmedIndex::BList wb = want.BListAt(i, vi);
      ASSERT_EQ(gb.num_cand, wb.num_cand);
      const size_t rows = wb.useful.Count();
      ASSERT_EQ(std::memcmp(gb.nxt, wb.nxt,
                            rows * (wb.num_cand + 1) * sizeof(uint32_t)),
                0)
          << "B-list block at level " << i << " vertex " << w.vertex(vi);
      auto gr = got.RanksAt(i, vi);
      auto wr = want.RanksAt(i, vi);
      ASSERT_TRUE(std::equal(gr.begin(), gr.end(), wr.begin(), wr.end()))
          << "seek ranks at level " << i << " vertex " << w.vertex(vi);
    }
  }
}

// SpanContains, on every queue and every edge id up to three past the
// snapshot's last, must say exactly whether the edge is one the
// snapshot holds and its source, read off the edge table, is the
// queue's vertex.
inline void ExpectSpansMatchSources(const ResumableIndex& index) {
  const TrimmedIndex& trimmed = index.trimmed();
  const Snapshot& snap = index.snapshot();
  const uint32_t edges = static_cast<uint32_t>(snap.num_edges());
  for (uint32_t i = 0; i + 1 < trimmed.num_levels(); ++i) {
    const LevelSets& level = trimmed.UsefulLevel(i);
    for (uint32_t pos = 0; pos < level.size(); ++pos)
      for (uint32_t e = 0; e < edges + 3; ++e)
        ASSERT_EQ(index.SpanContains(i, pos, e),
                  e < edges && snap.src(e) == level.vertex(pos))
            << "level " << i << " vertex " << level.vertex(pos) << " edge "
            << e;
  }
}

}  // namespace dsw

#endif  // DSW_TESTS_PLAN_EQUALITY_H_
