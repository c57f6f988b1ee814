// Unit tests for the StateSet word-level API the label-stratified hot
// paths lean on: UnionWith's changed-flag, raw word access, views over
// external word pools, the Resize growth-path regression (stale tail
// bits must never come back into range), and the word kernels'
// ForEachAnd, which the product BFS walks its frontier with.
//
// The randomized round-trip suites at the bottom hammer the same
// view/pooled-word paths the resumable index leans on (StateSetView
// over pool storage, the kernels' ForEachAnd, LevelSets) against
// std::set references, across capacities that straddle word
// boundaries — the class of bug the Resize tail-clearing fix was.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "core/level_sets.h"
#include "util/state_set.h"
#include "util/word_kernel.h"

namespace dsw {
namespace {

TEST(StateSetTest, UnionWithReportsChange) {
  StateSet a(100), b(100);
  b.Set(3);
  b.Set(70);
  EXPECT_TRUE(a.UnionWith(b));   // both bits are new
  EXPECT_FALSE(a.UnionWith(b));  // second union is a no-op
  EXPECT_TRUE(a.Test(3));
  EXPECT_TRUE(a.Test(70));
  EXPECT_EQ(a.Count(), 2u);

  b.Set(99);
  EXPECT_TRUE(a.UnionWith(b));  // one new bit among old ones
  EXPECT_EQ(a.Count(), 3u);
}

TEST(StateSetTest, UnionWithGrowsCapacity) {
  StateSet small(10), big(200);
  big.Set(150);
  EXPECT_TRUE(small.UnionWith(big));
  EXPECT_GE(small.capacity(), 200u);
  EXPECT_TRUE(small.Test(150));
}

TEST(StateSetTest, UnionWithWordsChangedFlag) {
  StateSet a(128);
  uint64_t words[2] = {0b1010, 0};
  EXPECT_TRUE(a.UnionWithWords(words, 2));
  EXPECT_FALSE(a.UnionWithWords(words, 2));
  EXPECT_TRUE(a.Test(1));
  EXPECT_TRUE(a.Test(3));
}

TEST(StateSetTest, ResizeShrinkClearsStaleBits) {
  StateSet s(100);
  s.Set(70);
  s.Set(99);
  s.Resize(65);
  EXPECT_EQ(s.Count(), 0u);
  s.Resize(100);
  EXPECT_FALSE(s.Test(70));
  EXPECT_FALSE(s.Test(99));
}

TEST(StateSetTest, ResizeGrowthClearsDirtyTailWords) {
  // Regression: raw word writers can leave bits above capacity() in the
  // last word (e.g. ORing a 64-bit row into a 40-bit set). Growing must
  // not bring that dirt into range.
  StateSet s(40);
  s.mutable_words()[0] |= uint64_t{1} << 45;  // out-of-range dirt
  s.Resize(64);
  EXPECT_FALSE(s.Test(45)) << "stale tail bit resurfaced on grow";
  EXPECT_EQ(s.Count(), 0u);
}

TEST(StateSetTest, ViewOverExternalWords) {
  std::vector<uint64_t> pool = {0b101, uint64_t{1} << 5};
  StateSetView view(pool.data(), 128);
  EXPECT_TRUE(view);
  EXPECT_TRUE(view.Test(0));
  EXPECT_TRUE(view.Test(2));
  EXPECT_TRUE(view.Test(69));
  EXPECT_EQ(view.Count(), 3u);

  std::vector<uint32_t> bits;
  view.ForEach([&](uint32_t i) { bits.push_back(i); });
  EXPECT_EQ(bits, (std::vector<uint32_t>{0, 2, 69}));

  StateSet other(128);
  other.Set(69);
  EXPECT_TRUE(view.Intersects(other));
  other.Clear(69);
  EXPECT_FALSE(view.Intersects(other));

  EXPECT_FALSE(StateSetView()) << "null view must test false";
}

TEST(StateSetTest, AssignFromView) {
  std::vector<uint64_t> pool = {0b11, 0};
  StateSetView view(pool.data(), 80);
  StateSet s;
  s.Assign(view);
  EXPECT_EQ(s.capacity(), 80u);
  EXPECT_EQ(s.Count(), 2u);
  EXPECT_TRUE(s.Test(0));
  EXPECT_TRUE(s.Test(1));
}

// The bits of a & b, ascending, through each kernel that can hold a
// set of \p cap bits: the multi-word kernel always, the single-word one
// at cap <= 64.
std::vector<std::vector<uint32_t>> KernelForEachAnd(const StateSet& a,
                                                    const StateSet& b,
                                                    uint32_t cap) {
  std::vector<std::vector<uint32_t>> out(1);
  const uint32_t wps = static_cast<uint32_t>(state_set_detail::WordsFor(cap));
  MultiWordKernel(wps).ForEachAnd(a.words(), b.words(),
                                  [&](uint32_t i) { out[0].push_back(i); });
  if (wps == 1) {
    out.emplace_back();
    SingleWordKernel().ForEachAnd(a.words(), b.words(),
                                  [&](uint32_t i) { out[1].push_back(i); });
  }
  return out;
}

TEST(StateSetTest, ForEachAndVisitsOnlyTheIntersection) {
  for (uint32_t cap : {200u, 64u}) {
    SCOPED_TRACE(cap);
    StateSet a(cap), mask(cap);
    a.Set(1);
    a.Set(cap / 2);
    a.Set(cap - 1);
    mask.Set(cap / 2);
    mask.Set(cap - 1);
    mask.Set(7);
    for (const std::vector<uint32_t>& bits : KernelForEachAnd(a, mask, cap))
      EXPECT_EQ(bits, (std::vector<uint32_t>{cap / 2, cap - 1}));
  }
}

// ------------------------------------- randomized round-trip suites

// Capacities straddling word boundaries — where tail-bit bugs live.
constexpr uint32_t kFuzzCaps[] = {1, 7, 63, 64, 65, 127, 128, 129, 200};

std::set<uint32_t> RandomBits(std::mt19937_64& rng, uint32_t cap,
                              uint32_t density_denom) {
  std::set<uint32_t> bits;
  for (uint32_t i = 0; i < cap; ++i)
    if (rng() % density_denom == 0) bits.insert(i);
  return bits;
}

StateSet FromReference(const std::set<uint32_t>& bits, uint32_t cap) {
  StateSet s(cap);
  for (uint32_t b : bits) s.Set(b);
  return s;
}

std::set<uint32_t> ToReference(StateSetView v) {
  std::set<uint32_t> bits;
  v.ForEach([&](uint32_t b) { bits.insert(b); });
  return bits;
}

TEST(StateSetFuzzTest, SetOperationsMatchSetReference) {
  std::mt19937_64 rng(2024);
  for (uint32_t cap : kFuzzCaps) {
    for (int round = 0; round < 20; ++round) {
      std::set<uint32_t> ra = RandomBits(rng, cap, 3);
      std::set<uint32_t> rb = RandomBits(rng, cap, 3);
      StateSet a = FromReference(ra, cap);
      StateSet b = FromReference(rb, cap);

      // Count / Test / Any round-trip.
      EXPECT_EQ(a.Count(), ra.size());
      EXPECT_EQ(a.Any(), !ra.empty());
      EXPECT_EQ(ToReference(a), ra);

      // Union via UnionWith, with the changed-flag as "anything new".
      std::set<uint32_t> runion = ra;
      runion.insert(rb.begin(), rb.end());
      StateSet u = a;
      EXPECT_EQ(u.UnionWith(b), runion != ra);
      EXPECT_EQ(ToReference(u), runion);
      EXPECT_FALSE(u.UnionWith(b)) << "second union must be a no-op";

      // Intersection two ways: &= and each kernel's ForEachAnd.
      std::set<uint32_t> rinter;
      std::set_intersection(ra.begin(), ra.end(), rb.begin(), rb.end(),
                            std::inserter(rinter, rinter.begin()));
      StateSet i1 = a;
      i1 &= b;
      EXPECT_EQ(ToReference(i1), rinter);
      for (const std::vector<uint32_t>& bits : KernelForEachAnd(a, b, cap))
        EXPECT_EQ(bits, std::vector<uint32_t>(rinter.begin(), rinter.end()));
      EXPECT_EQ(a.Intersects(b), !rinter.empty());
    }
  }
}

TEST(StateSetFuzzTest, ViewsOverSharedPoolsRoundTrip) {
  // Sets packed into one word pool, read back through views — the
  // storage discipline of LevelSets/TrimmedIndex/ResumableIndex.
  std::mt19937_64 rng(4711);
  for (uint32_t cap : kFuzzCaps) {
    const uint32_t wps =
        static_cast<uint32_t>(state_set_detail::WordsFor(cap));
    const size_t n = 17;
    std::vector<std::set<uint32_t>> ref;
    std::vector<uint64_t> pool;
    for (size_t i = 0; i < n; ++i) {
      ref.push_back(RandomBits(rng, cap, 4));
      StateSet s = FromReference(ref.back(), cap);
      pool.insert(pool.end(), s.words(), s.words() + wps);
    }
    for (size_t i = 0; i < n; ++i) {
      StateSetView v(&pool[i * wps], cap);
      EXPECT_EQ(ToReference(v), ref[i]);
      EXPECT_EQ(v.Count(), ref[i].size());
      // A view participates in ops like an owning set.
      StateSet copy;
      copy.Assign(v);
      EXPECT_EQ(ToReference(copy), ref[i]);
      StateSet acc(cap);
      EXPECT_EQ(acc.UnionWithWords(v.words(), v.num_words()),
                !ref[i].empty());
      EXPECT_EQ(ToReference(acc), ref[i]);
    }
  }
}

TEST(StateSetFuzzTest, ResizeRoundTripsNeverResurrectBits) {
  std::mt19937_64 rng(99);
  for (int round = 0; round < 40; ++round) {
    uint32_t cap = kFuzzCaps[rng() % std::size(kFuzzCaps)];
    std::set<uint32_t> ref = RandomBits(rng, cap, 2);
    StateSet s = FromReference(ref, cap);
    for (int step = 0; step < 6; ++step) {
      uint32_t next = kFuzzCaps[rng() % std::size(kFuzzCaps)];
      // Reference semantics: shrinking drops bits >= next for good.
      std::set<uint32_t> kept;
      for (uint32_t b : ref)
        if (b < next) kept.insert(b);
      ref = kept;
      s.Resize(next);
      cap = next;
      EXPECT_EQ(s.capacity(), cap);
      EXPECT_EQ(ToReference(s), ref) << "round " << round;
      if (rng() % 2 && cap > 0) {  // keep mutating between resizes
        uint32_t b = static_cast<uint32_t>(rng() % cap);
        s.Set(b);
        ref.insert(b);
      }
    }
  }
}

TEST(LevelSetsFuzzTest, AppendFindRoundTrip) {
  std::mt19937_64 rng(31337);
  for (uint32_t cap : {3u, 64u, 130u}) {
    for (int round = 0; round < 10; ++round) {
      // Sorted random vertex ids with random nonempty state sets, as
      // Annotate/TrimmedIndex produce them.
      std::set<uint32_t> vertex_ids;
      const uint32_t universe = 200;
      for (int i = 0; i < 40; ++i)
        vertex_ids.insert(static_cast<uint32_t>(rng() % universe));
      LevelSets level(cap);
      std::vector<std::pair<uint32_t, std::set<uint32_t>>> ref;
      for (uint32_t v : vertex_ids) {  // std::set iterates ascending
        std::set<uint32_t> bits = RandomBits(rng, cap, 3);
        bits.insert(static_cast<uint32_t>(rng() % cap));  // nonempty
        StateSet s = FromReference(bits, cap);
        level.Append(v, s.words());
        ref.emplace_back(v, std::move(bits));
      }

      ASSERT_EQ(level.size(), ref.size());
      for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(level.vertex(i), ref[i].first);
        EXPECT_EQ(ToReference(level.states(i)), ref[i].second);
      }
      // Point lookups: hits for every member, misses for every hole.
      for (uint32_t v = 0; v < universe + 5; ++v) {
        auto it = std::find_if(ref.begin(), ref.end(),
                               [&](const auto& p) { return p.first == v; });
        if (it == ref.end()) {
          EXPECT_EQ(level.FindIndex(v), LevelSets::npos);
          EXPECT_FALSE(level.Find(v));
        } else {
          EXPECT_EQ(level.FindIndex(v),
                    static_cast<size_t>(it - ref.begin()));
          StateSetView v_states = level.Find(v);
          ASSERT_TRUE(v_states);
          EXPECT_EQ(ToReference(v_states), it->second);
        }
      }
    }
  }
}

}  // namespace
}  // namespace dsw
