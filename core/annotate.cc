#include "core/annotate.h"

#include <algorithm>
#include <utility>

#include "core/shard_plan.h"
#include "core/sharded_annotate.h"
#include "util/word_kernel.h"

namespace dsw {
namespace {

constexpr uint32_t kNoSlot = UINT32_MAX;

// The sequential product BFS, templated over the word kernel (the
// execution-tier layer, util/word_kernel.h): MultiWordKernel is the
// pre-tier loop structure verbatim, SingleWordKernel collapses every
// per-set loop to one uint64_t op for |Q| <= 64. Fills ann->levels and
// ann->lambda; the caller has already seeded the metadata and rejected
// the trivial cases.
template <typename Kernel>
void ProductBfs(const Snapshot& snap, const Nfa& query, Kernel ker,
                Annotation* out) {
  Annotation& ann = *out;
  const uint32_t source = ann.source;
  const uint32_t target = ann.target;
  const LabelIndex& adj = snap.label_index();
  const CompiledDelta& delta = ann.delta;
  const uint32_t num_vertices = snap.num_vertices();
  const uint32_t wps = ker.wps();

  // seen: flat V x |Q| bit matrix of product pairs already assigned a
  // level. One zeroed calloc-style allocation; the BFS itself touches
  // only visited rows.
  std::vector<uint64_t> seen(static_cast<size_t>(num_vertices) * wps, 0);

  // Next-frontier accumulator: dense per-vertex slot table + touched
  // list, so building a level is O(touched) with no hashing. Sealing
  // sorts the touched vertices when they are sparse and linear-scans the
  // slot table when they are dense (>= 1/16 of V) — the scan is cheaper
  // than the sort's branchy compares at that density.
  std::vector<uint32_t> slot(num_vertices, kNoSlot);
  std::vector<uint32_t> touched;
  std::vector<uint32_t> sorted;
  std::vector<uint64_t> slot_words;

  // Level 0: closure-saturated initial states at the source. Later
  // levels stay saturated by induction — delta rows compose the
  // after-side closure, and a union of closed sets is closed.
  StateSet init = query.initial();
  if (ann.has_epsilon()) {
    StateSet saturated(ann.num_states);
    init.ForEach(
        [&](uint32_t q) { saturated.UnionWith(ann.eps_closure[q]); });
    init = std::move(saturated);
  }
  for (uint32_t w = 0; w < wps; ++w)
    seen[static_cast<size_t>(source) * wps + w] = init.words()[w];

  LevelSets frontier(ann.num_states);
  frontier.Append(source, init.words());

  StateSet moved(ann.num_states);
  std::vector<uint64_t> add_buf(wps);  // new bits of one relaxed edge

  while (!frontier.empty()) {
    ann.levels.push_back(std::move(frontier));
    const LevelSets& current = ann.levels.back();
    if (StateSetView at_target = current.Find(target);
        at_target && at_target.Intersects(ann.final_states)) {
      ann.lambda = static_cast<int32_t>(ann.levels.size() - 1);
      return;
    }

    touched.clear();
    slot_words.clear();
    for (size_t vi = 0; vi < current.size(); ++vi) {
      const uint32_t v = current.vertex(vi);
      const StateSetView states = current.states(vi);
      for (const LabelIndex::Group& group : adj.GroupsOf(v)) {
        if (!delta.HasLabel(group.label)) continue;
        // One move per (vertex, label), shared by every edge of the
        // group: word-parallel OR of the frontier's delta rows, visiting
        // only states that actually carry this label.
        uint64_t* mw = moved.mutable_words();
        ker.Zero(mw);
        ker.ForEachAnd(states.words(), delta.Sources(group.label).words(),
                       [&](uint32_t q) {
                         ker.Or(mw, delta.SuccessorWords(group.label, q));
                       });
        if (!ker.Any(mw)) continue;
        for (const LabelIndex::Target& t : adj.Targets(group)) {
          uint64_t* sw = &seen[static_cast<size_t>(t.dst) * wps];
          if (ker.NewBits(add_buf.data(), mw, sw) == 0)
            continue;  // every pair already leveled
          uint32_t s = slot[t.dst];
          if (s == kNoSlot) {
            s = static_cast<uint32_t>(touched.size());
            slot[t.dst] = s;
            touched.push_back(t.dst);
            slot_words.resize(slot_words.size() + wps, 0);
          }
          uint64_t* nw = &slot_words[static_cast<size_t>(s) * wps];
          ker.CommitInto(sw, nw, add_buf.data());
        }
      }
    }

    // Seal the next level: sorted vertices, contiguous words.
    frontier = LevelSets(ann.num_states);
    if (touched.size() >= num_vertices / 16) {
      for (uint32_t v = 0; v < num_vertices; ++v) {
        if (slot[v] == kNoSlot) continue;
        frontier.Append(v, &slot_words[static_cast<size_t>(slot[v]) * wps]);
        slot[v] = kNoSlot;
      }
    } else {
      sorted.assign(touched.begin(), touched.end());
      std::sort(sorted.begin(), sorted.end());
      for (uint32_t v : sorted)
        frontier.Append(v, &slot_words[static_cast<size_t>(slot[v]) * wps]);
      for (uint32_t v : touched) slot[v] = kNoSlot;
    }
  }

  // Product exhausted without reaching (target, final): no answer.
  ann.levels.clear();
}

}  // namespace

Annotation Annotate(const Snapshot& snap, const Nfa& query, uint32_t source,
                    uint32_t target, const AnnotateOptions& opts) {
  if (ShardPlan::ClampShards(opts.num_shards, snap.num_vertices()) > 1)
    return ShardedAnnotate(snap, query, source, target, opts);

  Annotation ann;
  ann.num_states = query.num_states();
  ann.source = source;
  ann.target = target;
  ann.final_states = query.final_states();
  if (query.has_epsilon()) ann.eps_closure = query.EpsilonClosures();
  ann.delta = CompiledDelta(query, ann.eps_closure);  // closures shared
  ann.force_multi_word = opts.force_multi_word;

  if (source >= snap.num_vertices() || target >= snap.num_vertices() ||
      query.num_states() == 0 || query.initial().None())
    return ann;

  // Tier dispatch: one-word queries run the collapsed single-word
  // kernels unless a test/bench forces the generic instantiation.
  if (ann.single_word())
    ProductBfs(snap, query, SingleWordKernel(), &ann);
  else
    ProductBfs(snap, query, MultiWordKernel(ann.words_per_set()), &ann);
  return ann;
}

Annotation MultiSourceAnnotation::Slice(size_t j) const {
  Annotation ann;
  ann.num_states = num_states;
  ann.source = sources[j];
  ann.target = target;
  ann.lambda = lambdas[j];
  ann.final_states = final_states;
  ann.eps_closure = eps_closure;
  ann.delta = delta;
  ann.force_multi_word = force_multi_word;
  if (ann.lambda < 0) return ann;  // unreachable: empty levels, like Annotate

  ann.levels.reserve(static_cast<size_t>(ann.lambda) + 1);
  for (size_t i = 0; i <= static_cast<size_t>(ann.lambda); ++i) {
    const LevelSets& wide = wide_levels[i];
    LevelSets lvl(num_states);
    for (size_t vi = 0; vi < wide.size(); ++vi) {
      // Block j's slice is word-aligned: a straight pointer offset.
      const uint64_t* bw = wide.states(vi).words() +
                           static_cast<size_t>(j) * block_words;
      uint64_t any = 0;
      for (uint32_t w = 0; w < block_words; ++w) any |= bw[w];
      if (any == 0) continue;  // vertex belongs to other blocks only
      lvl.Append(wide.vertex(vi), bw);
    }
    ann.levels.push_back(std::move(lvl));
  }
  return ann;
}

MultiSourceAnnotation AnnotateMultiSource(const Snapshot& snap,
                                          const Nfa& query,
                                          const std::vector<uint32_t>& sources,
                                          uint32_t target,
                                          const AnnotateOptions& opts) {
  // Sharding n/a: the block dimension is the parallelism here.
  MultiSourceAnnotation ms;
  ms.force_multi_word = opts.force_multi_word;
  ms.num_states = query.num_states();
  ms.num_blocks = static_cast<uint32_t>(sources.size());
  ms.block_words = static_cast<uint32_t>(
      state_set_detail::WordsFor(ms.num_states));
  ms.target = target;
  ms.sources = sources;
  ms.lambdas.assign(sources.size(), -1);
  ms.final_states = query.final_states();
  if (query.has_epsilon()) ms.eps_closure = query.EpsilonClosures();
  ms.delta = CompiledDelta(query, ms.eps_closure);

  const uint32_t num_vertices = snap.num_vertices();
  if (sources.empty() || target >= num_vertices || query.num_states() == 0 ||
      query.initial().None())
    return ms;

  const LabelIndex& adj = snap.label_index();
  const CompiledDelta& delta = ms.delta;
  const uint32_t bw = ms.block_words;
  const size_t wide_words = static_cast<size_t>(ms.num_blocks) * bw;
  // LevelSets capacity is 32-bit; the engine batches tens to a few
  // hundred sources, orders of magnitude below this.
  assert(wide_words * 64 <= UINT32_MAX && "source batch too large");
  const uint32_t wide_bits = static_cast<uint32_t>(wide_words * 64);

  // Per-block liveness: a block relaxes until its lambda is found (then
  // it must stop, to mirror Annotate's early return) or the BFS ends.
  std::vector<uint8_t> active(ms.num_blocks, 0);
  uint32_t num_active = 0;

  // Closure-saturated initial block, replicated into each valid
  // source's slice of that source's seen row (cf. the level-0 seeding
  // in Annotate above).
  StateSet init = query.initial();
  if (!ms.eps_closure.empty()) {
    StateSet saturated(ms.num_states);
    init.ForEach([&](uint32_t q) { saturated.UnionWith(ms.eps_closure[q]); });
    init = std::move(saturated);
  }

  std::vector<uint64_t> seen(static_cast<size_t>(num_vertices) * wide_words,
                             0);
  for (uint32_t j = 0; j < ms.num_blocks; ++j) {
    if (sources[j] >= num_vertices) continue;  // lambda stays -1
    active[j] = 1;
    ++num_active;
    uint64_t* row = &seen[static_cast<size_t>(sources[j]) * wide_words +
                          static_cast<size_t>(j) * bw];
    for (uint32_t w = 0; w < bw; ++w) row[w] |= init.words()[w];
  }
  if (num_active == 0) return ms;

  // Level 0: the distinct seeded vertices, in sorted order, with their
  // full wide seen rows (only seeded slices are nonzero).
  std::vector<uint32_t> seeded;
  for (uint32_t j = 0; j < ms.num_blocks; ++j)
    if (active[j]) seeded.push_back(sources[j]);
  std::sort(seeded.begin(), seeded.end());
  seeded.erase(std::unique(seeded.begin(), seeded.end()), seeded.end());
  LevelSets frontier(wide_bits);
  for (uint32_t v : seeded)
    frontier.Append(v, &seen[static_cast<size_t>(v) * wide_words]);

  constexpr uint32_t kNoSlot = UINT32_MAX;
  std::vector<uint32_t> slot(num_vertices, kNoSlot);
  std::vector<uint32_t> touched;
  std::vector<uint32_t> sorted;
  std::vector<uint64_t> slot_words;

  std::vector<uint64_t> moved(wide_words, 0);
  std::vector<uint64_t> add_buf(wide_words);
  std::vector<uint32_t> moved_blocks;  // blocks with a nonzero moved slice

  while (!frontier.empty() && num_active > 0) {
    ms.wide_levels.push_back(std::move(frontier));
    const LevelSets& current = ms.wide_levels.back();
    const int32_t level = static_cast<int32_t>(ms.wide_levels.size() - 1);

    // Per-block detection at the sealed level, mirroring Annotate's
    // "target reached a final state" early return.
    if (StateSetView at_target = current.Find(target); at_target) {
      const uint64_t* tw = at_target.words();
      for (uint32_t j = 0; j < ms.num_blocks; ++j) {
        if (!active[j]) continue;
        uint64_t hit = 0;
        for (uint32_t w = 0; w < bw; ++w)
          hit |= tw[static_cast<size_t>(j) * bw + w] &
                 ms.final_states.words()[w];
        if (hit != 0) {
          ms.lambdas[j] = level;
          active[j] = 0;
          --num_active;
        }
      }
      if (num_active == 0) break;
    }

    touched.clear();
    slot_words.clear();
    for (size_t vi = 0; vi < current.size(); ++vi) {
      const uint32_t v = current.vertex(vi);
      const uint64_t* vw = current.states(vi).words();
      for (const LabelIndex::Group& group : adj.GroupsOf(v)) {
        if (!delta.HasLabel(group.label)) continue;
        const uint64_t* srcw = delta.Sources(group.label).words();
        // Per-block frontier move; `moved` keeps only the slices listed
        // in moved_blocks nonzero, so clearing is proportional to work.
        for (uint32_t j : moved_blocks) {
          uint64_t* mb = &moved[static_cast<size_t>(j) * bw];
          for (uint32_t w = 0; w < bw; ++w) mb[w] = 0;
        }
        moved_blocks.clear();
        for (uint32_t j = 0; j < ms.num_blocks; ++j) {
          if (!active[j]) continue;
          const uint64_t* vb = vw + static_cast<size_t>(j) * bw;
          uint64_t* mb = &moved[static_cast<size_t>(j) * bw];
          uint64_t present = 0;
          for (uint32_t w = 0; w < bw; ++w) present |= vb[w] & srcw[w];
          if (present == 0) continue;
          state_set_detail::ForEachBit(vb, bw, [&](uint32_t q) {
            if (!(srcw[q >> 6] >> (q & 63) & 1)) return;
            const uint64_t* row = delta.SuccessorWords(group.label, q);
            for (uint32_t w = 0; w < bw; ++w) mb[w] |= row[w];
          });
          moved_blocks.push_back(j);  // present != 0 => row OR nonzero
        }
        if (moved_blocks.empty()) continue;
        for (const LabelIndex::Target& t : adj.Targets(group)) {
          uint64_t* sw = &seen[static_cast<size_t>(t.dst) * wide_words];
          uint64_t any_new = 0;
          for (uint32_t j : moved_blocks)
            for (uint32_t w = 0; w < bw; ++w) {
              const size_t k = static_cast<size_t>(j) * bw + w;
              add_buf[k] = moved[k] & ~sw[k];
              any_new |= add_buf[k];
            }
          if (any_new == 0) continue;
          uint32_t s = slot[t.dst];
          if (s == kNoSlot) {
            s = static_cast<uint32_t>(touched.size());
            slot[t.dst] = s;
            touched.push_back(t.dst);
            slot_words.resize(slot_words.size() + wide_words, 0);
          }
          uint64_t* nw = &slot_words[static_cast<size_t>(s) * wide_words];
          for (uint32_t j : moved_blocks)
            for (uint32_t w = 0; w < bw; ++w) {
              const size_t k = static_cast<size_t>(j) * bw + w;
              sw[k] |= add_buf[k];
              nw[k] |= add_buf[k];
            }
        }
      }
    }

    frontier = LevelSets(wide_bits);
    if (touched.size() >= num_vertices / 16) {
      for (uint32_t v = 0; v < num_vertices; ++v) {
        if (slot[v] == kNoSlot) continue;
        frontier.Append(
            v, &slot_words[static_cast<size_t>(slot[v]) * wide_words]);
        slot[v] = kNoSlot;
      }
    } else {
      sorted.assign(touched.begin(), touched.end());
      std::sort(sorted.begin(), sorted.end());
      for (uint32_t v : sorted)
        frontier.Append(
            v, &slot_words[static_cast<size_t>(slot[v]) * wide_words]);
      for (uint32_t v : touched) slot[v] = kNoSlot;
    }
  }

  // Blocks still active exhausted the product without an answer; their
  // lambdas stay -1 and Slice() returns empty levels for them.
  return ms;
}

}  // namespace dsw
