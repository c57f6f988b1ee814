#include "core/sharded_annotate.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/level_sets.h"
#include "core/shard_plan.h"
#include "util/state_set.h"

namespace dsw {
namespace {

constexpr uint32_t kNoSlot = UINT32_MAX;

/// Ring capacity when the caller does not pin one: 4096 words per
/// (src, dst) pair, shrinking quadratically once S * S rings would
/// otherwise dominate memory. The rings are flow control, not storage —
/// small capacities only cost extra drain calls.
size_t DefaultRingWords(uint32_t num_shards, uint32_t wps) {
  const size_t budget = (size_t{1} << 21) /
                        (static_cast<size_t>(num_shards) * num_shards);
  return std::max<size_t>(wps + 1, std::min<size_t>(size_t{1} << 12, budget));
}

/// Reusable N-thread rendezvous (mutex + condvar generation counter).
/// Deliberately not std::barrier: the semantics needed here are tiny,
/// and this version is portable across every toolchain/sanitizer combo
/// in the CI matrix.
class LevelBarrier {
 public:
  explicit LevelBarrier(uint32_t n) : n_(n) {}

  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t gen = gen_;
    if (++arrived_ == n_) {
      arrived_ = 0;
      ++gen_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return gen_ != gen; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const uint32_t n_;
  uint32_t arrived_ = 0;
  uint64_t gen_ = 0;
};

/// Runs fn(shard_id) on num_shards threads; the calling thread is
/// shard 0, so one sharded call spawns num_shards - 1 threads.
template <typename Fn>
void RunOnShards(uint32_t num_shards, Fn&& fn) {
  std::vector<std::thread> threads;
  threads.reserve(num_shards - 1);
  for (uint32_t s = 1; s < num_shards; ++s)
    threads.emplace_back([&fn, s] { fn(s); });
  fn(0);
  for (std::thread& t : threads) t.join();
}

// ---------------------------------------------------------------- BFS

/// Mutable state owned by one BFS shard. Mirrors the sequential
/// Annotate loop's locals, restricted to the shard's vertex range.
struct BfsShard {
  LevelSets frontier;            // sealed sub-frontier (owned vertices)
  std::vector<uint32_t> slot;    // dense, indexed by v - range begin
  std::vector<uint32_t> touched;
  std::vector<uint32_t> sorted;
  std::vector<uint64_t> slot_words;
  StateSet moved;
  std::vector<uint64_t> add_buf;  // new bits of one applied delta
  std::vector<uint64_t> msg_out;  // wps + 1 outgoing record scratch
  std::vector<uint64_t> msg_in;   // wps + 1 incoming record scratch
};

/// Everything the BFS workers share. The seen bitmap is atomic words:
/// each row has exactly one writer (the owning shard), but remote
/// shards read rows optimistically to filter dead messages, so the
/// accesses must be data-race-free. Relaxed ordering suffices — a stale
/// read only means an extra message, and the owner re-checks.
struct BfsContext {
  const LabelIndex& adj;
  const CompiledDelta& delta;
  const ShardPlan& plan;
  Annotation& ann;
  uint32_t num_shards;
  uint32_t wps;
  uint32_t target;

  std::unique_ptr<std::atomic<uint64_t>[]> seen;
  std::vector<BfsShard> shards;
  std::deque<WordRing> rings;  // [src * num_shards + dst]; deque: not movable
  std::vector<size_t> offsets;  // per-shard slice start of the level

  LevelBarrier barrier;
  std::atomic<uint32_t> scatter_done{0};
  bool stop = false;  // thread 0 writes between barriers

  BfsContext(const Snapshot& snap, Annotation& a, const ShardPlan& p,
             uint32_t target_v, size_t ring_words)
      : adj(snap.label_index()),
        delta(a.delta),
        plan(p),
        ann(a),
        num_shards(p.num_shards()),
        wps(a.words_per_set()),
        target(target_v),
        seen(new std::atomic<uint64_t>[static_cast<size_t>(
            snap.num_vertices()) * a.words_per_set()]()),
        shards(p.num_shards()),
        offsets(p.num_shards(), 0),
        barrier(p.num_shards()) {
    for (uint32_t i = 0; i < num_shards * num_shards; ++i)
      rings.emplace_back(ring_words, wps + 1);
    for (uint32_t s = 0; s < num_shards; ++s) {
      BfsShard& sh = shards[s];
      sh.frontier = LevelSets(ann.num_states);
      sh.slot.assign(plan.end(s) - plan.begin(s), kNoSlot);
      sh.moved = StateSet(ann.num_states);
      sh.add_buf.resize(wps);
      sh.msg_out.resize(wps + size_t{1});
      sh.msg_in.resize(wps + size_t{1});
    }
  }

  WordRing& Ring(uint32_t src, uint32_t dst) {
    return rings[static_cast<size_t>(src) * num_shards + dst];
  }

  /// Owner-side merge of a state-set delta into vertex \p dst: the
  /// sequential loop's seen-check + slot-accumulator update, on the
  /// owning shard's slice.
  void Apply(uint32_t s, uint32_t dst, const uint64_t* mw) {
    BfsShard& me = shards[s];
    std::atomic<uint64_t>* sw = &seen[static_cast<size_t>(dst) * wps];
    uint64_t any_new = 0;
    for (uint32_t w = 0; w < wps; ++w) {
      me.add_buf[w] = mw[w] & ~sw[w].load(std::memory_order_relaxed);
      any_new |= me.add_buf[w];
    }
    if (any_new == 0) return;  // every pair already leveled
    uint32_t ls = dst - plan.begin(s);
    uint32_t slot = me.slot[ls];
    if (slot == kNoSlot) {
      slot = static_cast<uint32_t>(me.touched.size());
      me.slot[ls] = slot;
      me.touched.push_back(dst);
      me.slot_words.resize(me.slot_words.size() + wps, 0);
    }
    uint64_t* nw = &me.slot_words[static_cast<size_t>(slot) * wps];
    for (uint32_t w = 0; w < wps; ++w) {
      if (me.add_buf[w] == 0) continue;
      sw[w].store(sw[w].load(std::memory_order_relaxed) | me.add_buf[w],
                  std::memory_order_relaxed);
      nw[w] |= me.add_buf[w];
    }
  }

  /// Pops and applies every record currently published to shard \p s;
  /// returns whether anything arrived.
  bool DrainInboxes(uint32_t s) {
    BfsShard& me = shards[s];
    bool got = false;
    for (uint32_t p = 0; p < num_shards; ++p) {
      if (p == s) continue;
      WordRing& ring = Ring(p, s);
      while (ring.TryPop(me.msg_in.data(), wps + size_t{1})) {
        got = true;
        Apply(s, static_cast<uint32_t>(me.msg_in[0]), me.msg_in.data() + 1);
      }
    }
    return got;
  }

  bool InboxesEmpty(uint32_t s) {
    for (uint32_t p = 0; p < num_shards; ++p)
      if (p != s && !Ring(p, s).Empty()) return false;
    return true;
  }

  /// Scatter phase: relax the shard's sub-frontier. Local destinations
  /// are applied directly; remote ones become ring records, after the
  /// optimistic seen filter. Full rings are drained-through, never
  /// waited on — that is the deadlock-freedom argument: a blocked
  /// producer is always also a consuming shard.
  void Relax(uint32_t s) {
    BfsShard& me = shards[s];
    const LevelSets& cur = me.frontier;
    for (size_t vi = 0; vi < cur.size(); ++vi) {
      const uint32_t v = cur.vertex(vi);
      const StateSetView states = cur.states(vi);
      for (const LabelIndex::Group& group : adj.GroupsOf(v)) {
        if (!delta.HasLabel(group.label)) continue;
        me.moved.ZeroAll();
        ForEachAnd(states, delta.Sources(group.label), [&](uint32_t q) {
          me.moved.UnionWithWords(delta.SuccessorWords(group.label, q), wps);
        });
        if (me.moved.None()) continue;
        const uint64_t* mw = me.moved.words();
        uint32_t last_dst = UINT32_MAX;
        for (const LabelIndex::Target& t : adj.Targets(group)) {
          if (t.dst == last_dst) continue;  // parallel edge: same record
          last_dst = t.dst;
          const uint32_t d = plan.owner(t.dst);
          if (d == s) {
            Apply(s, t.dst, mw);
            continue;
          }
          // Optimistic filter: skip the record when the owner's seen row
          // already covers it. Most BFS relaxations re-reach pairs, so
          // this kills most ring traffic; the owner's Apply re-checks
          // authoritatively either way.
          const std::atomic<uint64_t>* sw =
              &seen[static_cast<size_t>(t.dst) * wps];
          uint64_t any_new = 0;
          for (uint32_t w = 0; w < wps; ++w)
            any_new |= mw[w] & ~sw[w].load(std::memory_order_relaxed);
          if (any_new == 0) continue;
          me.msg_out[0] = t.dst;
          std::copy(mw, mw + wps, me.msg_out.data() + 1);
          WordRing& ring = Ring(s, d);
          while (!ring.TryPush(me.msg_out.data(), wps + size_t{1}))
            if (!DrainInboxes(s)) std::this_thread::yield();
        }
      }
    }
  }

  /// Seals the shard's accumulated next sub-frontier, sorted within its
  /// contiguous range — the same density heuristic as the sequential
  /// seal, over the shard's slice.
  void Seal(uint32_t s) {
    BfsShard& me = shards[s];
    me.frontier = LevelSets(ann.num_states);
    const uint32_t begin = plan.begin(s);
    const uint32_t range = plan.end(s) - begin;
    if (range > 0 && me.touched.size() >= range / 16) {
      for (uint32_t v = begin; v < plan.end(s); ++v) {
        const uint32_t slot = me.slot[v - begin];
        if (slot == kNoSlot) continue;
        me.frontier.Append(v,
                           &me.slot_words[static_cast<size_t>(slot) * wps]);
        me.slot[v - begin] = kNoSlot;
      }
    } else {
      me.sorted.assign(me.touched.begin(), me.touched.end());
      std::sort(me.sorted.begin(), me.sorted.end());
      for (uint32_t v : me.sorted)
        me.frontier.Append(
            v, &me.slot_words[static_cast<size_t>(me.slot[v - begin]) * wps]);
      for (uint32_t v : me.touched) me.slot[v - begin] = kNoSlot;
    }
    me.touched.clear();
    me.slot_words.clear();
  }

  /// One worker's whole life: the superstep loop. Control flow
  /// decisions (allocation sizes, termination, the lambda check) are
  /// taken by shard 0 between barriers and published to the others by
  /// the barrier itself.
  void WorkerLoop(uint32_t s) {
    while (true) {
      barrier.ArriveAndWait();  // previous round's seals are done
      if (s == 0) {
        size_t total = 0;
        for (uint32_t s2 = 0; s2 < num_shards; ++s2) {
          offsets[s2] = total;
          total += shards[s2].frontier.size();
        }
        if (total == 0) {
          stop = true;  // product exhausted without reaching the target
        } else {
          ann.levels.emplace_back(ann.num_states);
          ann.levels.back().ResizeForMerge(total);
        }
        scatter_done.store(0, std::memory_order_relaxed);
      }
      barrier.ArriveAndWait();  // sizes, slices and the level allocated
      if (stop) break;
      ann.levels.back().CopySliceFrom(shards[s].frontier, offsets[s]);
      barrier.ArriveAndWait();  // the level is fully merged
      if (s == 0) {
        const LevelSets& level = ann.levels.back();
        if (StateSetView at_target = level.Find(target);
            at_target && at_target.Intersects(ann.final_states)) {
          ann.lambda = static_cast<int32_t>(ann.levels.size() - 1);
          stop = true;
        }
      }
      barrier.ArriveAndWait();  // verdict published
      if (stop) break;

      Relax(s);
      scatter_done.fetch_add(1, std::memory_order_acq_rel);
      // Keep gathering until every shard has finished scattering AND
      // this shard's inboxes are drained. The acquire on scatter_done
      // orders it after every producer's final ring publish, so an
      // empty check after seeing num_shards is authoritative.
      while (true) {
        const bool got = DrainInboxes(s);
        if (scatter_done.load(std::memory_order_acquire) == num_shards) {
          if (!got && InboxesEmpty(s)) break;
        } else if (!got) {
          std::this_thread::yield();
        }
      }
      Seal(s);
    }
  }
};

}  // namespace

Annotation ShardedAnnotate(const Snapshot& snap, const Nfa& query,
                           uint32_t source, uint32_t target,
                           const AnnotateOptions& opts) {
  // Preamble identical to the sequential Annotate.
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

  const uint32_t num_shards =
      ShardPlan::ClampShards(opts.num_shards, snap.num_vertices());
  assert(num_shards > 1 && "Annotate() routes num_shards <= 1 sequentially");
  ShardPlan plan(snap, num_shards);
  const uint32_t wps = ann.words_per_set();
  const size_t ring_words = opts.ring_capacity_words != 0
                                ? opts.ring_capacity_words
                                : DefaultRingWords(num_shards, wps);
  BfsContext ctx(snap, ann, plan, target, ring_words);

  // Level 0: closure-saturated initial states at the source, seeded
  // into the owning shard before the workers start (thread creation
  // publishes it to everyone).
  StateSet init = query.initial();
  if (ann.has_epsilon()) {
    StateSet saturated(ann.num_states);
    init.ForEach([&](uint32_t q) { saturated.UnionWith(ann.eps_closure[q]); });
    init = std::move(saturated);
  }
  for (uint32_t w = 0; w < wps; ++w)
    ctx.seen[static_cast<size_t>(source) * wps + w].store(
        init.words()[w], std::memory_order_relaxed);
  ctx.shards[plan.owner(source)].frontier.Append(source, init.words());

  RunOnShards(num_shards, [&ctx](uint32_t s) { ctx.WorkerLoop(s); });

  // Product exhausted without reaching (target, final): no answer.
  if (ann.lambda < 0) ann.levels.clear();
  return ann;
}

// --------------------------------------------------------------- trim

namespace {

/// Per-shard outputs of one trim superstep (one annotation level),
/// merged into the global TrimmedIndex at the level barrier.
struct TrimShard {
  explicit TrimShard(uint32_t num_states) : scratch(num_states) {}
  LevelSets useful;
  std::vector<std::pair<uint32_t, uint32_t>> ranges;  // local offsets
  std::vector<TrimmedIndex::CandidateEdge> pool;
  std::vector<size_t> boff;  // local offsets into nxt
  std::vector<uint32_t> nxt;
  trim_detail::Scratch scratch;
};

}  // namespace

void ShardedTrimBuild(TrimmedIndex& out, const Snapshot& snap,
                      const Annotation& ann, const AnnotateOptions& opts) {
  assert(ann.reachable() && "caller dispatches unreachable sequentially");
  const uint32_t lambda = static_cast<uint32_t>(ann.lambda);
  out.wps_ = ann.words_per_set();
  out.useful_.assign(lambda + 1, LevelSets(ann.num_states));
  out.cand_ranges_.resize(lambda);
  out.blist_off_.resize(lambda);

  // Level lambda seed: only (target, final) pairs are useful — same as
  // the sequential constructor.
  if (StateSetView at_target = ann.StatesAt(lambda, ann.target)) {
    StateSet fin(ann.num_states);
    fin.Assign(at_target);
    fin &= ann.final_states;
    if (fin.Any()) out.useful_[lambda].Append(ann.target, fin.words());
  }

  if (lambda > 0 && !out.useful_[lambda].empty()) {
    const uint32_t num_shards =
        ShardPlan::ClampShards(opts.num_shards, snap.num_vertices());
    const ShardPlan plan(snap, num_shards);
    const LabelIndex& adj = snap.label_index();
    const CompiledDelta& delta = ann.delta;
    const uint32_t wps = out.wps_;

    std::vector<TrimShard> shards(num_shards, TrimShard(ann.num_states));
    // Per-level merge bases, computed by shard 0 between barriers.
    std::vector<size_t> vert_base(num_shards), cand_base(num_shards),
        nxt_base(num_shards);
    LevelBarrier barrier(num_shards);

    RunOnShards(num_shards, [&](uint32_t s) {
      for (uint32_t i = lambda; i-- > 0;) {
        const LevelSets& level = ann.levels[i];
        // The merged level i + 1 — immutable since its barrier, the
        // superstep's broadcast state.
        const LevelSets& next_useful = out.useful_[i + 1];
        TrimShard& me = shards[s];
        me.useful = LevelSets(ann.num_states);
        me.ranges.clear();
        me.pool.clear();
        me.boff.clear();
        me.nxt.clear();
        if (!next_useful.empty()) {
          // The shard's slice of the (sorted) level.
          const std::vector<uint32_t>& vs = level.vertices();
          const size_t lo =
              std::lower_bound(vs.begin(), vs.end(), plan.begin(s)) -
              vs.begin();
          const size_t hi =
              std::lower_bound(vs.begin(), vs.end(), plan.end(s)) -
              vs.begin();
          for (size_t vi = lo; vi < hi; ++vi) {
            const uint32_t cb = static_cast<uint32_t>(me.pool.size());
            const size_t bo = me.nxt.size();
            if (trim_detail::TrimVertex(adj, delta, wps, level.vertex(vi),
                                        level.states(vi), next_useful,
                                        &me.scratch, &me.pool, &me.nxt,
                                        ann.force_multi_word)) {
              me.useful.Append(level.vertex(vi),
                               me.scratch.useful_here.words());
              me.ranges.emplace_back(cb,
                                     static_cast<uint32_t>(me.pool.size()));
              me.boff.push_back(bo);
            }
          }
        }
        barrier.ArriveAndWait();  // all slices trimmed
        if (s == 0) {
          size_t vtot = 0;
          size_t ctot = out.cand_pool_.size();
          size_t ntot = out.nxt_pool_.size();
          for (uint32_t s2 = 0; s2 < num_shards; ++s2) {
            vert_base[s2] = vtot;
            cand_base[s2] = ctot;
            nxt_base[s2] = ntot;
            vtot += shards[s2].useful.size();
            ctot += shards[s2].pool.size();
            ntot += shards[s2].nxt.size();
          }
          out.useful_[i].ResizeForMerge(vtot);
          out.cand_pool_.resize(ctot);
          out.nxt_pool_.resize(ntot);
          out.cand_ranges_[i].resize(vtot);
          out.blist_off_[i].resize(vtot);
        }
        barrier.ArriveAndWait();  // global arrays sized
        out.useful_[i].CopySliceFrom(me.useful, vert_base[s]);
        std::copy(me.pool.begin(), me.pool.end(),
                  out.cand_pool_.begin() + cand_base[s]);
        std::copy(me.nxt.begin(), me.nxt.end(),
                  out.nxt_pool_.begin() + nxt_base[s]);
        for (size_t k = 0; k < me.ranges.size(); ++k) {
          out.cand_ranges_[i][vert_base[s] + k] = {
              static_cast<uint32_t>(me.ranges[k].first + cand_base[s]),
              static_cast<uint32_t>(me.ranges[k].second + cand_base[s])};
          out.blist_off_[i][vert_base[s] + k] = me.boff[k] + nxt_base[s];
        }
        barrier.ArriveAndWait();  // level i merged; level i - 1 may read
      }
    });
  }

  for (const LevelSets& level : out.useful_)
    for (size_t i = 0; i < level.size(); ++i)
      out.num_slots_ += level.states(i).Count();
}

}  // namespace dsw
