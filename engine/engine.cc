#include "engine/engine.h"

#include <algorithm>
#include <cassert>
#include <list>
#include <unordered_map>
#include <utility>

#include "automaton/canonical_hash.h"
#include "core/delta_annotate.h"
#include "core/resumable_enumerator.h"
#include "regex/regex_parser.h"

namespace dsw {

// Bounded per-worker enumerator LRU. Holds the shared_ptr alongside the
// enumerator: a cached enumerator must never outlive its prepared
// query, even after the engine's own query table dropped it. The cap
// (EngineOptions::worker_cache_entries) keeps a long-lived worker from
// accumulating one enumerator per distinct prepared query within a
// generation; sessions are memoryless, so an eviction costs one rebuild
// on the victim's next pump, never a wrong resume.
struct QueryEngine::WorkerCache {
  struct Entry {
    std::shared_ptr<const PreparedQuery> query;
    std::unique_ptr<ResumableEnumerator> en;
    std::list<const PreparedQuery*>::iterator lru_it;
  };

  WorkerCache(uint32_t capacity, std::atomic<uint64_t>* evictions)
      : capacity(std::max(capacity, 1u)), evictions(evictions) {}

  uint32_t capacity;
  std::atomic<uint64_t>* evictions;
  std::unordered_map<const PreparedQuery*, Entry> entries;
  std::list<const PreparedQuery*> lru;  // front = hottest

  ResumableEnumerator& Get(const std::shared_ptr<const PreparedQuery>& q) {
    auto it = entries.find(q.get());
    if (it != entries.end()) {
      lru.splice(lru.begin(), lru, it->second.lru_it);
      return *it->second.en;
    }
    // Construct BEFORE touching the map: if the constructor throws
    // (e.g. bad_alloc), default-inserting first would leave a poisoned
    // entry — null `en`, dangling `lru_it` — that the next hit on this
    // query dereferences.
    auto en = std::make_unique<ResumableEnumerator>(q->ann, q->index,
                                                    q->source, q->target);
    if (entries.size() >= capacity) {
      entries.erase(lru.back());
      lru.pop_back();
      evictions->fetch_add(1, std::memory_order_relaxed);
    }
    Entry& e = entries[q.get()];
    e.query = q;
    e.en = std::move(en);
    lru.push_front(q.get());
    e.lru_it = lru.begin();
    return *e.en;
  }

  // Retired queries never run again; drop their enumerators so a
  // long-lived engine does not accumulate one per old generation.
  void EvictOtherGenerations(const Database* db, uint64_t gen) {
    for (auto it = entries.begin(); it != entries.end();) {
      const Snapshot& s = it->second.query->index.snapshot();
      if (&s.db() != db || s.generation() != gen) {
        lru.erase(it->second.lru_it);
        it = entries.erase(it);
      } else {
        ++it;
      }
    }
  }
};

QueryEngine::QueryEngine(const EngineOptions& options)
    : worker_cache_entries_(std::max(options.worker_cache_entries, 1u)),
      incremental_install_(options.incremental_install),
      cache_(options.plan_cache_bytes) {
  uint32_t num_threads = std::max(options.num_threads, 1u);
  workers_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
}

QueryEngine::~QueryEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Fail pending pumps instead of leaving their futures hanging.
  for (Job& job : queue_)
    job.promise.set_value(PumpResult{PumpStatus::kRetired, {}});
}

namespace {

// One plan-cache entry run through the delta-repair pipeline.
// value == nullptr means the plan was dropped (unrepairable: the old
// annotation was unreachable, so it carries no levels to repair — and
// the inserts may well have made it reachable, so a fresh build on the
// next Prepare miss is also the semantically required outcome).
// order_preserved means lambda did not change, so old answers keep
// their relative enumeration order and a parked walk is still a valid
// SeekAfter anchor.
struct RepairedPlan {
  std::shared_ptr<const PreparedQuery> value;
  bool order_preserved = false;
};

RepairedPlan RepairPlan(const Snapshot& snap, const EdgeDelta& delta,
                        const DeltaContext& ctx, const PreparedQuery& old) {
  RepairedPlan out;
  Annotation ann = old.ann;
  AnnotationRepair rep = DeltaAnnotate(snap, delta, &ann);
  if (!rep.ok) return out;
  TrimmedIndex trimmed =
      DeltaTrim(snap, ann, old.index.trimmed(), rep, delta, ctx);
  // The tier depends on the query alone, so it carries over.
  out.value = std::make_shared<const PreparedQuery>(
      snap, std::move(ann), std::move(trimmed), old.tier);
  out.order_preserved = !rep.lambda_changed;
  return out;
}

}  // namespace

void QueryEngine::InstallSnapshot(Snapshot snap) {
  assert(static_cast<bool>(snap) && "InstallSnapshot: null snapshot");
  const Database* db = &snap.db();
  const uint64_t gen = snap.generation();
  Snapshot prev;
  {
    std::lock_guard<std::mutex> lock(mu_);
    prev = snapshot_;
    installed_db_ = db;
    installed_gen_ = gen;
    snapshot_ = snap;
    // Sessions pinned to older generations are retired lazily, at their
    // next pump — the (db, generation) compare in the worker is the
    // whole mechanism. The incremental path below re-points the sessions
    // it saves BEFORE they can reach a worker again.
  }

  // Incremental path: when the previous install was an earlier frozen
  // generation of the same database and the delta between the two is a
  // known insert-only suffix, extract the old generation's completed
  // plans for repair instead of letting Invalidate drop them.
  std::vector<std::pair<PlanKey, PlanCache::Value>> old_entries;
  EdgeDelta delta;
  if (incremental_install_ && prev && &prev.db() == db &&
      prev.generation() != gen) {
    delta = snap.DeltaFrom(prev.generation());
    if (delta.known)
      old_entries = cache_.TakeGeneration(db, prev.generation());
  }

  // Plan entries of other generations can never be served again (keys
  // carry the generation); drop them eagerly. Outside mu_ — the cache
  // has its own lock and the two are never held together.
  cache_.Invalidate(db, gen);
  if (old_entries.empty()) return;

  // Repair each extracted plan against the new snapshot and re-insert
  // it under the new generation's key. One reverse CSR serves them all.
  DeltaContext ctx(snap);
  std::unordered_map<const PreparedQuery*,
                     std::shared_ptr<const PreparedQuery>>
      remap;           // old plan -> upgraded plan (all upgrades)
  uint64_t upgraded = 0;
  std::vector<const PreparedQuery*> order_broken;  // lambda changed
  for (auto& [key, old] : old_entries) {
    RepairedPlan repaired = RepairPlan(snap, delta, ctx, *old);
    if (!repaired.value) continue;
    ++upgraded;
    remap.emplace(old.get(), repaired.value);
    if (!repaired.order_preserved) order_broken.push_back(old.get());
    PlanKey new_key = std::move(key);
    new_key.generation = gen;
    cache_.InsertUpgraded(std::move(new_key), std::move(repaired.value));
  }
  if (remap.empty()) return;

  std::lock_guard<std::mutex> lock(mu_);
  plans_upgraded_ += upgraded;
  // Re-point the query table: future OpenSession calls on an existing
  // QueryId get the upgraded plan (new sessions Rewind, so this is safe
  // even when the enumeration order changed).
  for (auto& q : queries_) {
    auto it = remap.find(q.get());
    if (it != remap.end()) q = it->second;
  }
  // Re-point sessions. A session that already emitted answers needs its
  // parked walk to stay a valid order anchor, which only holds when
  // lambda is unchanged — otherwise leave it on the old plan and let
  // the worker's generation check retire it lazily, as before.
  for (Session& s : sessions_) {
    if (!s.query) continue;
    auto it = remap.find(s.query.get());
    if (it == remap.end()) continue;
    if (s.started &&
        std::find(order_broken.begin(), order_broken.end(),
                  s.query.get()) != order_broken.end())
      continue;
    s.query = it->second;
    if (s.state == SessionState::kParked) ++sessions_upgraded_;
  }
}

QueryId QueryEngine::RegisterLocked(
    std::shared_ptr<const PreparedQuery> prepared) {
  queries_.push_back(std::move(prepared));
  return static_cast<QueryId>(queries_.size() - 1);
}

QueryId QueryEngine::Prepare(const Nfa& query, uint32_t source,
                             uint32_t target, const AnnotateOptions& opts) {
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    assert(static_cast<bool>(snapshot_) &&
           "Prepare: no snapshot installed");
    snap = snapshot_;
  }
  CanonicalAutomaton canon = CanonicalizeAutomaton(query);
  PlanKey key{&snap.db(), snap.generation(), canon.hash,
              std::move(canon.bytes), source, target};
  // The expensive build (annotate + trim + queue construction) runs
  // outside both the engine and the cache lock: misses on different
  // keys proceed in parallel, all against the same frozen snapshot;
  // misses on the SAME key build once (single-flight).
  std::shared_ptr<const PreparedQuery> prepared = cache_.GetOrBuild(
      key, [&snap, &query, source, target, &opts] {
        return std::make_shared<const PreparedQuery>(snap, query, source,
                                                     target, opts);
      });
  BumpTier(prepared->tier);
  std::lock_guard<std::mutex> lock(mu_);
  return RegisterLocked(std::move(prepared));
}

void QueryEngine::BumpTier(ExecTier tier) {
  (tier == ExecTier::kSingleWord ? tier_single_word_ : tier_general_)
      .fetch_add(1, std::memory_order_relaxed);
}

std::vector<QueryId> QueryEngine::PrepareBatch(
    const Nfa& query, const std::vector<uint32_t>& sources, uint32_t target,
    const AnnotateOptions& opts) {
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    assert(static_cast<bool>(snapshot_) &&
           "PrepareBatch: no snapshot installed");
    snap = snapshot_;
  }
  CanonicalAutomaton canon = CanonicalizeAutomaton(query);
  // Tier depends only on (snapshot, query), not the source: classify
  // once for the whole batch.
  const ExecTier tier = ClassifyQuery(snap, query).tier;
  std::vector<PlanKey> keys;
  keys.reserve(sources.size());
  for (uint32_t s : sources)
    keys.push_back(PlanKey{&snap.db(), snap.generation(), canon.hash,
                           canon.bytes, s, target});
  // All claimed (absent) sources share ONE block-replicated product BFS;
  // each slice is bit-identical to a per-source Annotate, so cache
  // entries filled here and by single Prepare() are interchangeable.
  std::vector<PlanCache::Value> values = cache_.GetOrBuildBatch(
      keys, [&snap, &query, &sources, target, &opts,
             tier](const std::vector<size_t>& idx) {
        std::vector<uint32_t> batch_sources;
        batch_sources.reserve(idx.size());
        for (size_t i : idx) batch_sources.push_back(sources[i]);
        MultiSourceAnnotation ms =
            AnnotateMultiSource(snap, query, batch_sources, target, opts);
        std::vector<PlanCache::Value> built;
        built.reserve(idx.size());
        for (size_t j = 0; j < idx.size(); ++j)
          built.push_back(std::make_shared<const PreparedQuery>(
              snap, ms.Slice(j), opts, tier));
        return built;
      });
  std::vector<QueryId> ids;
  ids.reserve(values.size());
  for (const PlanCache::Value& v : values) BumpTier(v->tier);
  std::lock_guard<std::mutex> lock(mu_);
  for (PlanCache::Value& v : values) ids.push_back(RegisterLocked(std::move(v)));
  return ids;
}

PrepareRegexResult QueryEngine::PrepareRegex(std::string_view pattern,
                                             LabelDictionary* dict,
                                             uint32_t source, uint32_t target,
                                             const AnnotateOptions& opts) {
  PrepareRegexResult result;
  RegexParseResult parsed = ParseRegex(pattern);
  if (!parsed.ok()) {
    result.error = parsed.error();
    return result;
  }
  CompiledRegex compiled = CompileRegex(*parsed.value(), dict);
  result.frontend = compiled.frontend;
  (compiled.frontend == Frontend::kThompson ? frontend_thompson_
                                            : frontend_glushkov_)
      .fetch_add(1, std::memory_order_relaxed);
  result.id = Prepare(compiled.nfa, source, target, opts);
  result.ok = true;
  return result;
}

SessionId QueryEngine::OpenSession(QueryId query) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(query < queries_.size() && "OpenSession: unknown query");
  Session s;
  s.query = queries_[query];
  sessions_.push_back(std::move(s));
  return static_cast<SessionId>(sessions_.size() - 1);
}

std::future<PumpResult> QueryEngine::PumpAsync(SessionId session,
                                               uint32_t max_answers) {
  std::promise<PumpResult> promise;
  std::future<PumpResult> future = promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    assert(session < sessions_.size() && "PumpAsync: unknown session");
    Session& s = sessions_[session];
    switch (s.state) {
      case SessionState::kQueued:
        promise.set_value(PumpResult{PumpStatus::kBusy, {}});
        return future;
      case SessionState::kExhausted:
        promise.set_value(PumpResult{PumpStatus::kExhausted, {}});
        return future;
      case SessionState::kRetired:
        promise.set_value(PumpResult{PumpStatus::kRetired, {}});
        return future;
      case SessionState::kParked:
        break;
    }
    s.state = SessionState::kQueued;
    queue_.push_back(Job{session, std::max(max_answers, 1u),
                         std::move(promise),
                         std::chrono::steady_clock::now()});
  }
  cv_.notify_one();
  return future;
}

PumpResult QueryEngine::Pump(SessionId session, uint32_t max_answers) {
  return PumpAsync(session, max_answers).get();
}

PumpResult QueryEngine::Drain(SessionId session, uint32_t batch) {
  PumpResult all;
  for (;;) {
    PumpResult r = Pump(session, batch);
    if (r.status == PumpStatus::kBusy) {
      // Another pump owns the session right now (its batch goes to that
      // caller). Returning here would hand back partially-accumulated
      // walks under a kBusy status — a silently dropped tail. The
      // session parks or exhausts eventually; retry until it does.
      std::this_thread::yield();
      continue;
    }
    all.status = r.status;
    all.walks.insert(all.walks.end(),
                     std::make_move_iterator(r.walks.begin()),
                     std::make_move_iterator(r.walks.end()));
    if (r.status != PumpStatus::kOk) return all;
  }
}

std::vector<int64_t> QueryEngine::FirstAnswerLatenciesNs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_answer_ns_;
}

EngineStats QueryEngine::Stats() const {
  EngineStats stats;
  stats.plan_cache = cache_.Stats();
  stats.worker_cache_evictions =
      worker_cache_evictions_.load(std::memory_order_relaxed);
  stats.frontend_thompson =
      frontend_thompson_.load(std::memory_order_relaxed);
  stats.frontend_glushkov =
      frontend_glushkov_.load(std::memory_order_relaxed);
  stats.tier_single_word =
      tier_single_word_.load(std::memory_order_relaxed);
  stats.tier_general = tier_general_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  stats.sessions_retired = sessions_retired_;
  stats.plans_upgraded = plans_upgraded_;
  stats.sessions_upgraded = sessions_upgraded_;
  return stats;
}

PumpResult QueryEngine::RunBatch(
    WorkerCache& cache, const std::shared_ptr<const PreparedQuery>& query,
    const Walk& last, bool started, uint32_t max_answers,
    std::chrono::steady_clock::time_point enqueued,
    int64_t* first_answer_ns) {
  PumpResult result;
  *first_answer_ns = -1;
  ResumableEnumerator& en = cache.Get(query);
  if (!started) {
    en.Rewind();
  } else if (!en.SeekAfter(last)) {
    // last was emitted by this very pipeline, so SeekAfter can only
    // reject it if the session state was corrupted externally.
    assert(false && "RunBatch: parked walk is not an answer");
    result.status = PumpStatus::kExhausted;
    return result;
  }
  if (en.Valid())
    *first_answer_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - enqueued)
                           .count();
  while (en.Valid() && result.walks.size() < max_answers) {
    result.walks.push_back(en.walk());
    if (result.walks.size() < max_answers) en.Next();
  }
  // The batch parks ON its last answer (Next() is deferred to the next
  // pump's SeekAfter), so kOk promises nothing about further answers —
  // only that enumeration has not provably ended.
  result.status = en.Valid() && !result.walks.empty() ? PumpStatus::kOk
                                                      : PumpStatus::kExhausted;
  return result;
}

void QueryEngine::WorkerLoop() {
  WorkerCache cache(worker_cache_entries_, &worker_cache_evictions_);
  for (;;) {
    Job job;
    std::shared_ptr<const PreparedQuery> query;
    Walk last;
    bool started = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;  // ~QueryEngine fails whatever is still queued
      job = std::move(queue_.front());
      queue_.pop_front();

      Session& s = sessions_[job.session];
      const Snapshot& pinned = s.query->index.snapshot();
      if (&pinned.db() != installed_db_ ||
          pinned.generation() != installed_gen_) {
        // Graceful rejection: the stale index is never touched.
        s.state = SessionState::kRetired;
        ++sessions_retired_;
        const Database* live_db = installed_db_;
        uint64_t live_gen = installed_gen_;
        lock.unlock();
        cache.EvictOtherGenerations(live_db, live_gen);
        job.promise.set_value(PumpResult{PumpStatus::kRetired, {}});
        continue;
      }
      query = s.query;
      last = s.last;
      started = s.started;
    }

    int64_t first_ns = -1;
    PumpResult result = RunBatch(cache, query, last, started,
                                 job.max_answers, job.enqueued, &first_ns);

    {
      std::lock_guard<std::mutex> lock(mu_);
      Session& s = sessions_[job.session];
      if (!result.walks.empty()) {
        s.last = result.walks.back();
        s.started = true;
      }
      s.state = result.status == PumpStatus::kOk ? SessionState::kParked
                                                 : SessionState::kExhausted;
      if (first_ns >= 0) first_answer_ns_.push_back(first_ns);
    }
    job.promise.set_value(std::move(result));
  }
}

}  // namespace dsw
