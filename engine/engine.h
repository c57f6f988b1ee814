// Concurrent query engine over immutable snapshots.
//
// The single-writer/many-reader split of core/database.h made the whole
// read path (Annotation, TrimmedIndex, ResumableIndex, the enumerators)
// free of lazy work; this engine is the scheduling layer on top:
//
//  - InstallSnapshot() publishes the Snapshot queries run against; the
//    control thread owns mutation and freezing, workers only ever see
//    sealed snapshots. Installing also invalidates the plan cache's
//    entries from older generations.
//  - Prepare() resolves a query's prepared structure (Annotation +
//    ResumableIndex) through the shared PlanCache (engine/plan_cache.h):
//    repeated (automaton, source, target) shapes hit the cached
//    structure with zero annotate/trim work; misses build once —
//    concurrent misses on one key build once total (single-flight) —
//    and the result is shared (read-only) by every session and worker.
//  - PrepareBatch() prepares one query from MANY sources via a single
//    block-replicated multi-source product BFS (AnnotateMultiSource),
//    so the per-source plans share one annotate run's work.
//  - PrepareRegex() goes in at the source level: parse, canonicalize
//    (regex/canonical.h), pick Thompson vs Glushkov per query from the
//    E9 size heuristic (automaton/frontend.h), then Prepare — so
//    textually different but equivalent patterns hit one cache entry.
//  - OpenSession()/Pump() run enumeration in batches on the worker
//    pool. A session is a *parked memoryless cursor*: between pumps the
//    engine stores only (prepared query, last answer) — Theorem 18's
//    SeekAfter recomputes the position from the last answer alone, so a
//    session can resume on ANY worker thread, not just the one that
//    produced the previous batch.
//  - Installing a new snapshot retires the sessions (and prepared
//    queries) pinned to an older generation: their next pump returns
//    PumpStatus::kRetired without touching the stale index — the loud
//    generation assert stays as the misuse backstop, the engine's
//    version check is the graceful path.
//  - Stats() exposes the cache and scheduling counters (hits, misses,
//    evictions, single-flight waits, session retirements, front-end
//    choices) for tests and benchmarks to assert on.
//
// Workers keep a small per-thread LRU cache of ResumableEnumerators
// keyed by prepared query (EngineOptions::worker_cache_entries), so
// steady-state pumping over the hot query set allocates nothing: a
// fresh session Rewind()s the cached enumerator, a parked one
// SeekAfter()s. Sessions are memoryless, so an evicted enumerator costs
// only a rebuild on the next pump, never a wrong resume.
//
// Thread-safety: every public method is safe to call from any thread.
// The Database itself must only be mutated while no Prepare/Pump runs
// against its current snapshot (mutate, Freeze(), InstallSnapshot() is
// the intended sequence, all on the control thread).

#ifndef DSW_ENGINE_ENGINE_H_
#define DSW_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "automaton/frontend.h"
#include "core/annotate.h"
#include "core/database.h"
#include "core/nfa.h"
#include "core/resumable_index.h"
#include "core/walk.h"
#include "engine/plan_cache.h"

namespace dsw {

using QueryId = uint32_t;
using SessionId = uint32_t;

enum class PumpStatus : uint8_t {
  kOk,         // batch filled; more answers may remain
  kExhausted,  // enumeration complete (this batch may still hold walks)
  kRetired,    // pinned to a retired snapshot generation; no walks
  kBusy,       // a pump for this session is already in flight
};

struct PumpResult {
  PumpStatus status = PumpStatus::kOk;
  std::vector<Walk> walks;
};

struct EngineOptions {
  uint32_t num_threads = 1;
  /// Plan cache byte budget (approximate, PreparedQuery::ApproxBytes).
  /// 0 disables cross-query caching: every Prepare builds from scratch
  /// — the benchmark's cold arm.
  size_t plan_cache_bytes = size_t{64} << 20;
  /// Per-worker enumerator LRU capacity (clamped to >= 1). Bounds the
  /// per-thread memory across distinct prepared queries; evicted
  /// enumerators are rebuilt on demand (sessions are memoryless).
  uint32_t worker_cache_entries = 8;
  /// When true (the default), InstallSnapshot upgrades same-database
  /// plan-cache entries across an insert-only delta by delta repair
  /// (core/delta_annotate.h) instead of dropping them, and parked
  /// sessions whose enumeration order survived (lambda unchanged)
  /// resume via SeekAfter rather than being retired. False restores the
  /// drop-everything behavior — the bench's comparison arm and the
  /// kill-switch if a repair bug is ever suspected in production.
  bool incremental_install = true;
};

/// Observability counters; a consistent point-in-time copy via Stats().
struct EngineStats {
  PlanCacheStats plan_cache;
  uint64_t sessions_retired = 0;        // pumps rejected on stale snapshots
  uint64_t plans_upgraded = 0;          // plans delta-repaired at install
  uint64_t sessions_upgraded = 0;       // parked sessions that survived one
  uint64_t worker_cache_evictions = 0;  // enumerators dropped by the LRU cap
  uint64_t frontend_thompson = 0;       // PrepareRegex picks, per front-end
  uint64_t frontend_glushkov = 0;
  // Execution tier of each resolved Prepare/PrepareBatch plan
  // (core/query_traits.h) — cache hits count too, so the two sum to
  // the number of plans handed out, not the number built.
  uint64_t tier_single_word = 0;
  uint64_t tier_general = 0;
};

/// Status-or result of PrepareRegex.
struct PrepareRegexResult {
  bool ok = false;
  QueryId id = 0;
  Frontend frontend = Frontend::kThompson;
  std::string error;  // parse failure; set iff !ok
};

class QueryEngine {
 public:
  explicit QueryEngine(const EngineOptions& options);
  /// Starts \p num_threads workers (>= 1 enforced); defaults otherwise.
  explicit QueryEngine(uint32_t num_threads)
      : QueryEngine(EngineOptions{.num_threads = num_threads}) {}
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Publishes the snapshot subsequent Prepare() calls build against,
  /// and invalidates plan cache entries of any other (db, generation).
  /// Sessions and prepared queries of any older install are retired:
  /// their next pump returns PumpStatus::kRetired.
  ///
  /// Incremental path (EngineOptions::incremental_install): when the new
  /// snapshot is a later generation of the SAME database and its delta
  /// against the previous install is a known insert-only suffix
  /// (Snapshot::DeltaFrom), the previous generation's plan-cache entries
  /// are *upgraded* — annotation repaired by the bounded re-relaxation
  /// wave, trimmed/B-list structure patched, rank arrays rebuilt — and
  /// re-inserted under the new generation's keys instead of dropped.
  /// Prepared queries and sessions are re-pointed at the upgraded plans;
  /// a parked session survives when its plan's enumeration order is an
  /// anchor across the delta (lambda unchanged: old answers keep their
  /// relative order, so one SeekAfter on the parked walk resumes the
  /// correct suffix of the NEW answer order). Plans whose lambda shrank
  /// still upgrade — new sessions enumerate the new order — but their
  /// parked sessions retire lazily as before. Repairs run on the calling
  /// (control) thread.
  void InstallSnapshot(Snapshot snap);

  /// Resolves the prepared structure for (query, source, target)
  /// against the installed snapshot through the plan cache: a warm hit
  /// returns the shared structure with no annotate/trim work; a miss
  /// builds once on the calling thread (concurrent misses on the same
  /// key wait for the one build). Requires a snapshot to be installed.
  /// \p opts opts a cold build into the sharded preprocessing path
  /// (AnnotateOptions::num_shards > 1); the index is identical either
  /// way, so cached entries are shared across opts values.
  QueryId Prepare(const Nfa& query, uint32_t source, uint32_t target,
                  const AnnotateOptions& opts = {});

  /// Prepares (query, s, target) for every s in \p sources. Cached
  /// sources hit; all missing sources are built by ONE block-replicated
  /// multi-source product BFS (core/annotate.h AnnotateMultiSource) and
  /// sliced into per-source prepared structures bit-identical to what
  /// per-source Prepare would build. Returns one QueryId per source, in
  /// order (duplicates allowed; they share the cache entry).
  std::vector<QueryId> PrepareBatch(const Nfa& query,
                                    const std::vector<uint32_t>& sources,
                                    uint32_t target,
                                    const AnnotateOptions& opts = {});

  /// Source-level Prepare: parses \p pattern, canonicalizes, picks the
  /// front-end per the E9 size heuristic (recorded in Stats()), and
  /// resolves through the cache. Labels are interned via \p dict —
  /// normally the engine database's mutable_dict(); interning does not
  /// perturb the adjacency or the generation. Parse failures are
  /// reported in the result, not thrown.
  PrepareRegexResult PrepareRegex(std::string_view pattern,
                                  LabelDictionary* dict, uint32_t source,
                                  uint32_t target,
                                  const AnnotateOptions& opts = {});

  /// Opens a parked cursor over a prepared query. Cheap; many sessions
  /// may share one prepared query.
  SessionId OpenSession(QueryId query);

  /// Schedules up to \p max_answers further answers for \p session on
  /// the worker pool. At most one pump per session may be in flight
  /// (kBusy otherwise). The future's PumpResult holds the batch; the
  /// session re-parks on its last answer when the batch fills.
  std::future<PumpResult> PumpAsync(SessionId session, uint32_t max_answers);

  /// Blocking convenience wrapper around PumpAsync.
  PumpResult Pump(SessionId session, uint32_t max_answers);

  /// Pumps \p session in batches of \p batch until exhausted (or
  /// retired); returns everything collected with the final status.
  PumpResult Drain(SessionId session, uint32_t batch = 64);

  /// Nanoseconds from pump enqueue to the batch's first answer being
  /// available, one sample per non-empty batch — the engine's
  /// first-answer latency distribution (p99 is the bench headline).
  std::vector<int64_t> FirstAnswerLatenciesNs() const;

  /// Point-in-time observability snapshot (plan cache + scheduling).
  EngineStats Stats() const;

  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size());
  }

 private:
  enum class SessionState : uint8_t { kParked, kQueued, kExhausted, kRetired };

  struct Session {
    std::shared_ptr<const PreparedQuery> query;
    Walk last;                  // the parked cursor: last emitted answer
    bool started = false;       // false until the first batch ran
    SessionState state = SessionState::kParked;
  };

  struct Job {
    SessionId session = 0;
    uint32_t max_answers = 0;
    std::promise<PumpResult> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  // Per-worker bounded enumerator LRU (defined in engine.cc): one
  // ResumableEnumerator per hot prepared query per worker, reused
  // across batches so steady-state pumping performs no allocation.
  struct WorkerCache;

  // Registers a cache-resolved prepared query in the session-facing
  // query table; returns its QueryId.
  QueryId RegisterLocked(std::shared_ptr<const PreparedQuery> prepared);

  void WorkerLoop();
  // Runs one batch against the prepared query, entirely outside the
  // engine lock (the prepared structures are read-only). Writes the
  // enqueue-to-first-answer latency into *first_answer_ns (-1 when the
  // batch produced nothing).
  PumpResult RunBatch(WorkerCache& cache,
                      const std::shared_ptr<const PreparedQuery>& query,
                      const Walk& last, bool started, uint32_t max_answers,
                      std::chrono::steady_clock::time_point enqueued,
                      int64_t* first_answer_ns);

  const uint32_t worker_cache_entries_;
  const bool incremental_install_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::deque<Job> queue_;

  // The installed snapshot and its identity; (db, generation) pairs are
  // compared so generations of different Database objects never alias.
  Snapshot snapshot_;
  const Database* installed_db_ = nullptr;
  uint64_t installed_gen_ = 0;

  std::vector<std::shared_ptr<const PreparedQuery>> queries_;
  std::vector<Session> sessions_;
  std::vector<int64_t> first_answer_ns_;
  uint64_t sessions_retired_ = 0;   // guarded by mu_
  uint64_t plans_upgraded_ = 0;     // guarded by mu_
  uint64_t sessions_upgraded_ = 0;  // guarded by mu_

  // Own lock discipline: never held together with mu_ (Prepare resolves
  // through the cache before taking mu_; InstallSnapshot invalidates
  // after releasing it).
  PlanCache cache_;

  // Lock-free counters: bumped outside mu_ (workers, PrepareRegex).
  std::atomic<uint64_t> worker_cache_evictions_{0};
  std::atomic<uint64_t> frontend_thompson_{0};
  std::atomic<uint64_t> frontend_glushkov_{0};
  std::atomic<uint64_t> tier_single_word_{0};
  std::atomic<uint64_t> tier_general_{0};

  void BumpTier(ExecTier tier);

  std::vector<std::thread> workers_;
};

}  // namespace dsw

#endif  // DSW_ENGINE_ENGINE_H_
