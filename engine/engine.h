// Concurrent query engine over immutable snapshots.
//
// The single-writer/many-reader split of core/database.h made the whole
// read path (Annotation, TrimmedIndex, ResumableIndex, the enumerators)
// free of lazy work; this engine is the scheduling layer on top:
//
//  - InstallSnapshot() publishes the Snapshot queries run against; the
//    control thread owns mutation and freezing, workers only ever see
//    sealed snapshots, so the graph may keep growing while they run.
//  - Prepare() returns a QueryId: a handle on an entry of the plan table
//    (engine/plan_cache.h), the engine's one table of plans, keyed by
//    (canonical automaton, source, target). Repeated shapes hit the
//    entry's plan (Annotation + ResumableIndex) with zero annotate/trim
//    work; misses build once — concurrent misses on one key build once
//    total (single-flight) — and the plan is shared (read-only) by every
//    session and worker. ReleaseQuery() frees the handle.
//  - PrepareRegex() goes in at the source level: parse, canonicalize
//    (regex/canonical.h), pick Thompson vs Glushkov per query from the
//    E9 size heuristic (automaton/frontend.h), then Prepare — so
//    textually different but equivalent patterns hit one entry.
//  - OpenSession()/Pump() run enumeration in batches on the worker
//    pool; CloseSession() frees a session. A session is a *parked
//    memoryless cursor*: between pumps the engine stores only (QueryId,
//    last answer) — Theorem 18's SeekAfter recomputes the position from
//    the last answer alone, so a session can resume on ANY worker
//    thread, and on whatever plan its QueryId's entry holds by then.
//  - A pump retires its session — PumpStatus::kRetired instead of
//    answers from a generation the engine no longer serves — when its
//    QueryId is unknown or released or names an entry an install
//    detached, or when the session has emitted answers and an upgrade
//    shortened lambda since, so that its last answer anchors nothing in
//    the new order. Stale ids are ordinary input: a pump on an unknown
//    or closed session returns kRetired too.
//  - Stats() exposes the plan-table and scheduling counters (hits,
//    misses, evictions, single-flight waits, session retirements,
//    front-end choices, open handles) for tests and benchmarks.
//
// Each worker keeps one ResumableEnumerator and Reset()s it onto the
// plan of every job it runs: a fresh session Rewind()s, a parked one
// SeekAfter()s. Sessions are memoryless, so a pump rebuilds the whole
// cursor either way and nothing of one job's plan is worth keeping for
// the next; the worker holds a job's plan only while the job runs, so
// no worker keeps a plan, or the snapshot it pins, alive past an
// install.
//
// Thread-safety: every public method is safe to call from any thread.
// Prepare, PrepareRegex, OpenSession and Pump read only sealed
// snapshots, so one control thread may call AddVertex/AddVertices,
// AddEdge by label id and Freeze() while they run, as long as no other
// thread makes any of these calls; InstallSnapshot calls serialize
// among themselves, and may come from any thread while no thread
// mutates the database. PrepareRegex
// interns into the dictionary it is given under an engine lock, so
// nothing else may intern into that dictionary (AddEdge by label name,
// LabelDictionary::Intern) while a PrepareRegex runs.
//
// Memory outside the plan-cache budget: a plan is built on the thread
// whose Prepare missed and repaired on the installing thread or a
// worker, and a replaced plan is freed on a worker. Each plan pins its
// snapshot's LabelIndex, and the engine keeps one reverse CSR, the last
// one it derived, which may be of an older generation than the
// installed one; the generations alive together share every adjacency
// page the writes between them did not touch, so an old plan or context
// costs its own structures plus the pages that changed since, not a
// copy of the graph. An install hands every plan it replaced or
// detached to the free job, and a handle on a detached entry keeps no
// plan, so an old plan outlives its install only until the pumps
// running it and the free job are done. Only the threads that build
// plans (Prepare callers and the installing thread) keep the product
// BFS's scratch (core/annotate.h) for their lifetime: V x (8
// ceil(|Q|/64) + 4) bytes at the largest graph and query each has
// annotated. A worker frees it once it has helped an install. Each
// worker keeps its enumerator's frames: (lambda + 1) x ceil(|Q|/64)
// words at the largest query it has run. plan_cache_bytes counts
// neither.

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
#include "core/database.h"
#include "core/nfa.h"
#include "core/resumable_index.h"
#include "core/walk.h"
#include "engine/plan_cache.h"

namespace dsw {

class DeltaContext;         // core/delta_annotate.h
class ResumableEnumerator;  // core/resumable_enumerator.h

/// Handle on an open session (a SlotTable id, never 0).
using SessionId = uint64_t;

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
  /// Each worker keeps one enumerator and re-points it at every job's
  /// plan; a constant, not a setting.
  static constexpr uint32_t worker_cache_entries = 1;
  /// InstallSnapshot always repairs the plan table across an insert-only
  /// delta (core/delta_annotate.h); a constant, not a setting.
  static constexpr bool incremental_install = true;
};

/// Observability counters; a consistent point-in-time copy via Stats().
struct EngineStats {
  PlanCacheStats plan_cache;
  uint64_t sessions_retired = 0;        // sessions a pump retired
  uint64_t plans_upgraded = 0;          // = plan_cache.upgrades
  // Pumps that resumed a parked walk on a plan upgraded since the
  // session's previous pump; a session never pumped again counts nothing.
  uint64_t sessions_upgraded = 0;
  uint64_t worker_cache_evictions = 0;  // always 0: workers cache nothing
  uint64_t frontend_thompson = 0;       // PrepareRegex picks, per front-end
  uint64_t frontend_glushkov = 0;
  // Execution tier of each resolved Prepare plan (the kernels its
  // annotation runs: single-word iff Annotation::words_per_set() == 1)
  // — cache hits count too, so the two sum to the number of plans
  // handed out, not the number built.
  uint64_t tier_single_word = 0;
  uint64_t tier_general = 0;
  size_t open_queries = 0;   // QueryIds issued and not released
  size_t open_sessions = 0;  // SessionIds opened and not closed
};

/// Status-or result of PrepareRegex.
struct PrepareRegexResult {
  bool ok = false;
  QueryId id = kNoQuery;
  Frontend frontend = Frontend::kThompson;
  std::string error;  // parse failure or no snapshot; set iff !ok
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

  /// Publishes the snapshot subsequent Prepare() calls build against and
  /// returns true. Installing the installed (db, generation) again
  /// changes nothing; a null snapshot changes nothing and returns false.
  ///
  /// When the new snapshot is a later generation of the SAME database
  /// and its delta against the installed one is a known insert-only
  /// suffix (Snapshot::DeltaFrom), every plan in the plan table is
  /// *upgraded* — annotation repaired by the resumed product BFS,
  /// trimmed structure (B-lists and seek ranks) patched — while pumps
  /// keep running on the old plans. The repairs run on the calling
  /// (control) thread and on the workers at once: one helper job per
  /// worker joins them, queued behind the pending pumps, so a busy pool
  /// leaves most of them to the caller. The table then publishes the
  /// snapshot and the repaired plans at once (engine/plan_cache.h),
  /// touching no session or handle, and the replaced plans and any
  /// replaced reverse CSR go to the workers as one job, queued behind
  /// the pending pumps, so the calling thread frees none of them. If a
  /// repair throws, the install rethrows it and publishes nothing. A
  /// parked session resumes on the upgraded plan while lambda is
  /// unchanged: old answers keep their relative order, so one SeekAfter
  /// on the parked walk resumes the correct suffix of the NEW answer
  /// order. Once an upgrade shortened
  /// lambda, a session that has emitted answers retires at its next
  /// pump, while new sessions enumerate the new order. Sessions on an
  /// entry left without a plan of the new snapshot (unrepairable, or any
  /// entry when the snapshot is of another database, or a snapshot older
  /// than the installed one) retire at their next pump. The reverse CSR
  /// the repairs share (DeltaContext) is derived only when a trim first
  /// reads in-neighbors, at most once per install, from the last context
  /// the engine derived, of any earlier generation of the database: it
  /// shares every page the writes since did not touch, as the
  /// snapshot's LabelIndex does, so an install costs the write rather
  /// than a pass over every vertex and edge. An install whose trims
  /// never read in-neighbors derives nothing and keeps the older
  /// context.
  /// Overlapping calls, from any threads, take turns: each holds one
  /// install lock from start to end.
  bool InstallSnapshot(Snapshot snap);

  /// Returns a handle on the plan of (query, source, target) against the
  /// installed snapshot: a warm hit shares the entry's plan with no
  /// annotate/trim work; a miss builds once on the calling thread
  /// (concurrent misses on the same key wait for the one build). With no
  /// snapshot installed, returns kNoQuery, on which sessions retire.
  QueryId Prepare(const Nfa& query, uint32_t source, uint32_t target);

  /// Source-level Prepare: parses \p pattern, canonicalizes, picks the
  /// front-end per the E9 size heuristic (recorded in Stats()), and
  /// resolves through the plan table. Labels are interned via \p dict —
  /// normally the engine database's mutable_dict(); interning does not
  /// perturb the adjacency or the generation, and concurrent calls
  /// take turns at it. Parse failures and a missing snapshot are
  /// reported in the result, not thrown.
  PrepareRegexResult PrepareRegex(std::string_view pattern,
                                  LabelDictionary* dict, uint32_t source,
                                  uint32_t target);

  /// Frees \p query. Its sessions retire at their next pump; an entry no
  /// handle names stays cached only within the plan-cache byte budget.
  /// An unknown or released id is ignored.
  void ReleaseQuery(QueryId query);

  /// Opens a parked cursor over a prepared query. Cheap; many sessions
  /// may share one prepared query. On an unknown or released \p query,
  /// the session's first pump returns kRetired.
  SessionId OpenSession(QueryId query);

  /// Frees \p session; a pump already in flight still delivers its
  /// batch. An unknown or closed id is ignored.
  void CloseSession(SessionId session);

  /// Schedules up to \p max_answers further answers for \p session on
  /// the worker pool. At most one pump per session may be in flight
  /// (kBusy otherwise); an unknown or closed session gets kRetired. The
  /// future's PumpResult holds the batch; the session re-parks on its
  /// last answer when the batch fills.
  std::future<PumpResult> PumpAsync(SessionId session, uint32_t max_answers);

  /// Blocking convenience wrapper around PumpAsync.
  PumpResult Pump(SessionId session, uint32_t max_answers);

  /// Pumps \p session in batches of \p batch until exhausted (or
  /// retired); returns everything collected with the final status.
  PumpResult Drain(SessionId session, uint32_t batch = 64);

  /// The plan \p query names now, which is of the installed snapshot;
  /// null for an unknown or released id, or one an install detached.
  std::shared_ptr<const PreparedQuery> Plan(QueryId query) const;

  /// Nanoseconds from pump enqueue to the batch's first answer being
  /// available, one sample per non-empty batch — the engine's
  /// first-answer latency distribution (p99 is the bench headline).
  std::vector<int64_t> FirstAnswerLatenciesNs() const;

  /// Point-in-time observability snapshot (plan cache + scheduling).
  EngineStats Stats() const;

 private:
  enum class SessionState : uint8_t { kParked, kQueued, kExhausted, kRetired };

  // A cursor over its QueryId: each pump runs on the plan its entry holds
  // then, so an install that upgrades the entry moves every session on it.
  struct Session {
    QueryId query = kNoQuery;
    Walk last{};                // the parked cursor: last emitted answer
    bool started = false;       // false until the first batch ran
    SessionState state = SessionState::kParked;
    uint64_t generation = 0;    // of the plan its last pump ran on
  };

  // What an install replaced: its plans, and the reverse CSR it
  // replaced or dropped, if any.
  struct Replaced {
    std::vector<PlanCache::Value> plans;
    std::unique_ptr<const DeltaContext> context;
  };

  // A pump; or, when repairs is set, a worker's share of an install's
  // plan repairs; or, when replaced is set, what an install replaced,
  // which the worker frees.
  struct Job {
    SessionId session = 0;
    uint32_t max_answers = 0;
    std::promise<PumpResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::shared_ptr<PlanRepairs> repairs;
    std::unique_ptr<Replaced> replaced;
  };

  // Queues what an install replaced as one job behind the pumps and
  // repair helpers already queued, so the installing thread frees none
  // of it; nothing is queued when there is nothing to free.
  void FreeOnWorker(std::vector<PlanCache::Value> plans,
                    std::unique_ptr<const DeltaContext> context);

  void WorkerLoop();
  // Runs one batch against the prepared query on the worker's
  // enumerator \p en, entirely outside the engine lock (the prepared
  // structures are read-only). Writes the enqueue-to-first-answer
  // latency into *first_answer_ns (-1 when the batch produced nothing).
  PumpResult RunBatch(ResumableEnumerator& en, const PreparedQuery& query,
                      const Walk& last, bool started, uint32_t max_answers,
                      std::chrono::steady_clock::time_point enqueued,
                      int64_t* first_answer_ns);

  // Guards the queue and the sessions. A worker resolves a session's
  // plan through cache_, whose own lock it takes inside mu_ (never the
  // reverse).
  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Serializes CompileRegex, which interns into the caller's
  // LabelDictionary; the dictionary has no lock of its own.
  std::mutex compile_mu_;
  bool stop_ = false;
  std::deque<Job> queue_;
  SlotTable<Session> sessions_;
  std::vector<int64_t> first_answer_ns_;
  uint64_t sessions_retired_ = 0;   // guarded by mu_
  uint64_t sessions_upgraded_ = 0;  // guarded by mu_

  // Serializes InstallSnapshot, which holds it for the whole call.
  std::mutex install_mu_;
  // The plan table, the QueryIds and the installed snapshot.
  PlanCache cache_;
  // Null or the last reverse CSR an install derived, of the installed
  // database at the installed or an earlier generation, kept so that
  // the next install that needs one derives it instead of building it
  // from empty. Only InstallSnapshot touches it, under install_mu_.
  std::unique_ptr<const DeltaContext> context_;

  // Lock-free counters: bumped outside mu_ (workers, PrepareRegex).
  std::atomic<uint64_t> frontend_thompson_{0};
  std::atomic<uint64_t> frontend_glushkov_{0};
  std::atomic<uint64_t> tier_single_word_{0};
  std::atomic<uint64_t> tier_general_{0};

  std::vector<std::thread> workers_;
};

}  // namespace dsw

#endif  // DSW_ENGINE_ENGINE_H_
