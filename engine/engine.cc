#include "engine/engine.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <mutex>
#include <utility>

#include "automaton/canonical_hash.h"
#include "core/delta_annotate.h"
#include "core/resumable_enumerator.h"
#include "regex/regex_parser.h"

namespace dsw {

QueryEngine::QueryEngine(const EngineOptions& options)
    : cache_(options.plan_cache_bytes) {
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

// One plan run through the delta-repair pipeline, or null when the plan
// is dropped: unrepairable, because the old annotation was
// unreachable and carries no levels to repair — and the inserts may well
// have made it reachable, so a fresh build on the next Prepare miss is
// also the semantically required outcome.
std::shared_ptr<const PreparedQuery> RepairPlan(
    const Snapshot& snap, const EdgeDelta& delta,
    const std::function<const DeltaContext&()>& context,
    const PreparedQuery& old) {
  Annotation ann = old.ann;
  AnnotationRepair rep = DeltaAnnotate(snap, delta, &ann);
  if (!rep.ok) return nullptr;
  TrimmedIndex trimmed =
      DeltaTrim(snap, ann, old.index.trimmed(), rep, delta, context);
  return std::make_shared<const PreparedQuery>(snap, std::move(ann),
                                               std::move(trimmed));
}

}  // namespace

bool QueryEngine::InstallSnapshot(Snapshot snap) {
  if (!snap) return false;
  // One install at a time: each reads the installed snapshot and
  // context_ at its start and replaces both at its end.
  std::lock_guard<std::mutex> install_lock(install_mu_);
  const Snapshot prev = cache_.installed();
  const bool same_db = prev && &prev.db() == &snap.db();
  if (same_db && prev.generation() == snap.generation()) return true;
  const EdgeDelta delta =
      same_db ? snap.DeltaFrom(prev.generation()) : EdgeDelta{};
  if (!delta.known) {  // nothing to repair from: detach every entry
    FreeOnWorker(cache_.Install(std::move(snap), nullptr),
                 std::move(context_));
    return true;
  }
  // One reverse CSR serves every repair, derived at most once and only
  // when a trim first reads in-neighbors: from the last context the
  // engine derived, of any earlier generation of this database, or from
  // empty when it holds none — the first such install after a full one.
  std::once_flag derive_once;
  std::unique_ptr<const DeltaContext> derived;
  const std::function<const DeltaContext&()> context =
      [&]() -> const DeltaContext& {
    std::call_once(derive_once, [&] {
      derived = context_ ? std::make_unique<const DeltaContext>(snap, *context_)
                         : std::make_unique<const DeltaContext>(snap);
    });
    return *derived;
  };
  const PlanCache::Upgrade repair = [&](std::vector<PlanCache::Value>& plans) {
    if (plans.empty()) return;
    auto repairs = std::make_shared<PlanRepairs>(plans.size(), [&](size_t i) {
      plans[i] = RepairPlan(snap, delta, context, *plans[i]);
    });
    // One helper job per worker, behind the pumps already queued; the
    // repairs need at most one fewer than there are plans.
    const size_t helpers = std::min(workers_.size(), plans.size() - 1);
    if (helpers > 0) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (size_t i = 0; i < helpers; ++i)
          queue_.push_back(Job{0, 0, {}, {}, repairs, nullptr});
      }
      cv_.notify_all();
    }
    repairs->Run();
    repairs->Finish();
  };
  std::vector<PlanCache::Value> replaced = cache_.Install(snap, repair);
  // Only once snap is installed; an install that derived nothing keeps
  // the older context, a valid base for every later install.
  if (derived != nullptr) std::swap(context_, derived);
  FreeOnWorker(std::move(replaced), std::move(derived));
  return true;
}

void QueryEngine::FreeOnWorker(std::vector<PlanCache::Value> plans,
                               std::unique_ptr<const DeltaContext> context) {
  if (plans.empty() && context == nullptr) return;
  auto replaced = std::make_unique<Replaced>(
      Replaced{std::move(plans), std::move(context)});
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(Job{0, 0, {}, {}, nullptr, std::move(replaced)});
  }
  cv_.notify_one();
}

QueryId QueryEngine::Prepare(const Nfa& query, uint32_t source,
                             uint32_t target) {
  CanonicalAutomaton canon = CanonicalizeAutomaton(query);
  const PlanKey key{canon.hash, source, target, std::move(canon.bytes)};
  // The expensive build (annotate + trim + queue construction) runs
  // outside every lock: misses on different keys proceed in parallel,
  // all against the installed snapshot; misses on the SAME key build
  // once (single-flight).
  const PlanCache::Builder build = [&query, source, target](
                                       const Snapshot& snap) {
    return std::make_shared<const PreparedQuery>(snap, query, source,
                                                 target);
  };
  const QueryId id = cache_.Acquire(key, build);
  if (const PlanCache::Value plan = cache_.Resolve(id))
    (plan->ann.words_per_set() == 1 ? tier_single_word_ : tier_general_)
        .fetch_add(1, std::memory_order_relaxed);
  return id;
}

PrepareRegexResult QueryEngine::PrepareRegex(std::string_view pattern,
                                             LabelDictionary* dict,
                                             uint32_t source,
                                             uint32_t target) {
  PrepareRegexResult result;
  if (!cache_.installed()) {  // snapshots are never uninstalled
    result.error = "no snapshot installed";
    return result;
  }
  RegexParseResult parsed = ParseRegex(pattern);
  if (!parsed.ok()) {
    result.error = parsed.error();
    return result;
  }
  std::unique_lock<std::mutex> compile_lock(compile_mu_);
  CompiledRegex compiled = CompileRegex(*parsed.value(), dict);
  compile_lock.unlock();
  result.frontend = compiled.frontend;
  (compiled.frontend == Frontend::kThompson ? frontend_thompson_
                                            : frontend_glushkov_)
      .fetch_add(1, std::memory_order_relaxed);
  result.id = Prepare(compiled.nfa, source, target);
  result.ok = true;
  return result;
}

void QueryEngine::ReleaseQuery(QueryId query) { cache_.Release(query); }

SessionId QueryEngine::OpenSession(QueryId query) {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.Add(Session{.query = query});
}

void QueryEngine::CloseSession(SessionId session) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.Remove(session);
}

std::future<PumpResult> QueryEngine::PumpAsync(SessionId session,
                                               uint32_t max_answers) {
  std::promise<PumpResult> promise;
  std::future<PumpResult> future = promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    Session* s = sessions_.Find(session);
    switch (s != nullptr ? s->state : SessionState::kRetired) {
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
    s->state = SessionState::kQueued;
    queue_.push_back(Job{session, std::max(max_answers, 1u),
                         std::move(promise),
                         std::chrono::steady_clock::now(), nullptr, nullptr});
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

std::shared_ptr<const PreparedQuery> QueryEngine::Plan(QueryId query) const {
  return cache_.Resolve(query);
}

std::vector<int64_t> QueryEngine::FirstAnswerLatenciesNs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_answer_ns_;
}

EngineStats QueryEngine::Stats() const {
  EngineStats stats;
  stats.plan_cache = cache_.Stats();
  stats.plans_upgraded = stats.plan_cache.upgrades;
  stats.open_queries = cache_.open_handles();
  stats.frontend_thompson =
      frontend_thompson_.load(std::memory_order_relaxed);
  stats.frontend_glushkov =
      frontend_glushkov_.load(std::memory_order_relaxed);
  stats.tier_single_word =
      tier_single_word_.load(std::memory_order_relaxed);
  stats.tier_general = tier_general_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  stats.sessions_retired = sessions_retired_;
  stats.sessions_upgraded = sessions_upgraded_;
  stats.open_sessions = sessions_.size();
  return stats;
}

PumpResult QueryEngine::RunBatch(
    ResumableEnumerator& en, const PreparedQuery& query, const Walk& last,
    bool started, uint32_t max_answers,
    std::chrono::steady_clock::time_point enqueued,
    int64_t* first_answer_ns) {
  PumpResult result;
  *first_answer_ns = -1;
  en.Reset(query.ann, query.index);
  if (!started) {
    en.Rewind();
  } else if (!en.SeekAfter(last)) {
    // last was emitted by this plan, or by one it was upgraded from with
    // lambda unchanged (WorkerLoop retires every other started session),
    // so SeekAfter can only reject it if the session state was corrupted.
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
  // Reset onto the plan of every job. Between jobs its pointers may name
  // a freed plan; nothing reads them before the next Reset overwrites
  // them.
  ResumableEnumerator en;
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
      if (job.replaced != nullptr) {  // freed with job, outside the lock
        lock.unlock();
        continue;
      }
      if (job.repairs != nullptr) {
        lock.unlock();
        job.repairs->Run();
        // Workers build no plans otherwise, so they keep no BFS scratch.
        ReleaseAnnotateScratch();
        continue;
      }

      Session* s = sessions_.Find(job.session);  // null once closed
      query = cache_.Resolve(s ? s->query : kNoQuery);
      // The one retirement rule. An unknown or released QueryId, or one
      // whose entry an install detached, names no plan; and inserts only
      // ever shorten lambda, so a parked walk that is not lambda edges
      // long was parked before an upgrade shortened it and anchors
      // nothing in the new order.
      if (query == nullptr ||
          (s->started &&
           s->last.length() != static_cast<size_t>(query->ann.lambda))) {
        // Graceful rejection: the stale plan is never run.
        if (s != nullptr) {
          s->state = SessionState::kRetired;
          ++sessions_retired_;
        }
        lock.unlock();
        job.promise.set_value(PumpResult{PumpStatus::kRetired, {}});
        continue;
      }
      // The parked walk is reused as an anchor on a plan upgraded since.
      const uint64_t generation = query->index.snapshot().generation();
      if (s->started && s->generation != generation) ++sessions_upgraded_;
      s->generation = generation;
      last = s->last;
      started = s->started;
    }

    int64_t first_ns = -1;
    PumpResult result = RunBatch(en, *query, last, started, job.max_answers,
                                 job.enqueued, &first_ns);
    query.reset();  // a worker holds no plan between jobs

    {
      std::lock_guard<std::mutex> lock(mu_);
      if (Session* s = sessions_.Find(job.session)) {  // unless closed
        if (!result.walks.empty()) {
          s->last = result.walks.back();
          s->started = true;
        }
        s->state = result.status == PumpStatus::kOk ? SessionState::kParked
                                                    : SessionState::kExhausted;
      }
      if (first_ns >= 0) first_answer_ns_.push_back(first_ns);
    }
    job.promise.set_value(std::move(result));
  }
}

}  // namespace dsw
