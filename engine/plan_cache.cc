#include "engine/plan_cache.h"

namespace dsw {

namespace {

bool BuiltOn(const PreparedQuery& plan, const Database* db,
             uint64_t generation) {
  const Snapshot& s = plan.index.snapshot();
  return &s.db() == db && s.generation() == generation;
}

}  // namespace

// ---------------------------------------------------------------- locked
// helpers. An entry's life: Acquire claims it (attached, no plan), fills
// it and names it by the claimant's handle. While unnamed it sits on the
// LRU. It leaves the key map by eviction, by an install, or by its
// claimant's build throwing, and gives up its plan as it leaves; a
// detached entry lives on, plan-less, while handles name it. stats_
// charges every plan from its fill until its entry is detached.

QueryId PlanCache::HandleLocked(std::shared_ptr<Entry> e) {
  ++e->handles;
  return handles_.Add(std::move(e));
}

PlanCache::Map::iterator PlanCache::DetachLocked(
    Map::iterator it, std::vector<Value>& dropped) {
  Entry& e = *it->second;
  e.key = nullptr;
  if (e.plan != nullptr) {
    if (e.handles == 0) lru_.erase(e.lru);
    stats_.bytes_used -= e.bytes;
    --stats_.entries;
    dropped.push_back(std::move(e.plan));
  }
  return map_.erase(it);
}

void PlanCache::EvictOverBudgetLocked(const PlanKey* keep,
                                      std::vector<Value>& dropped) {
  while (stats_.bytes_used > byte_budget_ && !lru_.empty() &&
         lru_.back() != keep) {
    ++stats_.evictions;
    DetachLocked(map_.find(*lru_.back()), dropped);
  }
}

// ------------------------------------------------------------ repairs

void PlanRepairs::Run() {
  for (;;) {
    const size_t i = next_++;
    if (i >= count_) return;
    std::exception_ptr error;
    try {
      repair_(i);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (error && !error_) error_ = std::move(error);
    if (++done_ == count_) cv_.notify_all();
  }
}

void PlanRepairs::Finish() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_ == count_; });
  if (error_) std::rethrow_exception(error_);
}

// ------------------------------------------------------------ public API

QueryId PlanCache::Acquire(const PlanKey& key, const Builder& build) {
  // Freed outside the lock: a build an install orphaned, and the plans
  // an eviction detached.
  Value plan;
  std::vector<Value> dropped;
  std::unique_lock<std::mutex> lock(mu_);
  if (!snapshot_) return kNoQuery;
  for (bool waited = false;;) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      std::shared_ptr<Entry> e = it->second;
      if (e->plan != nullptr) {
        ++stats_.hits;
        if (e->handles == 0) lru_.erase(e->lru);  // named: not evictable
        return HandleLocked(std::move(e));
      }
      if (!waited) {
        waited = true;
        ++stats_.single_flight_waits;
      }
      cv_.wait(lock, [&e] { return e->plan != nullptr || e->key == nullptr; });
      continue;
    }

    ++stats_.misses;
    auto e = std::make_shared<Entry>();
    e->key = &map_.emplace(key, e).first->first;
    const Snapshot snap = snapshot_;
    lock.unlock();
    try {
      plan = build(snap);
    } catch (...) {
      lock.lock();
      if (e->key != nullptr) DetachLocked(map_.find(key), dropped);
      lock.unlock();
      cv_.notify_all();
      throw;
    }
    lock.lock();
    // The plan is of the installed snapshot unless an install is
    // repairing the table: then it is of the snapshot that install
    // replaces, and its publish detaches the claim, so wait for that. A
    // publish since the claim detached it: the plan is of a replaced
    // snapshot, so claim the key again (or share a waiter's re-claim).
    cv_.wait(lock, [this] { return !repairing_; });
    if (e->key == nullptr) continue;
    e->bytes = plan->ApproxBytes();
    e->plan = std::move(plan);
    stats_.bytes_used += e->bytes;
    ++stats_.entries;
    const QueryId id = HandleLocked(e);
    EvictOverBudgetLocked(nullptr, dropped);
    lock.unlock();
    cv_.notify_all();
    return id;
  }
}

void PlanCache::Release(QueryId id) {
  // Destroyed after the lock is released.
  std::vector<Value> dropped;
  std::shared_ptr<Entry> e;
  std::lock_guard<std::mutex> lock(mu_);
  e = handles_.Remove(id);
  // A detached entry is a tombstone: it dies with its last handle.
  if (e == nullptr || --e->handles > 0 || e->key == nullptr) return;
  lru_.push_front(e->key);
  e->lru = lru_.begin();
  EvictOverBudgetLocked(byte_budget_ > 0 ? e->key : nullptr, dropped);
}

PlanCache::Value PlanCache::Resolve(QueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<Entry>* e = handles_.Find(id);
  return e != nullptr ? (*e)->plan : nullptr;
}

std::vector<PlanCache::Value> PlanCache::Install(Snapshot snap,
                                                const Upgrade& upgrade) {
  // Each entry's plan, replaced by its repair (null if it has none); the
  // publish swaps the repairs in, and the caller gets the rest.
  std::vector<std::shared_ptr<Entry>> entries;
  std::vector<Value> plans;
  if (upgrade) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [key, e] : map_)
        if (e->plan != nullptr) {
          entries.push_back(e);
          plans.push_back(e->plan);
        }
      repairing_ = true;
    }
    try {
      upgrade(plans);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      repairing_ = false;
      cv_.notify_all();  // builds waiting to fill go ahead
      throw;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    repairing_ = false;
    snapshot_ = std::move(snap);
    for (size_t i = 0; i < entries.size(); ++i) {
      Entry& e = *entries[i];
      // Evicted during the repairs (its plan is gone already), or
      // unrepaired and detached below.
      if (e.key == nullptr || plans[i] == nullptr) continue;
      const size_t bytes = plans[i]->ApproxBytes();
      stats_.bytes_used = stats_.bytes_used - e.bytes + bytes;
      e.bytes = bytes;
      std::swap(e.plan, plans[i]);
      ++stats_.upgrades;
    }
    // Unrepaired plans and claims.
    for (auto it = map_.begin(); it != map_.end();) {
      const Entry& e = *it->second;
      if (e.plan != nullptr &&
          BuiltOn(*e.plan, &snapshot_.db(), snapshot_.generation())) {
        ++it;
      } else {
        ++stats_.invalidations;
        it = DetachLocked(it, plans);
      }
    }
    EvictOverBudgetLocked(nullptr, plans);
  }
  cv_.notify_all();  // detached claims are re-claimed; builds fill
  return plans;
}

Snapshot PlanCache::installed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

PlanCacheStats PlanCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t PlanCache::open_handles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return handles_.size();
}

}  // namespace dsw
