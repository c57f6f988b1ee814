#include "engine/plan_cache.h"

#include <cassert>

namespace dsw {

// ---------------------------------------------------------------- locked
// helpers. The building-marker lifecycle: ClaimLocked inserts (or
// repurposes) a valueless entry stamped with a fresh ticket; the claim
// is later resolved by exactly one of FillLocked (success — the ticket
// still matches, so CompleteLocked lands the value and joins it to the
// LRU) or EraseClaimLocked (failure). A claim whose entry was erased or
// re-claimed in the meantime (Invalidate does both) resolves to a
// no-op: the builder's value goes to its callers but not the cache.

uint64_t PlanCache::ClaimLocked(Map::iterator it) {
  uint64_t ticket = ++next_ticket_;
  it->second.value = nullptr;
  it->second.bytes = 0;
  it->second.ticket = ticket;
  ++stats_.misses;
  return ticket;
}

void PlanCache::FillLocked(const PlanKey& key, uint64_t ticket,
                           const Value& value) {
  auto it = map_.find(key);
  if (it == map_.end() || !it->second.building() ||
      it->second.ticket != ticket)
    return;  // claim was invalidated mid-build; value stays uncached
  CompleteLocked(it, value);
}

void PlanCache::CompleteLocked(Map::iterator it, Value value) {
  Entry& e = it->second;
  e.value = std::move(value);
  e.bytes = e.value->ApproxBytes();
  lru_.push_front(&it->first);
  e.lru_it = lru_.begin();
  stats_.bytes_used += e.bytes;
  ++stats_.entries;
  EvictOverBudgetLocked(&it->first);
}

void PlanCache::EraseClaimLocked(const PlanKey& key, uint64_t ticket) {
  auto it = map_.find(key);
  if (it != map_.end() && it->second.building() &&
      it->second.ticket == ticket)
    map_.erase(it);
}

void PlanCache::EvictOverBudgetLocked(const PlanKey* protect) {
  while (stats_.bytes_used > byte_budget_ && !lru_.empty()) {
    const PlanKey* victim = lru_.back();
    if (victim == protect) break;  // an oversized entry lives alone
    auto it = map_.find(*victim);
    assert(it != map_.end() && !it->second.building());
    stats_.bytes_used -= it->second.bytes;
    --stats_.entries;
    ++stats_.evictions;
    lru_.pop_back();
    map_.erase(it);
  }
}

// ------------------------------------------------------------ public API

PlanCache::Value PlanCache::GetOrBuild(const PlanKey& key,
                                       const Builder& build) {
  if (byte_budget_ == 0) {  // caching disabled: every call builds
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.misses;
    }
    return build();
  }

  uint64_t ticket;
  {
    std::unique_lock<std::mutex> lock(mu_);
    bool waited = false;
    for (;;) {
      auto it = map_.find(key);
      if (it == map_.end()) {
        ticket = ClaimLocked(map_.emplace(key, Entry{}).first);
        break;
      }
      if (!it->second.building()) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // touch
        return it->second.value;
      }
      if (!waited) {
        waited = true;
        ++stats_.single_flight_waits;
      }
      cv_.wait(lock);  // wake on fill, erase, or invalidate; re-check
    }
  }

  Value value;
  try {
    value = build();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      EraseClaimLocked(key, ticket);
    }
    cv_.notify_all();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    FillLocked(key, ticket, value);
  }
  cv_.notify_all();
  return value;
}

std::vector<std::pair<PlanKey, PlanCache::Value>> PlanCache::TakeGeneration(
    const Database* db, uint64_t generation) {
  std::vector<std::pair<PlanKey, Value>> out;
  if (byte_budget_ == 0) return out;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.db != db || it->first.generation != generation ||
        it->second.building()) {
      ++it;
      continue;
    }
    stats_.bytes_used -= it->second.bytes;
    --stats_.entries;
    lru_.erase(it->second.lru_it);
    out.emplace_back(it->first, std::move(it->second.value));
    it = map_.erase(it);
  }
  return out;
}

void PlanCache::InsertUpgraded(PlanKey key, Value value) {
  if (byte_budget_ == 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      it = map_.emplace(std::move(key), Entry{}).first;
    } else if (!it->second.building()) {
      return;  // a concurrent Prepare already built this key; keep it
    }
    // Filling a building claim in place resolves it: the claimant's
    // eventual FillLocked sees a completed entry and no-ops, exactly as
    // if it had been invalidated — but its waiters are released now,
    // by the upgraded value.
    ++stats_.upgrades;
    CompleteLocked(it, std::move(value));
  }
  cv_.notify_all();
}

void PlanCache::Invalidate(const Database* db, uint64_t generation) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = map_.begin(); it != map_.end();) {
      const PlanKey& k = it->first;
      if (k.db == db && k.generation == generation) {
        ++it;
        continue;
      }
      if (!it->second.building()) {
        stats_.bytes_used -= it->second.bytes;
        --stats_.entries;
        lru_.erase(it->second.lru_it);
      }
      // Erasing a building entry orphans its claim: the builder's
      // FillLocked ticket check turns into a no-op, and any waiters
      // wake below, find the key vacant, and re-claim against whatever
      // snapshot *they* hold.
      ++stats_.invalidations;
      it = map_.erase(it);
    }
  }
  cv_.notify_all();
}

PlanCacheStats PlanCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dsw
