// Cross-query plan cache: prepared structures keyed by what they are a
// pure function of. The paper's preprocessing/enumeration split makes a
// PreparedQuery (Annotation + ResumableIndex) fully determined by
// (graph snapshot, automaton, source, target) — nothing else — so it is
// safely shareable across every client that asks the same shape, and
// "millions of users, a handful of query shapes" stops paying the
// O(|D| x |A|) annotate + trim cost per Prepare.
//
// Key design: the cache key carries the snapshot identity as a
// (Database*, generation) pair — generations of different Database
// objects never alias, mirroring the engine's session retirement check —
// plus the *canonical automaton serialization* from
// automaton/canonical_hash.h and the (source, target) endpoints. The
// serialization's FNV hash buckets the entry; equality compares the
// bytes exactly, so a 64-bit hash collision costs one string compare,
// never a wrong plan. Textually different but equivalent regexes reach
// the same bytes through regex/canonical.h + the deterministic
// front-end, and therefore the same entry. The target is part of the
// key because a plan depends on it: the annotation stops at the level
// where the target first accepts, and the trim keeps only walks into
// the target, so one source with two targets has two plans.
//
// Concurrency: single-flight build dedup. The first thread to miss on a
// key claims it (a "building" marker entry) and builds OUTSIDE the
// cache lock; concurrent requests for the same key block on a condvar
// until the value lands, instead of burning cores on identical builds.
// Requests for other keys proceed unhindered. If a claim dies (builder
// exception) or is invalidated mid-build, waiters wake, find the key
// vacant, and re-claim — no request is ever lost or served a stale
// marker.
//
// Budget: completed entries sit on an LRU list charged with
// PreparedQuery::ApproxBytes(); inserting past the byte budget evicts
// from the cold end. Building markers and the entry being inserted are
// never evicted. Eviction only drops the cache's reference — sessions
// holding the shared_ptr keep their prepared structure alive for as
// long as they need it. A byte_budget of 0 disables caching entirely
// (every call builds; the bench's cold arm), and a single entry larger
// than the whole budget is kept alone rather than thrashed.
//
// Invalidation: InstallSnapshot forwards the new (db, generation) to
// Invalidate(), which drops every entry built against anything else.
// In-flight builds for dropped keys complete, hand their value to their
// waiting callers, and are discarded rather than cached.

#ifndef DSW_ENGINE_PLAN_CACHE_H_
#define DSW_ENGINE_PLAN_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/annotate.h"
#include "core/database.h"
#include "core/nfa.h"
#include "core/resumable_index.h"

namespace dsw {

/// Everything a query needs at run time, built once and then strictly
/// read-only — the index's snapshot (index.snapshot()) keeps the frozen
/// LabelIndex alive and carries the generation this query is pinned
/// to. Shared by the plan cache, the engine's query table, and every
/// session.
struct PreparedQuery {
  /// Builds from scratch: one annotate + trim.
  PreparedQuery(const Snapshot& snap, const Nfa& query, uint32_t src,
                uint32_t tgt)
      : ann(Annotate(snap, query, src, tgt)), index(snap, ann) {}

  /// Builds on repaired structures — the incremental InstallSnapshot
  /// path: \p a and \p trimmed were patched by core/delta_annotate
  /// against an insert-only edge delta, so only the resumable rank
  /// arrays are rebuilt here; no product BFS, no backward sweep.
  PreparedQuery(const Snapshot& snap, Annotation a, TrimmedIndex trimmed)
      : ann(std::move(a)), index(snap, ann, std::move(trimmed)) {}

  Annotation ann;  // ann.source and ann.target are the endpoints
  ResumableIndex index;

  /// Heap footprint estimate — the plan cache's byte-budget charge.
  size_t ApproxBytes() const {
    return sizeof(PreparedQuery) + ann.ApproxBytes() + index.ApproxBytes();
  }
};

struct PlanKey {
  const Database* db = nullptr;
  uint64_t generation = 0;
  uint64_t automaton_hash = 0;   // bucketing only
  std::string automaton_bytes;   // canonical serialization; equality key
  uint32_t source = 0;
  uint32_t target = 0;

  friend bool operator==(const PlanKey& a, const PlanKey& b) {
    return a.db == b.db && a.generation == b.generation &&
           a.automaton_hash == b.automaton_hash && a.source == b.source &&
           a.target == b.target && a.automaton_bytes == b.automaton_bytes;
  }
};

struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const {
    // The canonical bytes are already FNV-hashed; fold in the rest.
    uint64_t h = k.automaton_hash;
    auto mix = [&h](uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(reinterpret_cast<uintptr_t>(k.db));
    mix(k.generation);
    mix((static_cast<uint64_t>(k.source) << 32) | k.target);
    return static_cast<size_t>(h);
  }
};

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;                // each miss is one build claimed
  uint64_t evictions = 0;             // budget-driven LRU drops
  uint64_t invalidations = 0;         // entries dropped by Invalidate()
  uint64_t single_flight_waits = 0;   // calls that blocked on a peer build
  uint64_t upgrades = 0;              // entries re-keyed by InsertUpgraded
  size_t bytes_used = 0;
  size_t entries = 0;                 // completed entries resident
};

class PlanCache {
 public:
  using Value = std::shared_ptr<const PreparedQuery>;
  using Builder = std::function<Value()>;

  /// \p byte_budget bounds the resident completed entries (approximate,
  /// see header comment); 0 disables caching.
  explicit PlanCache(size_t byte_budget) : byte_budget_(byte_budget) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached value for \p key, or claims the key and calls
  /// \p build (outside the lock) to fill it. Concurrent calls for the
  /// same key build once; the rest wait. \p build must not re-enter the
  /// cache. Never returns null (assuming \p build doesn't).
  Value GetOrBuild(const PlanKey& key, const Builder& build);

  /// Drops every entry not built against (\p db, \p generation) — the
  /// InstallSnapshot hook. In-flight builds for dropped keys complete
  /// for their callers but are not cached.
  void Invalidate(const Database* db, uint64_t generation);

  /// Removes and returns every *completed* entry built against
  /// (\p db, \p generation) — the incremental InstallSnapshot path
  /// extracts the old generation's plans for delta repair instead of
  /// letting Invalidate drop them. Building markers stay (their claims
  /// resolve against Invalidate as usual); extraction is not counted as
  /// invalidation. Empty in pass-through (byte_budget 0) mode.
  std::vector<std::pair<PlanKey, Value>> TakeGeneration(const Database* db,
                                                        uint64_t generation);

  /// Inserts a repaired plan under its re-keyed (new-generation) key.
  /// A completed entry already present wins (a concurrent Prepare beat
  /// the upgrade; keep the entry hits are being served from); a building
  /// claim is resolved in place — the claimant's own fill then no-ops —
  /// so its waiters are released by the upgraded value. Dropped in
  /// pass-through mode.
  void InsertUpgraded(PlanKey key, Value value);

  PlanCacheStats Stats() const;

 private:
  struct Entry {
    Value value;                       // null while building
    size_t bytes = 0;
    uint64_t ticket = 0;               // claim identity while building
    std::list<const PlanKey*>::iterator lru_it;  // valid iff value
    bool building() const { return value == nullptr; }
  };
  using Map = std::unordered_map<PlanKey, Entry, PlanKeyHash>;

  // All private helpers require mu_ held.
  uint64_t ClaimLocked(Map::iterator it);
  void FillLocked(const PlanKey& key, uint64_t ticket, const Value& value);
  // Stores \p value in the entry, charges it to the budget at the LRU's
  // hot end and evicts over budget (never the entry itself).
  void CompleteLocked(Map::iterator it, Value value);
  void EraseClaimLocked(const PlanKey& key, uint64_t ticket);
  void EvictOverBudgetLocked(const PlanKey* protect);

  const size_t byte_budget_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  Map map_;
  std::list<const PlanKey*> lru_;  // front = hottest; completed entries only
  uint64_t next_ticket_ = 0;
  PlanCacheStats stats_;
};

}  // namespace dsw

#endif  // DSW_ENGINE_PLAN_CACHE_H_
