// The engine's one table of plans. The paper's preprocessing/enumeration
// split makes a PreparedQuery (Annotation + ResumableIndex) fully
// determined by (graph snapshot, automaton, source, target), so one plan
// serves every client that asks the same shape, and "millions of users,
// a handful of query shapes" stops paying the O(|D| x |A|) annotate +
// trim cost per Prepare.
//
// Keys: an entry is keyed by the *canonical automaton serialization* of
// automaton/canonical_hash.h and the (source, target) endpoints, not by
// a snapshot: it holds the plan of the installed snapshot, and an
// install replaces that plan in place. The serialization's FNV hash
// buckets the entry; equality compares the bytes exactly, so a 64-bit
// hash collision costs one string compare, never a wrong plan.
// Textually different but equivalent regexes reach the same bytes
// through regex/canonical.h + the deterministic front-end, and
// therefore the same entry. The target is part of the key because a
// plan depends on it: the annotation stops at the level where the
// target first accepts, and the trim keeps only walks into the target.
//
// Handles: Acquire returns a QueryId naming an entry, each session
// resolves its plan through it at every pump (Resolve), Release frees it.
// An entry holds a plan only while attached to the key map, and every
// attached plan is of the installed snapshot. Detaching an entry (on
// eviction, install or a thrown build) moves its plan out for the
// caller to free after unlocking; its handles keep a plan-less
// tombstone, which Resolve maps to null.
//
// Single flight: the first Acquire to miss on a key claims it (an entry
// without a plan) and builds OUTSIDE the lock against the installed
// snapshot; concurrent Acquires of that key wait for the plan instead
// of burning cores on identical builds. If the build throws or an
// install detaches the claim, the waiters wake, find the key vacant and
// re-claim, so no request is lost or served a stale marker.
//
// Budget: an entry named by a handle is never evicted. Unnamed entries
// sit on an LRU list, and while the resident plans
// (PreparedQuery::ApproxBytes) exceed the byte budget the coldest is
// evicted. A nonzero budget keeps the entry released last even if it
// alone exceeds the budget, so a tiny budget still serves repeats of one
// key; a budget of 0 keeps nothing unnamed: an entry dies with its last
// handle. The resident plans are thus those of the attached named
// entries plus the budget.
//
// Install: Install() takes the entries under the lock and hands every
// plan to its upgrade in one call, outside the lock; the upgrade may
// spread the repairs over several threads (PlanRepairs). Then, in one
// critical section, it publishes the new snapshot and swaps in the
// repaired plans, so a pump never pairs the new snapshot with an old
// plan. Every entry or claim that does not then hold a plan of the new
// snapshot is detached from the key map: its handles keep a tombstone
// (their sessions retire at the next pump), and the next Acquire of its
// key builds afresh. A build whose claim a publish detached is of a
// replaced snapshot, and its caller never receives it: the caller
// claims the key again, or takes the plan a waiter's re-claim filled. A
// build that returns while the repairs run is of the snapshot they
// replace, so its caller waits for the publish before it claims again.
// An upgrade that throws leaves the table as it was. Install frees
// nothing it replaced: it hands the replaced and detached plans back to
// its caller, which decides which thread pays for their release.

#ifndef DSW_ENGINE_PLAN_CACHE_H_
#define DSW_ENGINE_PLAN_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
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
/// LabelIndex alive and carries the generation this plan is of. Shared
/// by its plan-table entry and every worker running it.
struct PreparedQuery {
  /// Builds from scratch: one annotate + trim.
  PreparedQuery(const Snapshot& snap, const Nfa& query, uint32_t src,
                uint32_t tgt)
      : ann(Annotate(snap, query, src, tgt)), index(snap, ann) {}

  /// Builds on repaired structures — the incremental InstallSnapshot
  /// path: \p a and \p trimmed were patched by core/delta_annotate
  /// against an insert-only edge delta, so nothing is rebuilt here; no
  /// product BFS, no backward sweep.
  PreparedQuery(const Snapshot& snap, Annotation a, TrimmedIndex trimmed)
      : ann(std::move(a)), index(snap, ann, std::move(trimmed)) {}

  Annotation ann;  // ann.source and ann.target are the endpoints
  ResumableIndex index;

  /// Heap footprint estimate — the plan table's byte-budget charge.
  size_t ApproxBytes() const {
    return sizeof(PreparedQuery) + ann.ApproxBytes() + index.ApproxBytes();
  }
};

/// A free-list table of values under 64-bit ids: the slot + 1 in the
/// low half, the slot's generation in the high half. A slot's
/// generation is odd while it is live and bumped when it is freed, so a
/// freed id never aliases a later one, and no id is 0.
template <typename T>
class SlotTable {
 public:
  uint64_t Add(T value) {
    if (free_.empty()) {
      free_.push_back(static_cast<uint32_t>(slots_.size()));
      slots_.emplace_back();
    }
    const uint32_t slot = free_.back();
    free_.pop_back();
    ++slots_[slot].generation;
    slots_[slot].value = std::move(value);
    return uint64_t{slots_[slot].generation} << 32 | (uint64_t{slot} + 1);
  }

  /// The value of a live id, or null.
  T* Find(uint64_t id) {
    const uint64_t slot = (id & 0xffffffffu) - 1;  // id 0 wraps past all
    if (slot >= slots_.size() || slots_[slot].generation != id >> 32)
      return nullptr;
    return &slots_[slot].value;
  }
  const T* Find(uint64_t id) const {
    return const_cast<SlotTable*>(this)->Find(id);
  }

  /// Frees a live id's slot and returns its value; T{} for any other id.
  T Remove(uint64_t id) {
    T* value = Find(id);
    if (value == nullptr) return T{};
    const uint32_t slot = static_cast<uint32_t>(id) - 1;
    ++slots_[slot].generation;
    free_.push_back(slot);
    return std::exchange(*value, T{});
  }

  size_t size() const { return slots_.size() - free_.size(); }

 private:
  struct Slot {
    uint32_t generation = 0;  // odd while live
    T value{};
  };
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
};

/// Handle on a plan-table entry (PlanCache::Acquire). kNoQuery is never
/// issued: a Prepare with no snapshot installed returns it, and every
/// session on it retires at its first pump.
using QueryId = uint64_t;
inline constexpr QueryId kNoQuery = 0;

struct PlanKey {
  uint64_t automaton_hash = 0;   // bucketing only
  uint32_t source = 0;
  uint32_t target = 0;
  std::string automaton_bytes;   // canonical serialization; equality key

  // Member order: the bytes are compared last.
  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const {
    // The canonical bytes are already FNV-hashed; fold in the endpoints.
    uint64_t h = k.automaton_hash;
    h ^= ((uint64_t{k.source} << 32) | k.target) + 0x9e3779b97f4a7c15ull +
         (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

/// The repairs of one install, shared by the installing thread and any
/// helper threads. Every thread that calls Run claims indices in [0,
/// count) from one atomic counter and repairs them until none is left.
/// Finish, on the installing thread after its own Run, waits for the
/// claimed repairs only (a helper whose Run starts after the last claim
/// touches nothing but the counter) and rethrows the first repair's
/// exception, if any. Helpers hold it by shared_ptr, so a late one
/// outlives the install safely; \p repair runs only for claimed
/// indices, so it may refer to the installing thread's stack.
class PlanRepairs {
 public:
  PlanRepairs(size_t count, std::function<void(size_t)> repair)
      : count_(count), repair_(std::move(repair)) {}

  void Run();
  void Finish();

 private:
  const size_t count_;
  const std::function<void(size_t)> repair_;
  std::atomic<size_t> next_{0};  // the next unclaimed index
  std::mutex mu_;
  std::condition_variable cv_;  // the last repair returned
  size_t done_ = 0;             // repairs returned; guarded by mu_
  std::exception_ptr error_;    // the first repair's; guarded by mu_
};

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;                // each miss is one build claimed
  uint64_t evictions = 0;             // budget-driven LRU drops
  uint64_t invalidations = 0;         // entries an install detached
  uint64_t single_flight_waits = 0;   // calls that blocked on a peer build
  uint64_t upgrades = 0;              // plans an install repaired in place
  size_t bytes_used = 0;              // of the resident plans
  size_t entries = 0;                 // resident plans, each attached
};

class PlanCache {
 public:
  using Value = std::shared_ptr<const PreparedQuery>;
  /// Builds a missing plan against the snapshot installed at the claim.
  using Builder = std::function<Value(const Snapshot&)>;
  /// Replaces each plan of the installed snapshot in its argument by
  /// the plan's repair against the snapshot being installed, or by null
  /// when it has none.
  using Upgrade = std::function<void(std::vector<Value>&)>;

  /// \p byte_budget bounds the unnamed entries (see header comment).
  explicit PlanCache(size_t byte_budget) : byte_budget_(byte_budget) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns a new handle on \p key's entry, whose plan is of the
  /// snapshot installed when the handle is issued. A missing plan is
  /// built by \p build, outside the lock, against the installed
  /// snapshot; concurrent calls for the key build once and the rest
  /// wait. A build that returns while an install repairs waits for that
  /// install to publish; a build whose claim an install detached is
  /// dropped, and the call resolves the key again, so \p build may run
  /// more than once. Returns kNoQuery when no snapshot is installed.
  /// \p build must not re-enter the table.
  QueryId Acquire(const PlanKey& key, const Builder& build);

  /// Frees \p id; an unknown or released id is ignored.
  void Release(QueryId id);

  /// The plan \p id names, which is of the installed snapshot; null for
  /// an unknown or released id, or one whose entry was detached.
  Value Resolve(QueryId id) const;

  /// Publishes \p snap, repairing every entry's plan by \p upgrade (if
  /// set) as the header comment describes, and returns the plans the
  /// table no longer holds for it: the replaced and the detached ones,
  /// and any repair it could not publish (nulls included). The table
  /// keeps none of them, so whoever drops the last copy frees them. If
  /// \p upgrade throws, Install rethrows and publishes nothing. Calls
  /// must not overlap.
  std::vector<Value> Install(Snapshot snap, const Upgrade& upgrade);

  /// The installed snapshot (null before the first Install).
  Snapshot installed() const;

  PlanCacheStats Stats() const;
  size_t open_handles() const;

 private:
  struct Entry {
    const PlanKey* key = nullptr;  // its key in map_; null once detached
    Value plan;                    // null while a claim, or detached
    size_t bytes = 0;              // plan->ApproxBytes(), in stats_
    uint32_t handles = 0;          // QueryIds naming it
    std::list<const PlanKey*>::iterator lru;  // valid iff key, plan and
                                              // no handles
  };
  using Map = std::unordered_map<PlanKey, std::shared_ptr<Entry>, PlanKeyHash>;

  // All private helpers require mu_ held; the plans they detach go to
  // \p dropped, for the caller to free after unlocking.
  QueryId HandleLocked(std::shared_ptr<Entry> e);
  // Removes the entry from map_ and moves its plan, if any, to \p dropped.
  Map::iterator DetachLocked(Map::iterator it, std::vector<Value>& dropped);
  // Evicts the coldest unnamed entries while over budget, except \p keep.
  void EvictOverBudgetLocked(const PlanKey* keep,
                             std::vector<Value>& dropped);

  const size_t byte_budget_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  // a claim was filled or detached, or
                                // an install published
  Snapshot snapshot_;           // the installed snapshot
  bool repairing_ = false;      // an Install's upgrade is running
  Map map_;
  std::list<const PlanKey*> lru_;  // unnamed entries; front = hottest
  SlotTable<std::shared_ptr<Entry>> handles_;
  PlanCacheStats stats_;
};

}  // namespace dsw

#endif  // DSW_ENGINE_PLAN_CACHE_H_
