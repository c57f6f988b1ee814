// Edge-labeled graph database D = (V, Sigma, E) with E a multiset of
// (src, label, dst) triples. Walks are sequences of *edge ids*, so two
// parallel edges between the same endpoints (even with distinct labels)
// yield distinct walks — the "distinct walk" granularity of the paper.
//
// Vertices and labels are dense uint32_t ids; LabelDictionary maps the
// human-readable label names used by workloads ("a", "b", "l0", ...) to
// ids and back.
//
// Besides the edge table, the database builds a CSR-style
// *label-stratified* adjacency (LabelIndex): per vertex, the out-edges
// grouped by label with an offset index. It is the only adjacency: the
// annotate/trim hot paths iterate "distinct labels out of v" and then
// "edges of v with label l", so no per-edge label filtering ever
// happens — and the per-(vertex, label) automaton move is computed once
// and shared across every edge of the group (parallel edges included).
//
// Mutation and reads are split by an explicit freeze point: AddVertex/
// AddEdge append to the edge table and bump the vertex count, and
// Freeze() seals the current contents into an immutable Snapshot that
// owns the built LabelIndex and the vertex and edge counts it covers.
// Every read-path structure (Annotation, TrimmedIndex, ResumableIndex,
// the query engine) is constructed from a Snapshot and reads only its
// LabelIndex, so nothing on the read path ever builds anything lazily —
// any number of threads can share one Snapshot with no synchronization
// at all, and a later mutation changes nothing they read: a snapshot and
// every plan built from it keep answering for their own generation.
//
// The mutation API is append-only, so a state of the database is named
// by its counts: it holds vertices [0, |V|) and edges [0, |E|), and
// every earlier state is a prefix of every later one. Its generation is
// those two counts, and the delta from any earlier state is the edge
// suffix past that state's count. The LabelIndex is paged by vertex
// range, and each Freeze() derives its index from the previous one (the
// first from an empty index): a vertex's groups change only when it is
// new or gained an out-edge, so the new index shares every page that
// holds neither, copies only the page table, and rebuilds the pages the
// write touched. An install costs the write, not the graph.

#ifndef DSW_CORE_DATABASE_H_
#define DSW_CORE_DATABASE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <compare>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/page_table.h"

namespace dsw {

// Dense id aliases. Purely documentary (everything is uint32_t), but
// the bench/test code reads better when a variable says which id space
// it lives in.
using VertexId = uint32_t;
using EdgeId = uint32_t;

class LabelDictionary {
 public:
  static constexpr uint32_t kInvalid = UINT32_MAX;

  /// Returns the id of \p name, creating it if needed.
  uint32_t Intern(std::string_view name) {
    auto it = index_.find(name);  // heterogeneous: no temporary string
    if (it != index_.end()) return it->second;
    uint32_t id = static_cast<uint32_t>(names_.size());
    names_.emplace_back(name);
    index_.emplace(names_.back(), id);
    return id;
  }

  /// Returns the id of \p name or kInvalid if unknown.
  uint32_t Find(std::string_view name) const {
    auto it = index_.find(name);
    return it == index_.end() ? kInvalid : it->second;
  }

  const std::string& Name(uint32_t id) const { return names_[id]; }
  uint32_t size() const { return static_cast<uint32_t>(names_.size()); }

 private:
  // Transparent hashing: Intern/Find are called with string_views from
  // the regex front-end's hot loop, and a non-transparent map would
  // materialize a std::string per lookup.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t, Hash, std::equal_to<>> index_;
};

struct Edge {
  uint32_t src;
  uint32_t dst;
  uint32_t label;
};

/// CSR-style label-stratified adjacency, paged by vertex. For each
/// vertex the distinct out-labels appear as Groups (sorted by label id);
/// each group spans a contiguous range of the vertex's (edge id, dst)
/// pairs, in insertion order — so enumeration order stays deterministic
/// and parallel edges sit next to each other. The destination is
/// denormalized into the pair so the BFS/trim relax loops stream one
/// array instead of chasing edge ids into the edge table.
///
/// The index is two page tables (util/page_table.h). A vertex page holds
/// the groups, targets and insertion-to-rank permutation of 2^kPageBits
/// consecutive vertices, with group bounds that are ranks within the
/// vertex's own out-edges, so nothing in a page refers outside it. An
/// edge chunk holds the source and insertion index (the edge's index
/// among its source's out-edges in insertion order) of 2^kChunkBits
/// consecutive edge ids; those never change once an edge exists, so the
/// chunks are append-only. Pages and chunks are immutable once built,
/// and a derived index (Database::Freeze) shares every one its write did
/// not touch with the index it derives from.
class LabelIndex {
 public:
  /// Vertices per page and edges per chunk, as powers of two; constants,
  /// not settings.
  static constexpr uint32_t kPageBits = 6;
  static constexpr uint32_t kChunkBits = 10;

  struct Group {
    uint32_t label;
    uint32_t begin;  // ranks within the vertex's out-edges, see OutEdges
    uint32_t end;
  };

  struct Target {
    uint32_t edge;
    uint32_t dst;
  };

  /// The out-edges of one vertex: its (edge id, dst) pairs in rank order,
  /// and the groups that partition them, one per distinct label.
  struct OutEdges {
    std::span<const Group> groups;
    std::span<const Target> targets;

    /// The (edge id, dst) pairs of one of the vertex's groups.
    std::span<const Target> Targets(const Group& g) const {
      return targets.subspan(g.begin, g.end - g.begin);
    }
  };

  /// The out-edges of \p v: one page lookup.
  OutEdges Out(uint32_t v) const {
    const Page& page = pages_.PageHolding(v);
    const Bounds first = page.bounds[Pages::SlotOf(v)];
    const Bounds last = page.bounds[Pages::SlotOf(v) + 1];
    return OutEdges{{page.groups.data() + first.group, last.group - first.group},
                    {page.targets.data() + first.target,
                     last.target - first.target}};
  }

  /// Rank of \p edge among its source's out-edges in (label, insertion)
  /// order: its index in Out(source).targets. This is exactly the order
  /// the enumerator tries candidate edges in, which makes it the seek key
  /// of the resumable candidate queues. A rank does not move when other
  /// vertices gain edges, so a derived Freeze rewrites only the
  /// permutations of the vertices it touched. O(1): a chunk lookup and
  /// a page lookup.
  uint32_t PositionOf(uint32_t edge) const {
    const EdgeRecord& r = edges_.PageHolding(edge)[Chunks::SlotOf(edge)];
    const Page& page = pages_.PageHolding(r.src);
    return page.rank[page.bounds[Pages::SlotOf(r.src)].target + r.ins];
  }

  /// The source vertex of \p edge (edge < num_edges()).
  uint32_t SourceOf(uint32_t edge) const {
    return edges_.PageHolding(edge)[Chunks::SlotOf(edge)].src;
  }

  /// Number of vertices frozen into this index (ids [0, num_vertices())).
  /// Unlike Database::num_vertices(), it does not grow with later inserts.
  uint32_t num_vertices() const { return num_vertices_; }

  /// Number of edges frozen into this index (edge ids [0, num_edges())).
  /// Unlike Database::num_edges(), it does not grow with later inserts.
  size_t num_edges() const { return num_edges_; }

  /// Identity of the page holding vertex \p v, and of the chunk holding
  /// \p edge's record: two indexes share one iff the pointers are equal.
  const void* PageOf(uint32_t v) const { return pages_.PageId(v); }
  const void* ChunkOf(uint32_t edge) const { return edges_.PageId(edge); }

 private:
  friend class Database;

  // Where a vertex's groups and targets start in its page.
  struct Bounds {
    uint32_t group;
    uint32_t target;
  };
  // The fixed-size arrays sit inside the page and the chunk, one load
  // from the table entry; a page past the last vertex, or a chunk past
  // the last edge, leaves its tail zero.
  struct Page {
    std::vector<Group> groups;    // by vertex, sorted by label
    std::vector<Target> targets;  // by vertex, in rank order
    std::vector<uint32_t> rank;   // by vertex: insertion index -> rank
    std::array<Bounds, (1u << kPageBits) + 1> bounds{};  // per vertex, + 1
  };
  struct EdgeRecord {
    uint32_t src;
    uint32_t ins;  // index among src's out-edges in insertion order
  };
  using Pages = PageTable<Page, kPageBits>;
  using Chunks = PageTable<std::array<EdgeRecord, 1u << kChunkBits>, kChunkBits>;

  Pages pages_;
  Chunks edges_;
  uint32_t num_vertices_ = 0;
  uint32_t num_edges_ = 0;
};

class Snapshot;

/// Insert-only difference between two generations of one Database:
/// edges [first_new_edge, num_edges) were inserted after the older
/// generation, possibly with vertices, and nothing else changed (the
/// mutation API is append-only). known == false means the older
/// generation is not a prefix of the newer one — it has more vertices
/// or edges — so callers must fall back to a full rebuild.
struct EdgeDelta {
  bool known = false;
  uint32_t first_new_edge = 0;
  /// The sorted distinct sources of the new edges: the vertices the
  /// delta gave new out-edges. Read off the edge table once, so that a
  /// repair reads only the snapshot and the delta.
  std::vector<uint32_t> new_sources;

  /// A new edge's endpoints, destination first.
  struct Arc {
    uint32_t dst;
    uint32_t src;
    friend auto operator<=>(const Arc&, const Arc&) = default;
  };
  /// The new edges' distinct (dst, src) pairs in sorted order, read off
  /// the edge table with new_sources: a repair finds the sources of the
  /// new edges into any sorted vertex set by one intersection.
  std::vector<Arc> new_arcs;
};

class Database {
 public:
  /// AddEdge's result when an endpoint is not a vertex.
  static constexpr uint32_t kNoEdge = UINT32_MAX;

  uint32_t AddVertex() { return AddVertices(1); }

  /// Adds \p n vertices; returns the id of the first.
  uint32_t AddVertices(uint32_t n) {
    const uint32_t first = num_vertices_;
    num_vertices_ += n;
    return first;
  }

  /// Adds an edge with an already-interned label id; returns the edge id,
  /// or kNoEdge, changing nothing, when \p src or \p dst is not a vertex.
  uint32_t AddEdge(uint32_t src, uint32_t label, uint32_t dst) {
    if (src >= num_vertices_ || dst >= num_vertices_) return kNoEdge;
    edges_.push_back(Edge{src, dst, label});
    return static_cast<uint32_t>(edges_.size() - 1);
  }

  /// Adds an edge by label name, interning it on first use; kNoEdge, with
  /// nothing interned, as above.
  uint32_t AddEdge(uint32_t src, std::string_view label, uint32_t dst) {
    if (src >= num_vertices_ || dst >= num_vertices_) return kNoEdge;
    return AddEdge(src, labels_.Intern(label), dst);
  }

  /// The current state's name: |V| << 32 | |E|. Every AddVertex/
  /// AddVertices/AddEdge that adds something moves it; label interning
  /// never perturbs the adjacency and does not. Unique within one
  /// database only: the engine and the plan cache key plans and
  /// sessions on (database, generation).
  uint64_t generation() const {
    return uint64_t{num_vertices_} << 32 | edges_.size();
  }

  uint32_t num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return edges_.size(); }
  /// |D| as used in the paper's complexity statements: |V| + |E|.
  size_t size() const { return num_vertices() + num_edges(); }

  const Edge& edge(uint32_t id) const { return edges_[id]; }
  uint32_t src(uint32_t id) const { return edges_[id].src; }
  uint32_t dst(uint32_t id) const { return edges_[id].dst; }

  /// Seals the current contents into an immutable Snapshot: derives the
  /// label-stratified adjacency from the previous freeze's, sharing
  /// every page and edge chunk the k new edges left alone (a copy of the
  /// page table, then O(d log d) per touched vertex and a copy of each
  /// rebuilt page's other vertices; a page of new vertices only, as in a
  /// build from scratch, is ordered by one counting sort in time linear
  /// in its edges when its labels span at most 64 ids; O(1) when nothing
  /// mutated since the last freeze). Generations alive together share
  /// their unchanged pages, so holding an old snapshot costs only the
  /// pages that changed since.
  /// Deliberately non-const — building the index is a mutation-path
  /// operation, so it can never race with the read path; the returned
  /// Snapshot (and copies of it) can then be shared across any number
  /// of reader threads with no synchronization. Defined after Snapshot.
  Snapshot Freeze();

  LabelDictionary& labels() { return labels_; }
  const LabelDictionary& labels() const { return labels_; }

  /// Stable pointer to the dictionary for callers that intern labels
  /// while compiling queries against a live database (the regex front
  /// end). The pointer stays valid for the lifetime of this Database, and
  /// Intern is idempotent, so re-compiling a query never perturbs ids.
  LabelDictionary* mutable_dict() { return &labels_; }

 private:
  // The index of the current contents, derived from \p prev, the index
  // of an earlier state of this database (an empty index on the first
  // freeze). Append-only mutation means prev covers exactly vertices
  // [0, prev.num_vertices()) and edges [0, prev.num_edges()), and a
  // vertex's groups differ from prev's only if it is new or the source
  // of a new edge. The result shares every page of prev that holds
  // neither, and every full edge chunk; the other pages are rebuilt,
  // re-emitting only their new and touched vertices, and the tail chunk
  // is copied and extended. The layout is a function of the edge list
  // alone, so the result equals a build from empty (core/database.cc).
  std::shared_ptr<const LabelIndex> BuildLabelIndex(
      const LabelIndex& prev) const;

  std::vector<Edge> edges_;
  uint32_t num_vertices_ = 0;
  LabelDictionary labels_;
  // The index built by the last Freeze(); shared with every Snapshot
  // handed out, so re-freezing an unchanged database is O(1) and the
  // next freeze derives from it, while old snapshots keep their own.
  std::shared_ptr<const LabelIndex> frozen_index_;
};

/// Immutable view of a Database as of one Freeze(): shares ownership of
/// the built LabelIndex, whose counts are its generation. Copying is
/// cheap (one shared_ptr); every member is const, so a Snapshot (and the
/// Annotation/TrimmedIndex/ResumableIndex built from it) can be read
/// from any number of threads concurrently — the read path performs no
/// lazy work whatsoever. Later mutations of the Database do not change
/// what a snapshot answers: its counts and adjacency come from the
/// frozen index, and edge() reads the append-only edge table below the
/// frozen count. edge(), labels() and DeltaFrom() read the live Database
/// through a back-pointer, so it must outlive every snapshot of it, and
/// they are for the thread that mutates it (engine/engine.h); nothing
/// built from a snapshot calls them on the read path.
class Snapshot {
 public:
  /// Null snapshot (tests false); assign a real one from Freeze().
  Snapshot() = default;

  explicit operator bool() const { return db_ != nullptr; }

  /// Database::generation() as of the freeze; 0 for a null snapshot.
  uint64_t generation() const {
    return index_ ? uint64_t{num_vertices()} << 32 | num_edges() : 0;
  }

  /// Insert-only delta between \p prev_generation, an earlier state of
  /// the same Database, and this snapshot, with the new edges' sources
  /// and (dst, src) pairs read off the edge table (O(k log k) for k new
  /// edges). Any generation with no more vertices and edges than this
  /// snapshot is an earlier state, whether or not it was ever frozen;
  /// any other returns known == false — the caller's cue to rebuild
  /// instead of repair. Defined after Database.
  EdgeDelta DeltaFrom(uint64_t prev_generation) const;

  /// The underlying database, for identity checks and the live tables.
  const Database& db() const { return *db_; }

  /// The label-stratified adjacency, built at freeze time. Plain const
  /// read; safe to share across threads.
  const LabelIndex& label_index() const { return *index_; }

  uint32_t num_vertices() const { return index_->num_vertices(); }
  size_t num_edges() const { return index_->num_edges(); }
  const Edge& edge(uint32_t id) const {
    assert(id < num_edges() && "Snapshot::edge: id past the frozen edges");
    return db_->edge(id);
  }
  uint32_t src(uint32_t id) const { return edge(id).src; }
  uint32_t dst(uint32_t id) const { return edge(id).dst; }
  const LabelDictionary& labels() const { return db_->labels(); }

 private:
  friend class Database;
  Snapshot(const Database* db, std::shared_ptr<const LabelIndex> index)
      : db_(db), index_(std::move(index)) {}

  const Database* db_ = nullptr;
  std::shared_ptr<const LabelIndex> index_;
};

inline Snapshot Database::Freeze() {
  if (!frozen_index_ || frozen_index_->num_vertices() != num_vertices_ ||
      frozen_index_->num_edges() != num_edges()) {
    static const LabelIndex kEmpty;
    frozen_index_ = BuildLabelIndex(frozen_index_ ? *frozen_index_ : kEmpty);
  }
  return Snapshot(this, frozen_index_);
}

inline EdgeDelta Snapshot::DeltaFrom(uint64_t prev_generation) const {
  const uint64_t prev_edges = prev_generation & UINT32_MAX;
  if (prev_generation >> 32 > num_vertices() || prev_edges > num_edges())
    return EdgeDelta{};
  EdgeDelta delta{true, static_cast<uint32_t>(prev_edges), {}, {}};
  std::vector<uint32_t>& sources = delta.new_sources;
  std::vector<EdgeDelta::Arc>& arcs = delta.new_arcs;
  for (uint32_t e = delta.first_new_edge; e < num_edges(); ++e) {
    sources.push_back(src(e));
    arcs.push_back(EdgeDelta::Arc{dst(e), src(e)});
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  return delta;
}

}  // namespace dsw

#endif  // DSW_CORE_DATABASE_H_
