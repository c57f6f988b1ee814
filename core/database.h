// Edge-labeled graph database D = (V, Sigma, E) with E a multiset of
// (src, label, dst) triples. Walks are sequences of *edge ids*, so two
// parallel edges between the same endpoints (even with distinct labels)
// yield distinct walks — the "distinct walk" granularity of the paper.
//
// Vertices and labels are dense uint32_t ids; LabelDictionary maps the
// human-readable label names used by workloads ("a", "b", "l0", ...) to
// ids and back.
//
// Besides the insertion-ordered OutEdges lists, the database maintains a
// CSR-style *label-stratified* adjacency (LabelIndex): per vertex, the
// out-edges grouped by label with an offset index. The annotate/trim hot
// paths iterate "distinct labels out of v" and then "edges of v with
// label l", so the per-edge label filtering of the naive adjacency never
// happens — and the per-(vertex, label) automaton move is computed once
// and shared across every edge of the group (parallel edges included).
//
// Mutation and reads are split by an explicit freeze point: AddVertex/
// AddEdge grow the edge tables, and Freeze() seals the current contents
// into an immutable Snapshot that owns the built LabelIndex and the
// generation stamp. Every read-path structure (Annotation, TrimmedIndex,
// ResumableIndex, the query engine) is constructed from a Snapshot, so
// nothing on the read path ever builds anything lazily — any number of
// threads can share one Snapshot with no synchronization at all. A
// mutation after Freeze() starts the next generation: old snapshots (and
// the indexes built from them) keep the loud generation assert instead
// of silently serving stale spans.

#ifndef DSW_CORE_DATABASE_H_
#define DSW_CORE_DATABASE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

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

/// CSR-style label-stratified adjacency. For each vertex the distinct
/// out-labels appear as Groups (sorted by label id); each group spans a
/// contiguous range of (edge id, dst) pairs, in insertion order — so
/// enumeration order stays deterministic and parallel edges sit next to
/// each other. The destination is denormalized into the pair so the
/// BFS/trim relax loops stream one array instead of chasing edge ids
/// into the edge table.
class LabelIndex {
 public:
  struct Group {
    uint32_t label;
    uint32_t begin;  // into the target pool, see Targets()
    uint32_t end;
  };

  struct Target {
    uint32_t edge;
    uint32_t dst;
  };

  /// Distinct labels out of \p v, one Group per label.
  std::span<const Group> GroupsOf(uint32_t v) const {
    return {groups_.data() + group_offsets_[v],
            groups_.data() + group_offsets_[v + 1]};
  }

  /// (edge id, dst) pairs of one (vertex, label) group.
  std::span<const Target> Targets(const Group& g) const {
    return {targets_.data() + g.begin, targets_.data() + g.end};
  }

  /// Position of \p edge in the target pool — its rank in the global
  /// (src, label, insertion) order. Within one vertex this is exactly
  /// the order the enumerator tries candidate edges in, which makes it
  /// the seek key of the resumable candidate queues.
  uint32_t PositionOf(uint32_t edge) const { return edge_pos_[edge]; }

  /// Number of edges frozen into this index (edge ids [0, num_edges())).
  /// Unlike Database::num_edges(), it does not grow with later inserts.
  size_t num_edges() const { return edge_pos_.size(); }

 private:
  friend class Database;
  std::vector<uint32_t> group_offsets_;  // vertex -> first group; size V+1
  std::vector<Group> groups_;
  std::vector<Target> targets_;  // grouped by (src, label)
  std::vector<uint32_t> edge_pos_;  // edge id -> position in targets_
};

class Snapshot;

/// Insert-only difference between two frozen generations of one
/// Database, as recorded by the freeze-time delta log: vertices
/// [first_new_vertex, num_vertices) and edges [first_new_edge,
/// num_edges) were inserted after the older generation, and nothing
/// else changed (the mutation API is append-only). known == false means
/// the older generation was never frozen or its mark aged out of the
/// bounded log — callers must fall back to a full rebuild.
struct EdgeDelta {
  bool known = false;
  uint32_t first_new_vertex = 0;
  uint32_t first_new_edge = 0;
};

class Database {
 public:
  uint32_t AddVertex() {
    out_.emplace_back();
    ++generation_;
    return static_cast<uint32_t>(out_.size() - 1);
  }

  /// Adds \p n vertices; returns the id of the first. A zero-vertex
  /// call changes nothing and is generation-neutral — bumping the
  /// counter here would retire every snapshot, session and cached plan
  /// for a mutation that never happened.
  uint32_t AddVertices(uint32_t n) {
    uint32_t first = num_vertices();
    if (n == 0) return first;
    out_.resize(out_.size() + n);
    ++generation_;
    return first;
  }

  /// Adds an edge with an already-interned label id; returns the edge id.
  uint32_t AddEdge(uint32_t src, uint32_t label, uint32_t dst) {
    assert(src < num_vertices() && "AddEdge: src is not a vertex id");
    assert(dst < num_vertices() && "AddEdge: dst is not a vertex id");
    uint32_t id = static_cast<uint32_t>(edges_.size());
    edges_.push_back(Edge{src, dst, label});
    out_[src].push_back(id);
    ++generation_;
    return id;
  }

  /// Adds an edge by label name, interning it on first use.
  uint32_t AddEdge(uint32_t src, std::string_view label, uint32_t dst) {
    return AddEdge(src, labels_.Intern(label), dst);
  }

  /// Monotonic mutation counter: bumped by every AddVertex/AddVertices/
  /// AddEdge (label interning does not count — it never perturbs the
  /// adjacency). Freeze() stamps it into the Snapshot, which
  /// debug-asserts it in its accessors (Snapshot::AssertFresh): a
  /// mutation after Freeze() silently invalidates everything built from
  /// the snapshot — spans, positions, rank arrays — and the generation
  /// check turns that latent use-after-mutate into a loud assertion
  /// instead of wrong answers. ResumableIndex holds its snapshot and
  /// reads the seek keys through it, so a plan used past a mutation
  /// trips the same check.
  uint64_t generation() const { return generation_; }

  uint32_t num_vertices() const { return static_cast<uint32_t>(out_.size()); }
  size_t num_edges() const { return edges_.size(); }
  /// |D| as used in the paper's complexity statements: |V| + |E|.
  size_t size() const { return num_vertices() + num_edges(); }

  const Edge& edge(uint32_t id) const { return edges_[id]; }
  uint32_t src(uint32_t id) const { return edges_[id].src; }
  uint32_t dst(uint32_t id) const { return edges_[id].dst; }
  const std::vector<uint32_t>& OutEdges(uint32_t v) const { return out_[v]; }

  /// Seals the current contents into an immutable Snapshot: builds the
  /// label-stratified adjacency (O(|E| log d), reusing the build when
  /// nothing mutated since the last freeze) and stamps the generation.
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
  friend class Snapshot;  // DeltaFrom reads the freeze-mark log

  void BuildLabelIndex(LabelIndex& ix) const {
    uint32_t v_count = num_vertices();
    ix.group_offsets_.assign(v_count + 1, 0);
    ix.groups_.clear();
    ix.targets_.clear();
    ix.targets_.reserve(edges_.size());
    ix.edge_pos_.assign(edges_.size(), 0);
    std::vector<uint32_t> buf;
    for (uint32_t v = 0; v < v_count; ++v) {
      ix.group_offsets_[v] = static_cast<uint32_t>(ix.groups_.size());
      buf.assign(out_[v].begin(), out_[v].end());
      // Stable: edges of one (v, label) group keep insertion order.
      std::stable_sort(buf.begin(), buf.end(),
                       [this](uint32_t a, uint32_t b) {
                         return edges_[a].label < edges_[b].label;
                       });
      for (uint32_t id : buf) {
        uint32_t label = edges_[id].label;
        if (ix.groups_.size() == ix.group_offsets_[v] ||
            ix.groups_.back().label != label) {
          uint32_t pos = static_cast<uint32_t>(ix.targets_.size());
          ix.groups_.push_back(LabelIndex::Group{label, pos, pos});
        }
        ix.edge_pos_[id] = static_cast<uint32_t>(ix.targets_.size());
        ix.targets_.push_back(LabelIndex::Target{id, edges_[id].dst});
        ++ix.groups_.back().end;
      }
    }
    ix.group_offsets_[v_count] = static_cast<uint32_t>(ix.groups_.size());
  }

  // One entry per frozen generation: the vertex/edge counts as of that
  // freeze. Since the mutation API is append-only, the delta between
  // two marks is exactly "the suffix inserted in between" — which is
  // what Snapshot::DeltaFrom serves to the incremental-maintenance
  // layer. Bounded: only the most recent kMaxFreezeMarks freezes stay
  // repairable; older generations fall back to a full rebuild.
  struct FreezeMark {
    uint64_t generation;
    uint32_t num_vertices;
    uint32_t num_edges;
  };
  static constexpr size_t kMaxFreezeMarks = 64;

  std::vector<Edge> edges_;
  std::vector<std::vector<uint32_t>> out_;  // vertex -> edge ids
  LabelDictionary labels_;
  std::vector<FreezeMark> freeze_marks_;  // ascending generation
  // The index built by the last Freeze() and the generation it captured;
  // shared with every Snapshot handed out, so re-freezing an unchanged
  // database is O(1) and old snapshots stay valid storage-wise even
  // after a rebuild (their generation assert governs *semantic*
  // validity).
  std::shared_ptr<const LabelIndex> frozen_index_;
  uint64_t frozen_generation_ = UINT64_MAX;  // != any real generation
  uint64_t generation_ = 0;
};

/// Immutable view of a Database as of one Freeze(): shares ownership of
/// the built LabelIndex and carries the generation stamp. Copying is
/// cheap (one shared_ptr); every member is const, so a Snapshot (and the
/// Annotation/TrimmedIndex/ResumableIndex built from it) can be read
/// from any number of threads concurrently — the read path performs no
/// lazy work whatsoever. The Database must outlive every snapshot of it
/// (the snapshot reads the edge tables through a back-pointer), and
/// mutating it retires them: debug builds assert on the next access.
class Snapshot {
 public:
  /// Null snapshot (tests false); assign a real one from Freeze().
  Snapshot() = default;

  explicit operator bool() const { return db_ != nullptr; }

  /// Generation of the Database when this snapshot was frozen — the
  /// version key of the concurrent engine's session table.
  uint64_t generation() const { return generation_; }

  /// True iff the Database has not mutated since this freeze.
  bool fresh() const { return db_ != nullptr && db_->generation() == generation_; }

  /// Insert-only delta between \p prev_generation (an earlier frozen
  /// generation of the same Database) and this snapshot, from the
  /// freeze-time mark log. Unknown (never-frozen or aged-out)
  /// generations return known == false — the caller's cue to rebuild
  /// instead of repair. Defined after Database.
  EdgeDelta DeltaFrom(uint64_t prev_generation) const;

  /// Debug-only staleness check, compiled away under NDEBUG — the one
  /// guard of every structure built from this snapshot.
  void AssertFresh() const {
    assert(fresh() &&
           "stale Snapshot: the Database was mutated after Freeze()");
  }

  /// The underlying database. Prefer the forwarding accessors below —
  /// they carry the staleness assert.
  const Database& db() const { return *db_; }

  /// The label-stratified adjacency, built at freeze time. Plain const
  /// read; safe to share across threads.
  const LabelIndex& label_index() const {
    AssertFresh();
    return *index_;
  }

  /// Rank of edge \p id in the label-stratified target pool (the
  /// (src, label, insertion) order; see LabelIndex::PositionOf) — the
  /// candidate-queue seek key of the memoryless pipeline.
  uint32_t tgt_idx(uint32_t id) const { return label_index().PositionOf(id); }

  uint32_t num_vertices() const {
    AssertFresh();
    return db_->num_vertices();
  }
  size_t num_edges() const {
    AssertFresh();
    return db_->num_edges();
  }
  /// |D| = |V| + |E|, as in the paper's complexity statements.
  size_t size() const {
    AssertFresh();
    return db_->size();
  }
  const Edge& edge(uint32_t id) const {
    AssertFresh();
    return db_->edge(id);
  }
  uint32_t src(uint32_t id) const { return edge(id).src; }
  uint32_t dst(uint32_t id) const { return edge(id).dst; }
  const std::vector<uint32_t>& OutEdges(uint32_t v) const {
    AssertFresh();
    return db_->OutEdges(v);
  }
  const LabelDictionary& labels() const {
    AssertFresh();
    return db_->labels();
  }

 private:
  friend class Database;
  Snapshot(const Database* db, std::shared_ptr<const LabelIndex> index,
           uint64_t generation)
      : db_(db), index_(std::move(index)), generation_(generation) {}

  const Database* db_ = nullptr;
  std::shared_ptr<const LabelIndex> index_;
  uint64_t generation_ = 0;
};

inline Snapshot Database::Freeze() {
  if (!frozen_index_ || frozen_generation_ != generation_) {
    auto ix = std::make_shared<LabelIndex>();
    BuildLabelIndex(*ix);
    frozen_index_ = std::move(ix);
    frozen_generation_ = generation_;
  }
  if (freeze_marks_.empty() || freeze_marks_.back().generation != generation_) {
    if (freeze_marks_.size() >= kMaxFreezeMarks)
      freeze_marks_.erase(freeze_marks_.begin());
    freeze_marks_.push_back(FreezeMark{generation_, num_vertices(),
                                       static_cast<uint32_t>(num_edges())});
  }
  return Snapshot(this, frozen_index_, generation_);
}

inline EdgeDelta Snapshot::DeltaFrom(uint64_t prev_generation) const {
  AssertFresh();
  if (prev_generation == generation_)
    return EdgeDelta{true, db_->num_vertices(),
                     static_cast<uint32_t>(db_->num_edges())};
  if (prev_generation > generation_) return EdgeDelta{};
  for (const Database::FreezeMark& mark : db_->freeze_marks_)
    if (mark.generation == prev_generation)
      return EdgeDelta{true, mark.num_vertices, mark.num_edges};
  return EdgeDelta{};
}

}  // namespace dsw

#endif  // DSW_CORE_DATABASE_H_
