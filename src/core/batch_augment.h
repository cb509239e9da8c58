// Batched incremental transversal maintenance over a snapshot/delta graph.
//
// This generalizes DynamicDarc's per-edge AUGMENT/PRUNE to batch mode for
// the online cycle-break service: a batch of edges is inserted into an
// OverlayGraph at once, each edge's "does it close an uncovered
// constrained cycle?" probe runs speculatively in parallel on the
// engine's ThreadPool (the PR 2 probe-executor pattern: frozen state,
// per-worker scratch, sequential commit), and one PRUNE pass restores
// minimality of the edges committed this batch.
//
// Coverage has two layers:
//   * BaseCover — the vertex cover produced by the last full
//     SolveCycleCover over the compacted snapshot. An edge whose source
//     vertex is in the base cover is covered (every constrained cycle
//     through a covered vertex uses exactly one of its out-edges), and
//     this layer is immutable between compactions, so published states
//     share it by pointer.
//   * covered (S) / reusable (W) edge sets — the incremental layer the
//     batch augment maintains, exactly DynamicDarc's S and W but keyed by
//     overlay edge ids and starting from a covered base instead of an
//     empty graph.
//
// Parallel speculation is exact: probes run against the state frozen
// after all insertions but before any commit, and during the commit loop
// coverage only GROWS (PRUNE runs after the last commit), so a
// speculative "closes nothing" verdict can never be invalidated — paths
// avoiding the grown covered set also avoided the frozen one. Verdicts
// that did find a cycle are re-run inline against live state. The
// committed S/W sets are therefore bit-identical with and without a pool,
// at every thread count.
//
// Everything below BatchAugment is templated over the graph type. A
// GraphT needs num_vertices(), EdgeSrc/EdgeDst(EdgeId) and
// ForEachOut(v, fn(VertexId, EdgeId)); edge ids only need to be stable
// and unique per (src, dst).
#ifndef TDB_CORE_BATCH_AUGMENT_H_
#define TDB_CORE_BATCH_AUGMENT_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/cover_options.h"
#include "graph/overlay_graph.h"
#include "search/bounded_reach.h"
#include "search/search_context.h"
#include "util/epoch_array.h"
#include "util/thread_pool.h"

namespace tdb {

/// Immutable product of one compaction: the base snapshot's vertex cover.
struct BaseCover {
  /// vertex_mask[v] == 1 iff v is in the cover; sized to the universe.
  std::vector<uint8_t> vertex_mask;
  /// The same cover as a sorted vertex list.
  std::vector<VertexId> vertices;
  /// Status of the solve that produced it (ok, or the failure that forced
  /// the all-vertices fallback).
  Status solve_status;

  /// Builds from a solver cover (sorted or not) over `n` vertices.
  static std::shared_ptr<const BaseCover> FromVertexCover(
      VertexId n, std::vector<VertexId> cover, Status status);
};

/// The maintained transversal: shared base layer + incremental edge sets.
/// Copying costs O(|S| + |W|); the base is shared.
struct TransversalState {
  std::shared_ptr<const BaseCover> base;
  /// S: overlay edge ids covered by incremental augmentation.
  std::unordered_set<EdgeId> covered;
  /// W: previously pruned edges, preferred for re-covering (DARC's W).
  std::unordered_set<EdgeId> reusable;

  bool VertexCovered(VertexId v) const {
    return base != nullptr && base->vertex_mask[v] != 0;
  }
  /// True iff edge `e` of `graph` intersects the transversal.
  template <class GraphT>
  bool EdgeCovered(const GraphT& graph, EdgeId e) const {
    return VertexCovered(graph.EdgeSrc(e)) || covered.count(e) > 0;
  }
};

/// Bounded uncovered-simple-path existence search over a graph view.
/// Plain DFS with an on-path stack (paths have at most k-1 hops, so the
/// stack stays tiny); one prober per thread — the scratch is not shared.
class PathProber {
 public:
  /// Only options.k and options.include_two_cycles are consulted.
  explicit PathProber(const CoverOptions& options) {
    const uint32_t min_len = options.include_two_cycles ? 2 : 3;
    min_path_ = min_len - 1;
    max_path_ = options.k - 1;
  }

  /// True iff an uncovered simple path src -> dst with hop count in
  /// [min_len - 1, k - 1] exists ("would the edge dst -> src close a
  /// qualifying cycle?"). When `path` is non-null and a path exists it
  /// receives the vertex sequence src..dst.
  template <class GraphT>
  bool FindPath(const GraphT& graph, const TransversalState& state,
                VertexId src, VertexId dst, std::vector<VertexId>* path) {
    ++queries_;
    if (path != nullptr) path->clear();
    on_path_.clear();
    on_path_.push_back(src);
    const bool found = Dfs(graph, state, src, dst, 0, path);
    if (found && path != nullptr) {
      // Dfs appends the suffix (dst first, then intermediates as the
      // recursion unwinds); normalize to src..dst order.
      std::reverse(path->begin(), path->end());
      path->insert(path->begin(), src);
    }
    return found;
  }

  /// Shared-source batch form of FindPath: writes into found[j] whether
  /// an uncovered simple path src -> targets[j] with hop count in
  /// [min_len - 1, k - 1] exists. One hop-bounded BFS over the uncovered
  /// subgraph (search/bounded_reach.h) decides every target at once —
  /// the exact shortest uncovered distance forces the verdict whenever
  /// it lands inside or beyond the qualifying band — and only the
  /// below-band residue (a bare src -> target edge while 2-cycles are
  /// excluded) re-runs the exact DFS. Verdicts are bit-identical to
  /// per-target FindPath calls. `ctx` carries the BFS scratch; like the
  /// prober itself, one per concurrent thread. Returns the number of
  /// DFS fallbacks taken.
  template <class GraphT>
  size_t FindPathsFrom(const GraphT& graph, const TransversalState& state,
                       VertexId src, std::span<const VertexId> targets,
                       SearchContext* ctx, uint8_t* found) {
    // Sentinel for "marked as a target, not reached by the sweep".
    constexpr uint32_t kUnreached = 0xffffffffu;
    const VertexId n = graph.num_vertices();
    target_dist_.Resize(n);
    target_dist_.NewEpoch();
    for (const VertexId t : targets) {
      if (t < n) target_dist_.Set(t, kUnreached);
    }
    BoundedReach(
        graph, ReachDirection::kForward, std::span<const VertexId>(&src, 1),
        max_path_, ctx,
        [&](EdgeId e) { return !state.EdgeCovered(graph, e); },
        [&](VertexId w, uint32_t depth) {
          if (target_dist_.IsSet(w) && target_dist_.Get(w) == kUnreached) {
            target_dist_.Set(w, depth);
          }
        });
    size_t fallbacks = 0;
    for (size_t j = 0; j < targets.size(); ++j) {
      const VertexId t = targets[j];
      const uint32_t d = t < n ? target_dist_.Get(t) : kUnreached;
      if (d == kUnreached) {
        // No uncovered walk of <= k - 1 hops, hence no qualifying path.
        found[j] = 0;
      } else if (d >= min_path_) {
        // The shortest uncovered walk is a simple path inside the band.
        found[j] = 1;
      } else {
        // Below-band distance: a longer qualifying path may still exist.
        ++fallbacks;
        found[j] = FindPath(graph, state, src, t, nullptr) ? 1 : 0;
      }
    }
    return fallbacks;
  }

  uint64_t queries() const { return queries_; }
  uint32_t min_path() const { return min_path_; }
  uint32_t max_path() const { return max_path_; }

 private:
  template <class GraphT>
  bool Dfs(const GraphT& graph, const TransversalState& state, VertexId u,
           VertexId dst, uint32_t depth, std::vector<VertexId>* path) {
    bool found = false;
    graph.ForEachOut(u, [&](VertexId w, EdgeId e) {
      if (state.EdgeCovered(graph, e)) return true;
      if (w == dst) {
        const uint32_t len = depth + 1;
        if (len < min_path_ || len > max_path_) return true;
        if (path != nullptr) path->push_back(dst);
        found = true;
        return false;
      }
      if (depth + 2 > max_path_) return true;
      if (std::find(on_path_.begin(), on_path_.end(), w) != on_path_.end()) {
        return true;
      }
      on_path_.push_back(w);
      found = Dfs(graph, state, w, dst, depth + 1, path);
      on_path_.pop_back();
      if (found) {
        if (path != nullptr) path->push_back(w);
        return false;
      }
      return true;
    });
    return found;
  }

  uint32_t min_path_;
  uint32_t max_path_;
  std::vector<VertexId> on_path_;
  /// FindPathsFrom scratch: per-target shortest distances of one sweep.
  EpochArray<uint32_t> target_dist_;
  uint64_t queries_ = 0;
};

/// Instrumentation from one BatchAugment call.
struct BatchAugmentStats {
  uint64_t submitted = 0;
  uint64_t inserted = 0;
  /// Self-loops, duplicates, out-of-universe endpoints.
  uint64_t rejected = 0;
  uint64_t cycles_covered = 0;
  uint64_t path_queries = 0;
  /// Speculative probes fanned onto the pool (0 when pool is null).
  uint64_t speculative_probes = 0;
  /// Speculative "closes nothing" verdicts committed without re-search.
  uint64_t speculative_clean = 0;
  /// Edges demoted S -> W (or dropped as redundant) by the PRUNE pass.
  uint64_t prunes = 0;
};

namespace augment_detail {

/// Edge ids along `path` (a vertex sequence whose consecutive pairs are
/// edges of `graph`). OverlayGraph rejects duplicate (u, v) pairs, so the
/// first match per hop is the only one.
template <class GraphT>
void PathEdgeIds(const GraphT& graph, const std::vector<VertexId>& path,
                 std::vector<EdgeId>* edges) {
  edges->clear();
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    graph.ForEachOut(path[i], [&](VertexId w, EdgeId e) {
      if (w != path[i + 1]) return true;
      edges->push_back(e);
      return false;
    });
  }
}

/// Sequential AUGMENT for edge `e` against live state: cover every
/// uncovered cycle e closes, reusing a W edge when the found cycle holds
/// one (DARC's preference — W edges already proved removable once).
/// Every edge committed to S lands in `pending` for the PRUNE pass.
template <class GraphT>
void AugmentEdge(const GraphT& graph, TransversalState* state,
                 PathProber* prober, EdgeId e, std::vector<EdgeId>* pending,
                 BatchAugmentStats* stats) {
  std::vector<VertexId> path;
  std::vector<EdgeId> cycle_edges;
  while (!state->EdgeCovered(graph, e)) {
    if (!prober->FindPath(graph, *state, graph.EdgeDst(e), graph.EdgeSrc(e),
                          &path)) {
      break;
    }
    ++stats->cycles_covered;
    PathEdgeIds(graph, path, &cycle_edges);
    cycle_edges.push_back(e);
    EdgeId w_edge = kInvalidEdge;
    for (EdgeId ce : cycle_edges) {
      if (state->reusable.count(ce) > 0) {
        w_edge = ce;
        break;
      }
    }
    if (w_edge != kInvalidEdge) {
      state->reusable.erase(w_edge);
      state->covered.insert(w_edge);
      pending->push_back(w_edge);
    } else {
      for (EdgeId ce : cycle_edges) {
        state->covered.insert(ce);
        pending->push_back(ce);
      }
    }
  }
}

/// PRUNE over the edges this batch committed: drop an edge from S when no
/// otherwise-uncovered cycle needs it (to W, for later reuse) or when the
/// base layer already covers it (for good).
template <class GraphT>
void PruneCommitted(const GraphT& graph, TransversalState* state,
                    PathProber* prober, std::vector<EdgeId>* pending,
                    BatchAugmentStats* stats) {
  while (!pending->empty()) {
    const EdgeId e = pending->back();
    pending->pop_back();
    if (state->covered.erase(e) == 0) continue;
    if (state->EdgeCovered(graph, e)) {
      ++stats->prunes;  // redundant: the base layer covers it anyway
      continue;
    }
    if (prober->FindPath(graph, *state, graph.EdgeDst(e), graph.EdgeSrc(e),
                         nullptr)) {
      state->covered.insert(e);  // still carries an otherwise-uncovered cycle
    } else {
      state->reusable.insert(e);
      ++stats->prunes;
    }
  }
}

}  // namespace augment_detail

/// The post-insertion half of BatchAugment: given `added` (the edge ids a
/// caller already inserted into `graph`, in batch order), restores the
/// invariant that the transversal intersects every constrained cycle of
/// the grown graph, then PRUNEs the batch's commits back to minimality.
/// With a non-null `pool`, per-edge cycle probes run speculatively in
/// parallel against the frozen post-insert state; the resulting S/W sets
/// are bit-identical to the pool-less run at every thread count. Fills
/// cycles_covered / path_queries / speculative_* / prunes of `stats`
/// (submitted / inserted / rejected stay the caller's).
template <class GraphT>
void AugmentInserted(const GraphT& graph, TransversalState* state,
                     const CoverOptions& options,
                     std::span<const EdgeId> added, ThreadPool* pool,
                     BatchAugmentStats* stats) {
  // Speculative phase: probe every new edge against the state frozen
  // after the insertions but before any commit. "Closes nothing" verdicts
  // stay valid through the whole commit loop because coverage only grows
  // until PRUNE (which runs after the last commit) — see the header.
  const bool speculate = pool != nullptr && added.size() > 1;
  std::vector<uint8_t> closes(added.size(), 1);
  if (speculate) {
    std::vector<PathProber> probers(pool->num_threads(),
                                    PathProber(options));
    pool->ParallelFor(added.size(), [&](size_t i, int w) {
      const EdgeId e = added[i];
      closes[i] = probers[w].FindPath(graph, *state, graph.EdgeDst(e),
                                      graph.EdgeSrc(e), nullptr)
                      ? 1
                      : 0;
    });
    for (const PathProber& p : probers) {
      stats->speculative_probes += p.queries();
    }
  }

  PathProber prober(options);
  std::vector<EdgeId> pending;
  for (size_t i = 0; i < added.size(); ++i) {
    if (speculate && closes[i] == 0) {
      ++stats->speculative_clean;
      continue;
    }
    augment_detail::AugmentEdge(graph, state, &prober, added[i], &pending,
                                stats);
  }
  augment_detail::PruneCommitted(graph, state, &prober, &pending, stats);
  stats->path_queries += prober.queries();
}

/// Inserts `batch` into `graph` and restores the invariant that the
/// transversal (base cover + S) intersects every constrained cycle of the
/// grown graph. With a non-null `pool`, per-edge cycle probes run
/// speculatively in parallel; the resulting state is identical to the
/// pool-less run. Only options.k and options.include_two_cycles are
/// consulted (they must match the state's history).
BatchAugmentStats BatchAugment(OverlayGraph* graph, TransversalState* state,
                               const CoverOptions& options,
                               std::span<const Edge> batch,
                               ThreadPool* pool);

}  // namespace tdb

#endif  // TDB_CORE_BATCH_AUGMENT_H_
