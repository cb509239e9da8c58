#include "oracles.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>

#include "util/rng.h"

namespace ledger {

Digraph::Digraph(VertexId n, std::vector<Edge> edges) : n_(n) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [](const Edge& e) { return e.src == e.dst; }),
              edges.end());
  edges_ = std::move(edges);
  out_offsets_.assign(static_cast<size_t>(n) + 1, 0);
  in_offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : edges_) {
    ++out_offsets_[e.src + 1];
    ++in_offsets_[e.dst + 1];
  }
  for (VertexId v = 0; v < n; ++v) {
    out_offsets_[v + 1] += out_offsets_[v];
    in_offsets_[v + 1] += in_offsets_[v];
  }
  in_edges_.resize(edges_.size());
  std::vector<size_t> fill(in_offsets_.begin(), in_offsets_.end() - 1);
  for (size_t e = 0; e < edges_.size(); ++e) {
    in_edges_[fill[edges_[e].dst]++] = static_cast<uint32_t>(e);
  }
}

size_t Digraph::Find(VertexId u, VertexId v) const {
  if (u >= n_) return m();
  const auto first = edges_.begin() + static_cast<ptrdiff_t>(OutBegin(u));
  const auto last = edges_.begin() + static_cast<ptrdiff_t>(OutEnd(u));
  const auto it = std::lower_bound(first, last, Edge{u, v});
  return it != last && it->dst == v ? static_cast<size_t>(it - edges_.begin())
                                    : m();
}

std::string MakeTransversal(const Digraph& g, std::span<const VertexId> cover,
                            std::span<const Edge> covered, Transversal* out) {
  out->vertex.assign(g.n(), 0);
  out->edge.assign(g.m(), 0);
  for (const VertexId v : cover) {
    if (v >= g.n()) {
      return "cover vertex " + std::to_string(v) + " out of range";
    }
    out->vertex[v] = 1;
  }
  for (const Edge& e : covered) {
    const size_t id = g.Find(e.src, e.dst);
    if (id == g.m()) {
      return "covered edge " + std::to_string(e.src) + "->" +
             std::to_string(e.dst) + " is not in the graph";
    }
    out->edge[id] = 1;
  }
  return "";
}

namespace {

constexpr uint32_t kFar = std::numeric_limits<uint32_t>::max();

/// Per-thread bounded search: a reverse BFS that labels hop distances
/// to a target, then a DFS over simple paths pruned by those labels.
class Searcher {
 public:
  explicit Searcher(const Digraph& g)
      : g_(g), dist_(g.n(), kFar), on_path_(g.n(), 0) {}

  /// Labels every vertex within `max_hops` open hops of `target`
  /// (through allowed vertices only) with its distance.
  template <class Allowed, class Open>
  void LabelDistancesTo(VertexId target, uint32_t max_hops, Allowed allowed,
                        Open open) {
    for (const VertexId v : labeled_) dist_[v] = kFar;
    labeled_.clear();
    frontier_.assign(1, target);
    dist_[target] = 0;
    labeled_.push_back(target);
    for (uint32_t d = 1; d <= max_hops && !frontier_.empty(); ++d) {
      next_.clear();
      for (const VertexId x : frontier_) {
        for (const uint32_t e : g_.InEdges(x)) {
          const VertexId w = g_.edges()[e].src;
          if (dist_[w] != kFar || !open(e) || !allowed(w)) continue;
          dist_[w] = d;
          labeled_.push_back(w);
          next_.push_back(w);
        }
      }
      frontier_.swap(next_);
    }
  }

  /// Is there a simple open path from `from` (at hop `depth`, already on
  /// the path) to the labeled target with min_hops..max_hops hops in
  /// total? Appends the path's interior to `path` when found.
  template <class Allowed, class Open>
  bool PathToTarget(VertexId from, VertexId target, uint32_t depth,
                    uint32_t min_hops, uint32_t max_hops, Allowed allowed,
                    Open open, std::vector<VertexId>* path) {
    for (size_t e = g_.OutBegin(from); e < g_.OutEnd(from); ++e) {
      if (!open(e)) continue;
      const VertexId y = g_.Target(e);
      const uint32_t hops = depth + 1;
      if (y == target) {
        if (hops >= min_hops) return true;
        continue;
      }
      if (hops >= max_hops || on_path_[y] != 0 || !allowed(y)) continue;
      if (dist_[y] == kFar || hops + dist_[y] > max_hops) continue;
      on_path_[y] = 1;
      path->push_back(y);
      const bool found = PathToTarget(y, target, hops, min_hops, max_hops,
                                      allowed, open, path);
      on_path_[y] = 0;
      if (found) return true;
      path->pop_back();
    }
    return false;
  }

  /// A simple open path start ->* target of min_hops..max_hops hops (a
  /// cycle through `start` when target == start), written to `path`
  /// without its final vertex.
  template <class Allowed, class Open>
  bool SimplePath(VertexId start, VertexId target, uint32_t min_hops,
                  uint32_t max_hops, Allowed allowed, Open open,
                  std::vector<VertexId>* path) {
    LabelDistancesTo(target, max_hops - 1, allowed, open);
    path->assign(1, start);
    on_path_[start] = 1;
    const bool found = PathToTarget(start, target, 0, min_hops, max_hops,
                                    allowed, open, path);
    on_path_[start] = 0;
    return found;
  }

 private:
  const Digraph& g_;
  std::vector<uint32_t> dist_;
  std::vector<uint8_t> on_path_;
  std::vector<VertexId> labeled_;
  std::vector<VertexId> frontier_;
  std::vector<VertexId> next_;
};

/// Runs fn(searcher, i) for i in [0, count) on `threads` workers, each
/// with its own Searcher; chunks are claimed dynamically.
void ParallelFor(const Digraph& g, size_t count, int threads,
                 const std::function<void(Searcher*, size_t)>& fn) {
  std::atomic<size_t> next{0};
  constexpr size_t kChunk = 64;
  auto worker = [&]() {
    Searcher searcher(g);
    for (;;) {
      const size_t begin = next.fetch_add(kChunk);
      if (begin >= count) return;
      const size_t end = std::min(count, begin + kChunk);
      for (size_t i = begin; i < end; ++i) fn(&searcher, i);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& th : pool) th.join();
}

}  // namespace

std::vector<VertexId> FindOpenCycle(const Digraph& g, const Transversal& t,
                                    uint32_t k, int threads) {
  std::atomic<bool> found{false};
  std::vector<VertexId> witness;
  std::mutex witness_mu;
  ParallelFor(g, g.n(), threads, [&](Searcher* searcher, size_t i) {
    const auto s = static_cast<VertexId>(i);
    if (found.load(std::memory_order_relaxed) || t.vertex[s] != 0) return;
    // Each cycle is found from its smallest vertex.
    auto allowed = [&](VertexId w) { return w > s && t.vertex[w] == 0; };
    auto open = [&](size_t e) {
      return t.edge[e] == 0 && t.vertex[g.edges()[e].src] == 0;
    };
    std::vector<VertexId> path;
    if (searcher->SimplePath(s, s, 3, k, allowed, open, &path)) {
      std::lock_guard<std::mutex> lock(witness_mu);
      if (!found.exchange(true)) witness = path;
    }
  });
  return witness;
}

std::vector<VertexId> VerticesWithoutWitness(const Digraph& g,
                                             std::span<const VertexId> cover,
                                             uint32_t k, int threads) {
  std::vector<uint8_t> in_cover(g.n(), 0);
  for (const VertexId v : cover) in_cover[v] = 1;
  std::vector<uint8_t> has_witness(cover.size(), 0);
  ParallelFor(g, cover.size(), threads, [&](Searcher* searcher, size_t i) {
    const VertexId c = cover[i];
    auto allowed = [&](VertexId w) { return in_cover[w] == 0; };
    auto open = [&](size_t e) {
      const VertexId src = g.edges()[e].src;
      return src == c || in_cover[src] == 0;
    };
    std::vector<VertexId> path;
    has_witness[i] = searcher->SimplePath(c, c, 3, k, allowed, open, &path);
  });
  std::vector<VertexId> missing;
  for (size_t i = 0; i < cover.size(); ++i) {
    if (has_witness[i] == 0) missing.push_back(cover[i]);
  }
  return missing;
}

std::vector<uint8_t> WouldClose(const Digraph& g, const Transversal& t,
                                std::span<const Edge> queries, uint32_t k,
                                int threads) {
  std::vector<uint8_t> out(queries.size(), 0);
  auto allowed = [&](VertexId w) { return t.vertex[w] == 0; };
  auto open = [&](size_t e) {
    return t.edge[e] == 0 && t.vertex[g.edges()[e].src] == 0;
  };
  ParallelFor(g, queries.size(), threads, [&](Searcher* searcher, size_t i) {
    const VertexId u = queries[i].src;
    const VertexId v = queries[i].dst;
    if (u == v || u >= g.n() || v >= g.n()) return;
    if (t.vertex[u] != 0 || t.vertex[v] != 0) return;
    if (g.Find(u, v) != g.m()) return;
    // The new edge u -> v is open; the rest of the cycle is an open
    // simple path v ->* u of 2..k-1 hops.
    std::vector<VertexId> path;
    out[i] = searcher->SimplePath(v, u, 2, k - 1, allowed, open, &path);
  });
  return out;
}

// ------------------------------------------------------------ self-check

namespace {

/// Every simple cycle of 3..k hops, each once (smallest vertex first).
std::vector<std::vector<VertexId>> AllCycles(const Digraph& g, uint32_t k) {
  std::vector<std::vector<VertexId>> cycles;
  std::vector<VertexId> path;
  std::function<void(VertexId)> extend = [&](VertexId x) {
    for (size_t e = g.OutBegin(x); e < g.OutEnd(x); ++e) {
      const VertexId y = g.Target(e);
      if (y == path.front()) {
        if (path.size() >= 3) cycles.push_back(path);
      } else if (y > path.front() && path.size() < k &&
                 std::find(path.begin(), path.end(), y) == path.end()) {
        path.push_back(y);
        extend(y);
        path.pop_back();
      }
    }
  };
  for (VertexId s = 0; s < g.n(); ++s) {
    path.assign(1, s);
    extend(s);
  }
  return cycles;
}

bool CycleOpen(const Digraph& g, const Transversal& t,
               const std::vector<VertexId>& cycle) {
  for (size_t i = 0; i < cycle.size(); ++i) {
    const VertexId x = cycle[i];
    const VertexId y = cycle[(i + 1) % cycle.size()];
    if (t.vertex[x] != 0 || t.edge[g.Find(x, y)] != 0) return false;
  }
  return true;
}

Digraph RandomDigraph(tdb::Rng* rng, VertexId n, double p) {
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      if (u != v && rng->NextBool(p)) edges.push_back(Edge{u, v});
    }
  }
  return Digraph(n, std::move(edges));
}

}  // namespace

std::string SelfCheck(uint64_t seed) {
  tdb::Rng rng(seed);
  // Both outcomes of every oracle must occur, or the check has no teeth.
  uint64_t outcomes[3][2] = {};
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<VertexId>(5 + rng.NextBounded(8));
    const Digraph g = RandomDigraph(&rng, n, 0.12 + 0.3 * rng.NextDouble());
    const auto k = static_cast<uint32_t>(3 + rng.NextBounded(4));
    const std::vector<std::vector<VertexId>> cycles = AllCycles(g, k);
    const std::string where = "self-check trial " + std::to_string(trial);

    Transversal t;
    t.vertex.assign(n, 0);
    t.edge.assign(g.m(), 0);
    for (auto& b : t.vertex) b = rng.NextBool(0.2) ? 1 : 0;
    for (auto& b : t.edge) b = rng.NextBool(0.15) ? 1 : 0;

    // Cycle checker.
    bool naive_open = false;
    for (const auto& c : cycles) naive_open = naive_open || CycleOpen(g, t, c);
    const std::vector<VertexId> found = FindOpenCycle(g, t, k, 1);
    if (naive_open != !found.empty()) return where + ": cycle checker";
    if (!found.empty()) {
      const bool listed =
          std::find(cycles.begin(), cycles.end(), found) != cycles.end();
      if (!listed || !CycleOpen(g, t, found)) {
        return where + ": cycle checker returned a non-cycle";
      }
    }
    ++outcomes[0][naive_open ? 1 : 0];

    // Witness check on a random vertex set.
    std::vector<VertexId> cover;
    for (VertexId v = 0; v < n; ++v) {
      if (rng.NextBool(0.4)) cover.push_back(v);
    }
    const std::vector<VertexId> missing =
        VerticesWithoutWitness(g, cover, k, 1);
    for (const VertexId c : cover) {
      bool naive_witness = false;
      for (const auto& cyc : cycles) {
        if (std::find(cyc.begin(), cyc.end(), c) == cyc.end()) continue;
        bool clear = true;
        for (const VertexId x : cyc) {
          if (x != c && std::find(cover.begin(), cover.end(), x) !=
                            cover.end()) {
            clear = false;
          }
        }
        naive_witness = naive_witness || clear;
      }
      const bool oracle_witness =
          std::find(missing.begin(), missing.end(), c) == missing.end();
      if (naive_witness != oracle_witness) return where + ": witness check";
      ++outcomes[1][naive_witness ? 1 : 0];
    }

    // Admission oracle on every vertex pair: compare with the cycles of
    // the graph that has u -> v added.
    std::vector<Edge> queries;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = 0; v < n; ++v) queries.push_back(Edge{u, v});
    }
    const std::vector<uint8_t> verdicts = WouldClose(g, t, queries, k, 1);
    for (size_t i = 0; i < queries.size(); ++i) {
      const Edge q = queries[i];
      bool naive = false;
      if (q.src != q.dst && g.Find(q.src, q.dst) == g.m()) {
        std::vector<Edge> plus = g.edges();
        plus.push_back(q);
        const Digraph h(n, std::move(plus));
        Transversal th;
        th.vertex = t.vertex;
        th.edge.assign(h.m(), 0);
        for (size_t e = 0; e < g.m(); ++e) {
          th.edge[h.Find(g.edges()[e].src, g.edges()[e].dst)] = t.edge[e];
        }
        for (const auto& c : AllCycles(h, k)) {
          bool uses = false;
          for (size_t j = 0; j < c.size(); ++j) {
            uses = uses || (c[j] == q.src && c[(j + 1) % c.size()] == q.dst);
          }
          naive = naive || (uses && CycleOpen(h, th, c));
        }
      }
      if (naive != (verdicts[i] != 0)) return where + ": admission oracle";
      ++outcomes[2][naive ? 1 : 0];
    }
  }
  for (const auto& o : outcomes) {
    if (o[0] == 0 || o[1] == 0) return "self-check: an outcome never occurred";
  }
  return "";
}

}  // namespace ledger
