// Independent correctness oracles of the ledger.
//
// Nothing here calls into the library's search/ or core/ code: the
// checks run on the benchmark's own adjacency arrays with their own
// bounded searches, so a fault shared by the solver and the library's
// verifier cannot hide itself. Each oracle is checked against a naive
// exhaustive enumeration on small seeded graphs (SelfCheck) before it
// is trusted with a workload.
//
// Semantics (the library's default cycle model): a qualifying cycle is
// a simple directed cycle of 3..k hops. A transversal is a set of cover
// vertices plus a set of covered edges; an edge x -> y is open when x is
// not a cover vertex and the edge is not covered (every cycle through a
// cover vertex leaves it by one of its out-edges, so blocking the
// out-edges blocks the vertex).
#ifndef LEDGER_ORACLES_H_
#define LEDGER_ORACLES_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"

namespace ledger {

using tdb::Edge;
using tdb::VertexId;

/// Deduplicated adjacency in both directions, edges sorted by (src, dst);
/// edge e is edges()[e]. Self-loops are dropped.
class Digraph {
 public:
  Digraph(VertexId n, std::vector<Edge> edges);

  VertexId n() const { return n_; }
  size_t m() const { return edges_.size(); }
  const std::vector<Edge>& edges() const { return edges_; }
  size_t OutBegin(VertexId v) const { return out_offsets_[v]; }
  size_t OutEnd(VertexId v) const { return out_offsets_[v + 1]; }
  VertexId Target(size_t e) const { return edges_[e].dst; }
  /// In-edges of v as edge ids (their sources are edges()[id].src).
  std::span<const uint32_t> InEdges(VertexId v) const {
    return {in_edges_.data() + in_offsets_[v],
            in_edges_.data() + in_offsets_[v + 1]};
  }
  /// Edge id of u -> v, or m() when absent.
  size_t Find(VertexId u, VertexId v) const;

 private:
  VertexId n_ = 0;
  std::vector<Edge> edges_;
  std::vector<size_t> out_offsets_;
  std::vector<size_t> in_offsets_;
  std::vector<uint32_t> in_edges_;
};

/// Cover vertices and covered edges over one Digraph.
struct Transversal {
  std::vector<uint8_t> vertex;  // per vertex
  std::vector<uint8_t> edge;    // per edge id
};

/// Builds the mask form. Fails (empty message = ok) when a covered edge
/// is not an edge of `g`.
std::string MakeTransversal(const Digraph& g, std::span<const VertexId> cover,
                            std::span<const Edge> covered, Transversal* out);

/// Cycle checker: a simple cycle of 3..k hops made only of open edges,
/// as its vertex sequence, or empty when the transversal breaks every
/// such cycle. Searches from each start vertex over larger-id vertices
/// only, pruned by hop distance back to the start.
std::vector<VertexId> FindOpenCycle(const Digraph& g, const Transversal& t,
                                    uint32_t k, int threads);

/// Witness check (minimality): the cover vertices that lie on no cycle
/// of 3..k hops once they alone are put back (the rest of `cover` stays
/// blocked; no covered edges). Empty for a minimal cover.
std::vector<VertexId> VerticesWithoutWitness(const Digraph& g,
                                             std::span<const VertexId> cover,
                                             uint32_t k, int threads);

/// Admission oracle: would inserting u -> v close a simple cycle of
/// 3..k hops of open edges? False when u == v, an endpoint is outside
/// the graph or covered, or u -> v already exists; otherwise true iff an
/// open simple path v ->* u of 2..k-1 hops exists.
std::vector<uint8_t> WouldClose(const Digraph& g, const Transversal& t,
                                std::span<const Edge> queries, uint32_t k,
                                int threads);

/// Checks the three oracles against exhaustive enumeration of every
/// simple cycle and path on small seeded random graphs. Returns an
/// empty string on success, else what disagreed.
std::string SelfCheck(uint64_t seed);

}  // namespace ledger

#endif  // LEDGER_ORACLES_H_
