#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "graph/compressed_csr.h"
#include "graph/graph_io.h"
#include "graph/scc.h"
#include "util/rng.h"

namespace ledger {

namespace {

// Stream salts keep the shuffle and the query set independent of the
// generator's own use of the seed.
constexpr uint64_t kShuffleSalt = 0x5DEECE66DULL;
constexpr uint64_t kQuerySalt = 0x2545F4914F6CDD1DULL;

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;
  {
    // TW proxy (bench/datasets.cc parameters: d_avg 70.5, theta 0.78,
    // reciprocity 0.25): one giant SCC, solver-dominated.
    Workload w;
    w.name = "giant_scc";
    w.graph_seed = 0x5457;
    w.n = 12000;
    w.m = 423000;
    w.theta = 0.78;
    w.reciprocity = 0.25;
    w.stream_share = 0.03;
    w.replay_batches = 31;
    w.recover_reps = 3;
    w.admit_rounds = 1;
    w.queries = 4096;
    w.min_giant_scc_share = 0.9;
    out.push_back(w);
  }
  {
    // Sparse power-law stream: the service write path and real gate
    // probes dominate; the offline solve is cheap.
    Workload w;
    w.name = "sparse_stream";
    w.graph_seed = 0x5053;
    w.n = 50000;
    w.m = 150000;
    w.theta = 0.7;
    w.reciprocity = 0.3;
    w.stream_share = 0.5;
    w.replay_batches = 143;
    w.recover_reps = 5;
    w.admit_rounds = 2;
    w.queries = 16384;
    out.push_back(w);
  }
  {
    // LJ proxy (d_avg 21, theta 0.70, reciprocity 0.6) served from the
    // compressed base: every adjacency scan decodes delta/varint blocks.
    Workload w;
    w.name = "compressed_base";
    w.graph_seed = 0x4C4A;
    w.n = 12000;
    w.m = 126000;
    w.theta = 0.70;
    w.reciprocity = 0.6;
    w.stream_share = 0.15;
    w.replay_batches = 47;
    w.compressed_base = true;
    w.recover_reps = 3;
    w.admit_rounds = 1;
    w.queries = 4096;
    w.min_compression = 2.0;
    out.push_back(w);
  }
  return out;
}

/// A simple walk start -> ... of `hops` edges along random out-edges, or
/// empty when the walk got stuck.
std::vector<tdb::VertexId> RandomSimpleWalk(const tdb::CsrGraph& g,
                                            tdb::VertexId start,
                                            uint32_t hops, tdb::Rng* rng) {
  std::vector<tdb::VertexId> walk{start};
  while (walk.size() <= hops) {
    const auto out = g.OutNeighbors(walk.back());
    if (out.empty()) return {};
    bool stepped = false;
    for (int attempt = 0; attempt < 8 && !stepped; ++attempt) {
      const tdb::VertexId next = out[rng->NextBounded(out.size())];
      if (std::find(walk.begin(), walk.end(), next) == walk.end()) {
        walk.push_back(next);
        stepped = true;
      }
    }
    if (!stepped) return {};
  }
  return walk;
}

std::vector<tdb::Edge> MakeQueries(const Workload& w, const tdb::CsrGraph& g,
                                   uint64_t seed) {
  tdb::Rng rng(seed ^ kQuerySalt);
  const tdb::VertexId n = g.num_vertices();
  std::vector<tdb::Edge> queries;
  queries.reserve(w.queries);
  // Half uniform pairs: mostly decided by the prechecks or a short
  // probe that finds nothing.
  while (queries.size() < w.queries / 2) {
    const auto u = static_cast<tdb::VertexId>(rng.NextBounded(n));
    const auto v = static_cast<tdb::VertexId>(rng.NextBounded(n));
    if (u != v) queries.push_back(tdb::Edge{u, v});
  }
  // Half reversed short walks s -> ... -> t (2..k-1 hops), asked as
  // t -> s: each closes a cycle of 3..k hops unless the transversal
  // already breaks it.
  while (queries.size() < w.queries) {
    const auto start = static_cast<tdb::VertexId>(rng.NextBounded(n));
    const auto hops = static_cast<uint32_t>(2 + rng.NextBounded(kHops - 2));
    const std::vector<tdb::VertexId> walk =
        RandomSimpleWalk(g, start, hops, &rng);
    if (!walk.empty()) queries.push_back(tdb::Edge{walk.back(), start});
  }
  for (size_t i = queries.size(); i > 1; --i) {
    std::swap(queries[i - 1], queries[rng.NextBounded(i)]);
  }
  return queries;
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> workloads = MakeWorkloads();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string FullGraphPath(const std::string& dir) { return dir + "/full.tdbg"; }
std::string BaseGraphPath(const std::string& dir) { return dir + "/base.tdbg"; }
std::string StreamPath(const std::string& dir) { return dir + "/stream.txt"; }
std::string QueryPath(const std::string& dir) { return dir + "/queries.txt"; }

tdb::Status GenerateInputs(const Workload& w, uint64_t seed,
                           const std::string& dir) {
  tdb::PowerLawParams params;
  params.n = w.n;
  params.m = w.m;
  params.theta = w.theta;
  params.reciprocity = w.reciprocity;
  params.seed = w.graph_seed;
  const tdb::CsrGraph g = tdb::GeneratePowerLaw(params);
  const tdb::EdgeId m = g.num_edges();

  // Shape gates: a generator change must not silently swap a workload.
  const double edge_ratio =
      static_cast<double>(m) / static_cast<double>(w.m);
  if (g.num_vertices() != w.n || edge_ratio < 0.95 || edge_ratio > 1.05) {
    return tdb::Status::Internal(
        "input shape: |V|=" + std::to_string(g.num_vertices()) +
        " |E|=" + std::to_string(m) + ", expected |V|=" +
        std::to_string(w.n) + " and |E| within 5% of " +
        std::to_string(w.m));
  }
  std::fprintf(stderr, "ledger: input %s seed %llu: |V|=%u |E|=%llu",
               w.name.c_str(), static_cast<unsigned long long>(seed),
               g.num_vertices(), static_cast<unsigned long long>(m));
  if (w.min_giant_scc_share > 0.0) {
    const tdb::SccResult scc = tdb::ComputeScc(g);
    const tdb::VertexId giant = *std::max_element(
        scc.component_size.begin(), scc.component_size.end());
    const double share =
        static_cast<double>(giant) / static_cast<double>(g.num_vertices());
    std::fprintf(stderr, " giant_scc_share=%.3f", share);
    if (share < w.min_giant_scc_share) {
      std::fprintf(stderr, "\n");
      return tdb::Status::Internal("input shape: giant SCC share " +
                                   std::to_string(share) + " below " +
                                   std::to_string(w.min_giant_scc_share));
    }
  }
  if (w.min_compression > 0.0) {
    const uint64_t packed =
        tdb::CompressedCsr::FromCsr(g).MemoryFootprint().total();
    const double ratio =
        static_cast<double>(
            tdb::CompressedCsr::RawCsrBytes(g.num_vertices(), m)) /
        static_cast<double>(packed);
    std::fprintf(stderr, " compression=%.2fx", ratio);
    if (ratio < w.min_compression) {
      std::fprintf(stderr, "\n");
      return tdb::Status::Internal("input shape: compression ratio " +
                                   std::to_string(ratio) + " below " +
                                   std::to_string(w.min_compression));
    }
  }

  // Seeded arrival order; the last stream_share of it is held out.
  std::vector<tdb::Edge> edges;
  edges.reserve(m);
  for (tdb::EdgeId e = 0; e < m; ++e) {
    edges.push_back(tdb::Edge{g.EdgeSrc(e), g.EdgeDst(e)});
  }
  tdb::Rng rng(seed ^ kShuffleSalt);
  for (size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.NextBounded(i)]);
  }
  const auto held_out = static_cast<size_t>(
      std::llround(w.stream_share * static_cast<double>(m)));
  const size_t base_edges = edges.size() - held_out;
  std::fprintf(stderr, " base=%zu stream=%zu\n", base_edges, held_out);

  std::vector<tdb::TimedEdge> stream;
  stream.reserve(held_out);
  for (size_t i = base_edges; i < edges.size(); ++i) {
    stream.push_back(tdb::TimedEdge{edges[i].src, edges[i].dst,
                                    static_cast<uint64_t>(i - base_edges)});
  }
  edges.resize(base_edges);

  tdb::Status st = tdb::SaveBinary(g, FullGraphPath(dir));
  if (!st.ok()) return st;
  st = tdb::SaveBinary(tdb::CsrGraph::FromEdges(w.n, std::move(edges)),
                       BaseGraphPath(dir));
  if (!st.ok()) return st;
  st = tdb::SaveEdgeStreamText(stream, StreamPath(dir));
  if (!st.ok()) return st;

  const std::vector<tdb::Edge> queries = MakeQueries(w, g, seed);
  std::FILE* f = std::fopen(QueryPath(dir).c_str(), "w");
  if (f == nullptr) return tdb::Status::IOError(QueryPath(dir));
  for (const tdb::Edge& q : queries) {
    std::fprintf(f, "%u %u\n", q.src, q.dst);
  }
  if (std::fclose(f) != 0) return tdb::Status::IOError(QueryPath(dir));
  return tdb::Status::OK();
}

tdb::Status LoadQueries(const std::string& path,
                        std::vector<tdb::Edge>* queries) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return tdb::Status::IOError(path + ": cannot open");
  queries->clear();
  unsigned u = 0;
  unsigned v = 0;
  while (std::fscanf(f, "%u %u", &u, &v) == 2) {
    queries->push_back(tdb::Edge{u, v});
  }
  std::fclose(f);
  return tdb::Status::OK();
}

}  // namespace ledger
