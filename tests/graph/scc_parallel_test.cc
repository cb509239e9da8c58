// Condensation feeding parallel consumers, the shape of the engine's
// condense-to-solve pipeline: the sink copies each finalized component
// and submits it to a ThreadPool, so components are consumed on worker
// threads while Tarjan is still decomposing the rest. On every graph
// shape, thread count and storage backend, the pooled consumers must see
// every vertex exactly once in sorted member lists, and attaching the
// sink must leave the canonical SccResult byte-identical to a sink-less
// run — including the degenerate shapes (DAGs, one giant cycle,
// self-loops, isolated vertices, the empty graph).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/compressed_csr.h"
#include "graph/generators.h"
#include "graph/scc.h"
#include "util/thread_pool.h"

namespace tdb {
namespace {

void ExpectSccEqual(const SccResult& expected, const SccResult& actual,
                    const std::string& label) {
  EXPECT_FALSE(actual.timed_out) << label;
  EXPECT_EQ(expected.num_components, actual.num_components) << label;
  EXPECT_EQ(expected.component, actual.component) << label;
  EXPECT_EQ(expected.component_size, actual.component_size) << label;
  EXPECT_EQ(expected.vertex_offsets, actual.vertex_offsets) << label;
  EXPECT_EQ(expected.vertices, actual.vertices) << label;
}

/// What the pooled consumers observed in one run.
struct PooledTally {
  explicit PooledTally(VertexId n) : seen(n) {}
  std::vector<std::atomic<uint32_t>> seen;
  std::atomic<uint64_t> components{0};
  std::atomic<uint64_t> unsorted{0};
};

/// Condenses `graph` with a sink that hands every component to a pool of
/// `threads` workers and returns the result once the pool has drained.
template <typename GraphT>
SccResult CondensePooled(const GraphT& graph, int threads,
                         const SccOptions& options, PooledTally* tally) {
  ThreadPool pool(threads);
  const ComponentSink sink = [&](std::span<const VertexId> members) {
    // The span dies with the call: copy before going asynchronous.
    auto copy = std::make_shared<std::vector<VertexId>>(members.begin(),
                                                        members.end());
    pool.Submit([copy, tally](int) {
      tally->components.fetch_add(1, std::memory_order_relaxed);
      const std::vector<VertexId>& m = *copy;
      for (size_t i = 0; i < m.size(); ++i) {
        if (i > 0 && m[i - 1] >= m[i]) {
          tally->unsorted.fetch_add(1, std::memory_order_relaxed);
        }
        tally->seen[m[i]].fetch_add(1, std::memory_order_relaxed);
      }
    });
  };
  SccResult result = CondenseScc(graph, options, sink);
  pool.Wait();
  return result;
}

void ExpectTallyComplete(const PooledTally& tally, const SccResult& r,
                         const std::string& label) {
  EXPECT_EQ(tally.components.load(), r.num_components) << label;
  EXPECT_EQ(tally.unsorted.load(), 0u) << label;
  for (size_t v = 0; v < tally.seen.size(); ++v) {
    ASSERT_EQ(tally.seen[v].load(), 1u) << label << " vertex " << v;
  }
}

/// Runs the pooled pipeline at 1/2/8 consumer threads on the raw and the
/// compressed backend, checking each run against the sink-less reference.
void CheckPooledPipeline(const CsrGraph& g, const std::string& label) {
  const SccResult reference = ComputeScc(g);
  const CompressedCsr compressed = CompressedCsr::FromCsr(g);
  for (int threads : {1, 2, 8}) {
    const std::string at = label + "@" + std::to_string(threads);
    {
      PooledTally tally(g.num_vertices());
      const SccResult r = CondensePooled(g, threads, SccOptions{}, &tally);
      ExpectSccEqual(reference, r, at + " raw");
      ExpectTallyComplete(tally, r, at + " raw");
    }
    {
      PooledTally tally(g.num_vertices());
      const SccResult r =
          CondensePooled(compressed, threads, SccOptions{}, &tally);
      ExpectSccEqual(reference, r, at + " compressed");
      ExpectTallyComplete(tally, r, at + " compressed");
    }
  }
}

TEST(SccParallelTest, RandomGraphSweep) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    CheckPooledPipeline(GenerateErdosRenyi(200, 700, seed),
                        "erdos-" + std::to_string(seed));
  }
  // Denser, fewer components: one big SCC plus fringe.
  CheckPooledPipeline(GenerateErdosRenyi(400, 2400, /*seed=*/11), "dense");
  // Sparse, many components.
  CheckPooledPipeline(GenerateErdosRenyi(500, 500, /*seed=*/13), "sparse");
  PowerLawParams p;
  p.n = 300;
  p.m = 1200;
  p.reciprocity = 0.25;
  p.seed = 17;
  CheckPooledPipeline(GeneratePowerLaw(p), "powerlaw");
}

TEST(SccParallelTest, DagIsAllSingletons) {
  CheckPooledPipeline(MakeLayeredFunnel(8, 6), "funnel");
  const CsrGraph path = MakeDirectedPath(3000);
  CheckPooledPipeline(path, "path");

  PooledTally tally(path.num_vertices());
  const SccResult r = CondensePooled(path, 4, SccOptions{}, &tally);
  EXPECT_EQ(r.num_components, 3000u);
  EXPECT_EQ(tally.components.load(), 3000u);
}

TEST(SccParallelTest, SingleGiantCycle) {
  CheckPooledPipeline(MakeDirectedCycle(5000), "giant-cycle");
  CheckPooledPipeline(GenerateChordedCycle(2000, 4, /*seed=*/23),
                      "chorded-cycle");
}

TEST(SccParallelTest, SelfLoopsIsolatedAndEmpty) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0},  // triangle
                             {3, 3},                  // pure self-loop
                             {4, 5}, {5, 4}, {4, 4},  // 2-cycle + loop
                             {6, 7}};                 // 8, 9 isolated
  CsrGraph g = CsrGraph::FromEdges(10, std::move(edges),
                                   /*keep_self_loops=*/true);
  CheckPooledPipeline(g, "self-loops");

  const SccResult r = ComputeScc(g);
  EXPECT_EQ(r.SizeOf(0), 3u);
  EXPECT_EQ(r.SizeOf(3), 1u);
  EXPECT_EQ(r.SizeOf(4), 2u);
  EXPECT_EQ(r.SizeOf(9), 1u);

  CheckPooledPipeline(CsrGraph(), "empty");
  CheckPooledPipeline(CsrGraph::FromEdges(64, {}), "edgeless");
}

TEST(SccParallelTest, MutualPairOffABiggerScc) {
  // A mutual pair {3,4} on a path hanging off a triangle with a chord:
  // the pair is its own component, and the triangle is not split although
  // 0 <-> 1 is a mutual pair too.
  CsrGraph g = CsrGraph::FromEdges(
      7, {{0, 1}, {1, 0}, {1, 2}, {2, 0},        // triangle with a chord
          {2, 3}, {3, 4}, {4, 3}, {4, 5},        // pair {3,4} on a path
          {5, 6}});
  CheckPooledPipeline(g, "mutual-pair");
  const SccResult r = ComputeScc(g);
  EXPECT_EQ(r.SizeOf(0), 3u);
  EXPECT_EQ(r.component[3], r.component[4]);
  EXPECT_EQ(r.SizeOf(3), 2u);
}

TEST(SccParallelTest, LeanPipelineStreamsEverything) {
  // canonical_result = false is how the engine's pipeline condenses: the
  // pooled consumers still see every vertex exactly once, and the result
  // carries only the count.
  const CsrGraph g = GenerateErdosRenyi(300, 900, /*seed=*/7);
  const VertexId expected = ComputeScc(g).num_components;
  SccOptions lean;
  lean.canonical_result = false;
  for (int threads : {1, 4}) {
    PooledTally tally(g.num_vertices());
    const SccResult r = CondensePooled(g, threads, lean, &tally);
    EXPECT_FALSE(r.timed_out);
    EXPECT_EQ(r.num_components, expected);
    EXPECT_TRUE(r.component.empty());
    EXPECT_TRUE(r.vertices.empty());
    ExpectTallyComplete(tally, r, "lean@" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace tdb
