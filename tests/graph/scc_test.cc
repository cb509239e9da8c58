#include "graph/scc.h"

#include <gtest/gtest.h>

#include <queue>
#include <string>
#include <vector>

#include "graph/compressed_csr.h"
#include "graph/generators.h"
#include "util/timer.h"

namespace tdb {
namespace {

/// Reference reachability for cross-checking component membership.
std::vector<uint8_t> ReachableFrom(const CsrGraph& g, VertexId s) {
  std::vector<uint8_t> seen(g.num_vertices(), 0);
  std::queue<VertexId> q;
  q.push(s);
  seen[s] = 1;
  while (!q.empty()) {
    VertexId u = q.front();
    q.pop();
    for (VertexId w : g.OutNeighbors(u)) {
      if (!seen[w]) {
        seen[w] = 1;
        q.push(w);
      }
    }
  }
  return seen;
}

TEST(SccTest, SingleCycleIsOneComponent) {
  SccResult r = ComputeScc(MakeDirectedCycle(7));
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.SizeOf(0), 7u);
}

TEST(SccTest, PathIsAllSingletons) {
  SccResult r = ComputeScc(MakeDirectedPath(6));
  EXPECT_EQ(r.num_components, 6u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(r.SizeOf(v), 1u);
}

TEST(SccTest, TwoCyclesJoinedByBridge) {
  // 0->1->2->0 and 3->4->5->3 with bridge 2->3: two non-trivial SCCs.
  CsrGraph g = CsrGraph::FromEdges(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}});
  SccResult r = ComputeScc(g);
  EXPECT_EQ(r.num_components, 2u);
  EXPECT_EQ(r.component[0], r.component[1]);
  EXPECT_EQ(r.component[0], r.component[2]);
  EXPECT_EQ(r.component[3], r.component[4]);
  EXPECT_NE(r.component[0], r.component[3]);
}

TEST(SccTest, ComponentSizesSumToVertexCount) {
  CsrGraph g = GenerateErdosRenyi(300, 900, /*seed=*/21);
  SccResult r = ComputeScc(g);
  VertexId total = 0;
  for (VertexId s : r.component_size) total += s;
  EXPECT_EQ(total, g.num_vertices());
}

TEST(SccTest, MembershipMatchesMutualReachability) {
  CsrGraph g = GenerateErdosRenyi(60, 200, /*seed=*/33);
  SccResult r = ComputeScc(g);
  std::vector<std::vector<uint8_t>> reach;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    reach.push_back(ReachableFrom(g, v));
  }
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const bool mutual = reach[u][v] && reach[v][u];
      EXPECT_EQ(r.component[u] == r.component[v], mutual)
          << "u=" << u << " v=" << v;
    }
  }
}

TEST(SccTest, DeepChainDoesNotOverflowStack) {
  // Iterative Tarjan must handle paths far deeper than the C stack.
  CsrGraph g = MakeDirectedPath(500000);
  SccResult r = ComputeScc(g);
  EXPECT_EQ(r.num_components, 500000u);
}

TEST(SccTest, VertexListsPartitionTheGraph) {
  CsrGraph g = GenerateErdosRenyi(80, 160, /*seed=*/9);
  SccResult r = ComputeScc(g);
  ASSERT_EQ(r.vertex_offsets.size(), r.num_components + 1u);
  EXPECT_EQ(r.vertex_offsets.front(), 0u);
  EXPECT_EQ(r.vertex_offsets.back(), g.num_vertices());
  std::vector<uint8_t> seen(g.num_vertices(), 0);
  for (VertexId c = 0; c < r.num_components; ++c) {
    auto members = r.VerticesOf(c);
    ASSERT_EQ(members.size(), r.component_size[c]);
    for (size_t i = 0; i < members.size(); ++i) {
      EXPECT_EQ(r.component[members[i]], c);
      if (i > 0) EXPECT_LT(members[i - 1], members[i]);  // sorted ascending
      EXPECT_FALSE(seen[members[i]]);
      seen[members[i]] = 1;
    }
  }
}

TEST(SccAtLeastMaskTest, FiltersByComponentSize) {
  // Triangle {0,1,2}, 2-cycle {3,4}, isolated 5.
  CsrGraph g =
      CsrGraph::FromEdges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 3}});
  std::vector<uint8_t> mask3 = SccAtLeastMask(g, 3);
  EXPECT_TRUE(mask3[0] && mask3[1] && mask3[2]);
  EXPECT_FALSE(mask3[3] || mask3[4] || mask3[5]);
  std::vector<uint8_t> mask2 = SccAtLeastMask(g, 2);
  EXPECT_TRUE(mask2[3] && mask2[4]);
  EXPECT_FALSE(mask2[5]);
}

// ------------------------------------------------------------------
// The condenser contract, checked on both storage backends: canonical
// ids, the streaming sink, degenerate shapes, the lean result and the
// deadline abort.

template <typename GraphT>
GraphT Encode(const CsrGraph& g);
template <>
CsrGraph Encode<CsrGraph>(const CsrGraph& g) { return g; }
template <>
CompressedCsr Encode<CompressedCsr>(const CsrGraph& g) {
  return CompressedCsr::FromCsr(g);
}

/// The canonical result every backend must reproduce: the raw-CSR run.
void ExpectSameAsRaw(const CsrGraph& raw, const SccResult& actual,
                     const std::string& label) {
  const SccResult expected = ComputeScc(raw);
  EXPECT_FALSE(actual.timed_out) << label;
  EXPECT_EQ(expected.num_components, actual.num_components) << label;
  EXPECT_EQ(expected.component, actual.component) << label;
  EXPECT_EQ(expected.component_size, actual.component_size) << label;
  EXPECT_EQ(expected.vertex_offsets, actual.vertex_offsets) << label;
  EXPECT_EQ(expected.vertices, actual.vertices) << label;
}

template <typename GraphT>
class SccContractTest : public ::testing::Test {};

using Backends = ::testing::Types<CsrGraph, CompressedCsr>;
TYPED_TEST_SUITE(SccContractTest, Backends);

TYPED_TEST(SccContractTest, CanonicalIdsAreMinMemberOrdered) {
  // 3-cycle {2,5,7}, 2-cycle {0,9}, singletons elsewhere: component 0
  // must be the one containing vertex 0, and ids ascend with minimum
  // members.
  const CsrGraph raw = CsrGraph::FromEdges(
      10, {{2, 5}, {5, 7}, {7, 2}, {0, 9}, {9, 0}, {1, 2}});
  const SccResult r = CondenseScc(Encode<TypeParam>(raw), SccOptions{});
  ASSERT_EQ(r.num_components, 7u);
  for (VertexId c = 1; c < r.num_components; ++c) {
    EXPECT_GT(r.VerticesOf(c).front(), r.VerticesOf(c - 1).front());
  }
  EXPECT_EQ(r.component[0], 0u);
  EXPECT_EQ(r.component[9], 0u);
  EXPECT_EQ(r.component[2], r.component[7]);
  ExpectSameAsRaw(raw, r, "canonical");
}

TYPED_TEST(SccContractTest, SinkStreamsEveryComponentExactlyOnce) {
  const CsrGraph raw = GenerateErdosRenyi(300, 900, /*seed=*/7);
  const TypeParam g = Encode<TypeParam>(raw);
  std::vector<uint8_t> seen(raw.num_vertices(), 0);
  uint64_t streamed_components = 0;
  bool sorted = true;
  const ComponentSink sink = [&](std::span<const VertexId> members) {
    ++streamed_components;
    for (size_t i = 0; i < members.size(); ++i) {
      if (i > 0 && members[i - 1] >= members[i]) sorted = false;
      seen[members[i]] += 1;
    }
  };
  SccStats stats;
  const SccResult r = CondenseScc(g, SccOptions{}, sink, &stats);
  EXPECT_TRUE(sorted);
  EXPECT_EQ(streamed_components, r.num_components);
  EXPECT_EQ(stats.components, r.num_components);
  for (VertexId v = 0; v < raw.num_vertices(); ++v) {
    EXPECT_EQ(seen[v], 1u) << "vertex " << v;
  }
  ExpectSameAsRaw(raw, r, "sink");
}

TYPED_TEST(SccContractTest, SelfLoopsIsolatedAndEmpty) {
  // Self-loops come out as singletons; isolated vertices too.
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0},  // triangle
                             {3, 3},                  // pure self-loop
                             {4, 5}, {5, 4}, {4, 4},  // 2-cycle + loop
                             {6, 7}};                 // 8, 9 isolated
  const CsrGraph raw = CsrGraph::FromEdges(10, std::move(edges),
                                           /*keep_self_loops=*/true);
  const SccResult r = CondenseScc(Encode<TypeParam>(raw), SccOptions{});
  EXPECT_EQ(r.num_components, 7u);
  EXPECT_EQ(r.SizeOf(0), 3u);
  EXPECT_EQ(r.SizeOf(3), 1u);
  EXPECT_EQ(r.SizeOf(4), 2u);
  EXPECT_EQ(r.SizeOf(9), 1u);
  ExpectSameAsRaw(raw, r, "self-loops");

  const CsrGraph none;
  const SccResult empty = CondenseScc(Encode<TypeParam>(none), SccOptions{});
  EXPECT_EQ(empty.num_components, 0u);
  EXPECT_EQ(empty.vertex_offsets, std::vector<VertexId>{0});
  const CsrGraph edgeless = CsrGraph::FromEdges(64, {});
  const TypeParam g = Encode<TypeParam>(edgeless);
  ExpectSameAsRaw(edgeless, CondenseScc(g, SccOptions{}), "edgeless");
}

TYPED_TEST(SccContractTest, DagIsAllSingletons) {
  std::vector<CsrGraph> dags;
  dags.push_back(MakeLayeredFunnel(8, 6));
  dags.push_back(MakeDirectedPath(3000));
  for (const CsrGraph& raw : dags) {
    const SccResult r = CondenseScc(Encode<TypeParam>(raw), SccOptions{});
    EXPECT_EQ(r.num_components, raw.num_vertices());
    ExpectSameAsRaw(raw, r, "dag");
  }
}

TYPED_TEST(SccContractTest, SingleGiantCycle) {
  std::vector<CsrGraph> cycles;
  cycles.push_back(MakeDirectedCycle(5000));
  cycles.push_back(GenerateChordedCycle(2000, 4, /*seed=*/23));
  for (const CsrGraph& raw : cycles) {
    const SccResult r = CondenseScc(Encode<TypeParam>(raw), SccOptions{});
    ASSERT_EQ(r.num_components, 1u);
    EXPECT_EQ(r.SizeOf(0), raw.num_vertices());
    ExpectSameAsRaw(raw, r, "giant-cycle");
  }
}

TYPED_TEST(SccContractTest, LeanResultCarriesOnlyTheCount) {
  const CsrGraph raw = GenerateErdosRenyi(200, 700, /*seed=*/3);
  const TypeParam g = Encode<TypeParam>(raw);
  uint64_t streamed = 0;
  const ComponentSink count = [&](std::span<const VertexId>) { ++streamed; };
  SccOptions lean;
  lean.canonical_result = false;
  const SccResult r = CondenseScc(g, lean, count);
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(r.num_components, ComputeScc(raw).num_components);
  EXPECT_EQ(streamed, r.num_components);
  EXPECT_TRUE(r.component.empty());
  EXPECT_TRUE(r.component_size.empty());
  EXPECT_TRUE(r.vertex_offsets.empty());
  EXPECT_TRUE(r.vertices.empty());
}

TYPED_TEST(SccContractTest, ExpiredDeadlineTimesOut) {
  const TypeParam g =
      Encode<TypeParam>(GenerateErdosRenyi(200, 700, /*seed=*/5));
  uint64_t streamed = 0;
  const ComponentSink count = [&](std::span<const VertexId>) { ++streamed; };
  Deadline expired = Deadline::AfterSeconds(0.0);
  SccOptions options;
  options.deadline = &expired;
  const SccResult r = CondenseScc(g, options, count);
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.num_components, 0u);
  EXPECT_EQ(streamed, 0u);
  EXPECT_TRUE(r.component.empty());
  EXPECT_TRUE(r.vertices.empty());
}

}  // namespace
}  // namespace tdb
