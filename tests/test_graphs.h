// Shared fixture graphs for the test suite.

#ifndef HYTGRAPH_TESTS_TEST_GRAPHS_H_
#define HYTGRAPH_TESTS_TEST_GRAPHS_H_

#include <tuple>
#include <vector>

#include "dynamic/mutation.h"
#include "graph/csr_graph.h"
#include "graph/graph_builder.h"
#include "graph/rmat_generator.h"
#include "util/logging.h"

namespace hytgraph::testing {

/// The worked SSSP example of Fig. 1 in the paper: 6 vertices a..f = 0..5,
/// weighted, directed. Shortest distances from a: {0, 2, 4, 3, 4, 6}.
inline CsrGraph PaperFigure1Graph() {
  auto result = BuildFromTriples(
      6, {
             {0, 1, 2},  // a->b 2
             {0, 2, 6},  // a->c 6
             {1, 2, 3},  // b->c 3
             {1, 3, 1},  // b->d 1
             {2, 4, 1},  // c->e 1
             {3, 2, 1},  // d->c 1
             {3, 4, 1},  // d->e 1
             {4, 5, 2},  // e->f 2
             {2, 5, 4},  // c->f 4
             {5, 0, 3},  // f->a 3
         });
  HYT_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// 0 -> 1 -> 2 -> ... -> n-1, unit weights.
inline CsrGraph ChainGraph(VertexId n, Weight w = 1) {
  std::vector<std::tuple<VertexId, VertexId, Weight>> triples;
  for (VertexId v = 0; v + 1 < n; ++v) triples.push_back({v, v + 1, w});
  auto result = BuildFromTriples(n, triples);
  HYT_CHECK(result.ok());
  return std::move(result).value();
}

/// Hub 0 points at every other vertex.
inline CsrGraph StarGraph(VertexId n) {
  std::vector<std::tuple<VertexId, VertexId, Weight>> triples;
  for (VertexId v = 1; v < n; ++v) triples.push_back({0, v, 1});
  auto result = BuildFromTriples(n, triples);
  HYT_CHECK(result.ok());
  return std::move(result).value();
}

/// Two disjoint directed cycles: {0..n/2-1} and {n/2..n-1}.
inline CsrGraph TwoCyclesGraph(VertexId n) {
  HYT_CHECK_GE(n, 4u);
  const VertexId half = n / 2;
  std::vector<std::tuple<VertexId, VertexId, Weight>> triples;
  for (VertexId v = 0; v < half; ++v) triples.push_back({v, (v + 1) % half, 1});
  for (VertexId v = half; v < n; ++v) {
    triples.push_back({v, v + 1 == n ? half : v + 1, 1});
  }
  auto result = BuildFromTriples(n, triples);
  HYT_CHECK(result.ok());
  return std::move(result).value();
}

/// Small deterministic power-law graph for randomized-ish tests.
inline CsrGraph SmallRmat(uint32_t scale = 12, uint32_t edge_factor = 8,
                          uint64_t seed = 7, bool symmetrize = false) {
  RmatOptions opts;
  opts.scale = scale;
  opts.edge_factor = edge_factor;
  opts.seed = seed;
  opts.symmetrize = symmetrize;
  auto result = GenerateRmat(opts);
  HYT_CHECK(result.ok());
  return std::move(result).value();
}

/// Deterministic mixed mutation batch over `base`: `deletes` attempted
/// deletions of existing base edges (vertices without out-edges are
/// skipped), then `inserts` random weighted insertions.
inline MutationBatch MixedBatch(const CsrGraph& base, uint64_t inserts,
                                uint64_t deletes, uint64_t seed) {
  MutationBatch batch;
  const VertexId n = base.num_vertices();
  uint64_t state = seed;
  auto next = [&]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (uint64_t i = 0; i < deletes; ++i) {
    const VertexId src = static_cast<VertexId>(next() % n);
    const auto nbrs = base.neighbors(src);
    if (nbrs.empty()) continue;
    batch.DeleteEdge(src, nbrs[next() % nbrs.size()]);
  }
  for (uint64_t i = 0; i < inserts; ++i) {
    batch.InsertEdge(static_cast<VertexId>(next() % n),
                     static_cast<VertexId>(next() % n),
                     static_cast<Weight>(1 + next() % 32));
  }
  return batch;
}

}  // namespace hytgraph::testing

#endif  // HYTGRAPH_TESTS_TEST_GRAPHS_H_
