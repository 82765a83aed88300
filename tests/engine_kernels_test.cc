#include "engine/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/programs.h"
#include "dynamic/delta_overlay.h"
#include "dynamic/mutation.h"
#include "engine/partition_state.h"
#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::ChainGraph;
using testing::PaperFigure1Graph;

TEST(KernelTest, SingleRelaxationStep) {
  const CsrGraph g = PaperFigure1Graph();
  SsspProgram program(g, 0);
  Frontier next(g.num_vertices());
  const std::vector<VertexId> actives = {0};
  const uint64_t edges = RunKernel(g, actives, program, &next);
  EXPECT_EQ(edges, 2u);  // a has 2 out-edges
  EXPECT_TRUE(next.IsActive(1));
  EXPECT_TRUE(next.IsActive(2));
  EXPECT_EQ(program.Values()[1], 2u);
  EXPECT_EQ(program.Values()[2], 6u);
}

TEST(KernelTest, NoActivationWhenValueNotImproved) {
  const CsrGraph g = PaperFigure1Graph();
  SsspProgram program(g, 0);
  Frontier next(g.num_vertices());
  const std::vector<VertexId> actives = {0};
  RunKernel(g, actives, program, &next);
  next.Clear();
  // Second identical pass: distances unchanged, nothing activates.
  RunKernel(g, actives, program, &next);
  EXPECT_TRUE(next.Empty());
}

TEST(KernelTest, SkipsVerticesWhoseBeginVertexDeclines) {
  const CsrGraph g = PaperFigure1Graph();
  SsspProgram program(g, 0);
  Frontier next(g.num_vertices());
  // Vertex 4 (e) is unreached (dist = inf): BeginVertex returns false, its
  // edges are not counted.
  const uint64_t edges =
      RunKernel(g, std::vector<VertexId>{4}, program, &next);
  EXPECT_EQ(edges, 0u);
  EXPECT_TRUE(next.Empty());
}

TEST(KernelTest, EmptyActivesIsNoop) {
  const CsrGraph g = PaperFigure1Graph();
  SsspProgram program(g, 0);
  Frontier next(g.num_vertices());
  EXPECT_EQ(RunKernel(g, std::vector<VertexId>{}, program, &next), 0u);
}

TEST(KernelTest, ParallelRelaxationMatchesSerialOnLargeFrontier) {
  const CsrGraph g = testing::SmallRmat(11, 8);
  // Process every vertex as a BFS wavefront from 0 until fixpoint; parallel
  // atomics must produce exactly the reference levels.
  BfsProgram program(g, 0);
  Frontier a(g.num_vertices());
  Frontier b(g.num_vertices());
  Frontier* cur = &a;
  Frontier* nxt = &b;
  cur->Activate(0);
  while (!cur->Empty()) {
    RunKernel(g, cur->Collect(), program, nxt);
    std::swap(cur, nxt);
    nxt->Clear();
  }
  // Spot-check: source is 0, every reached vertex's level is 1 + some
  // predecessor's level.
  const auto levels = program.Values();
  EXPECT_EQ(levels[0], 0u);
  const auto& in_degrees = g.in_degrees();
  (void)in_degrees;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (levels[v] == kUnreachable || v == 0) continue;
    EXPECT_GT(levels[v], 0u);
  }
}

TEST(KernelTest, SubCsrKernelMatchesGraphKernel) {
  const CsrGraph g = ChainGraph(20);
  const std::vector<VertexId> actives = {0, 1, 2};

  SsspProgram p1(g, 0);
  Frontier n1(g.num_vertices());
  const uint64_t e1 = RunKernel(g, actives, p1, &n1);

  SsspProgram p2(g, 0);
  Frontier n2(g.num_vertices());
  const auto compact = CompactActiveEdges(g, actives, true);
  const uint64_t e2 = RunKernelOnSubCsr(GraphView::Wrap(g), compact.sub, p2, &n2);

  EXPECT_EQ(e1, e2);
  EXPECT_EQ(p1.Values(), p2.Values());
  EXPECT_EQ(n1.Collect(), n2.Collect());
}

TEST(KernelTest, UnweightedGraphUsesWeightOne) {
  BuilderOptions opts;
  opts.weighted = false;
  auto g = BuildCsr(3, {{0, 1, 50}, {1, 2, 50}}, opts);
  ASSERT_TRUE(g.ok());
  SsspProgram program(*g, 0);
  Frontier next(g->num_vertices());
  RunKernel(*g, std::vector<VertexId>{0}, program, &next);
  EXPECT_EQ(program.Values()[1], 1u);  // weight defaulted to 1, not 50
}

/// Runs `program` through successive push passes from its initial frontier,
/// each pass on the caller's thread (PR's passes shard over the shared
/// pool), and checks after every pass that the scout count the kernel
/// maintained in `next` equals the bitmap scan. `sub_csr`
/// routes each pass through the compacted-subgraph kernel.
template <typename Program>
void ExpectScoutExactAcrossPasses(const GraphView& view, Program& program,
                                  bool sub_csr, const std::string& what) {
  constexpr int kPasses = 8;
  Frontier a(view), b(view);
  Frontier* current = &a;
  Frontier* next = &b;
  program.InitFrontier(current);
  size_t widest = 0;
  for (int pass = 0; pass < kPasses && !current->Empty(); ++pass) {
    const std::vector<VertexId> actives = current->Collect();
    widest = std::max(widest, actives.size());
    if (sub_csr) {
      const auto compact =
          CompactActiveEdges(view, actives, Program::kNeedsWeights);
      RunKernelOnSubCsr(view, compact.sub, program, next);
    } else {
      RunKernel(view, actives, program, next);
    }
    ASSERT_TRUE(next->ScoutValid()) << what << " pass " << pass;
    EXPECT_EQ(next->ScoutCount(), FrontierActiveEdges(view, *next))
        << what << " pass " << pass;
    std::swap(current, next);
    next->Clear();
  }
  // Wider than the kernels' min_grain (64), so a multi-thread pool shards
  // at least one pass.
  EXPECT_GT(widest, 64u) << what;
}

void ExpectScoutExactForPrCcSssp(const GraphView& view,
                                 const std::string& graph_name) {
  // SSSP from the highest-out-degree vertex, so its frontier widens fast.
  VertexId hub = 0;
  for (VertexId v = 1; v < view.num_vertices(); ++v) {
    if (view.out_degree(v) > view.out_degree(hub)) hub = v;
  }
  for (const bool sub_csr : {false, true}) {
    const std::string what = graph_name + (sub_csr ? "/sub-csr" : "/direct");
    PageRankProgram pr(view);
    ExpectScoutExactAcrossPasses(view, pr, sub_csr, what + "/PR");
    CcProgram cc(view);
    ExpectScoutExactAcrossPasses(view, cc, sub_csr, what + "/CC");
    SsspProgram sssp(view, hub);
    ExpectScoutExactAcrossPasses(view, sssp, sub_csr, what + "/SSSP");
  }
}

TEST(KernelTest, ScoutCountStaysExactAcrossParallelPasses) {
  const CsrGraph g = testing::SmallRmat(/*scale=*/12, /*edge_factor=*/8,
                                        /*seed=*/41);
  ExpectScoutExactForPrCcSssp(GraphView::Wrap(g), "rmat-12");
}

TEST(KernelTest, ScoutCountStaysExactAcrossParallelPassesOnMutatedView) {
  // Delta vertices take the merged-adjacency path and carry overlay-adjusted
  // out-degrees into the scout count.
  auto base = std::make_shared<const CsrGraph>(
      testing::SmallRmat(/*scale=*/12, /*edge_factor=*/8, /*seed=*/43));
  auto overlay = std::make_shared<DeltaOverlay>(base);
  const MutationBatch batch = testing::MixedBatch(
      *base, /*inserts=*/1500, /*deletes=*/600, /*seed=*/99);
  ASSERT_TRUE(overlay->Apply(batch).ok());
  ExpectScoutExactForPrCcSssp(GraphView(base, overlay), "rmat-12+delta");
}

/// Two identical runs of `kPasses` push passes from the initial frontier
/// must write the same frontiers and the same values bit for bit.
template <typename Program, typename MakeProgram>
void ExpectPassesRepeat(const GraphView& view, MakeProgram make,
                        const char* what) {
  constexpr int kPasses = 6;
  std::vector<std::vector<VertexId>> frontiers[2];
  std::vector<typename Program::Value> values[2];
  for (int run = 0; run < 2; ++run) {
    Program program = make();
    Frontier a(view), b(view);
    Frontier* current = &a;
    Frontier* next = &b;
    program.InitFrontier(current);
    for (int pass = 0; pass < kPasses && !current->Empty(); ++pass) {
      const std::vector<VertexId> actives = current->Collect();
      RunKernel(view, actives, program, next);
      frontiers[run].push_back(next->Collect());
      std::swap(current, next);
      next->Clear();
    }
    values[run] = program.Values();
  }
  EXPECT_EQ(frontiers[0], frontiers[1]) << what;
  EXPECT_EQ(values[0], values[1]) << what;
}

TEST(KernelTest, PushPassesRepeatExactly) {
  const CsrGraph g = testing::SmallRmat(/*scale=*/12, /*edge_factor=*/8,
                                        /*seed=*/41);
  const GraphView view = GraphView::Wrap(g);
  ExpectPassesRepeat<PageRankProgram>(
      view, [&] { return PageRankProgram(view); }, "PR");
  ExpectPassesRepeat<PhpProgram>(
      view, [&] { return PhpProgram(view, 1); }, "PHP");
  ExpectPassesRepeat<SsspProgram>(
      view, [&] { return SsspProgram(view, 1); }, "SSSP");
  ExpectPassesRepeat<CcProgram>(view, [&] { return CcProgram(view); }, "CC");
}

TEST(PullKernelTest, OneIterationMatchesPush) {
  const CsrGraph g = PaperFigure1Graph();
  const GraphView view = GraphView::Wrap(g);

  SsspProgram push_program(view, 0);
  Frontier push_next(view);
  Frontier current(view);
  push_program.InitFrontier(&current);
  RunKernel(view, current.Collect(), push_program, &push_next);

  SsspProgram pull_program(view, 0);
  Frontier pull_current(view);
  Frontier pull_next(view);
  pull_program.InitFrontier(&pull_current);
  RunPullKernel(view, pull_current, pull_program, &pull_next);

  EXPECT_EQ(push_program.Values(), pull_program.Values());
  EXPECT_EQ(push_next.Collect(), pull_next.Collect());
}

TEST(PullKernelTest, RunsToTheSameFixpointAsPush) {
  const CsrGraph g = testing::SmallRmat(/*scale=*/8, /*edge_factor=*/6,
                                        /*seed=*/11);
  const GraphView view = GraphView::Wrap(g);

  BfsProgram push_program(view, 0);
  BfsProgram pull_program(view, 0);
  Frontier a(view), b(view), c(view), d(view);
  Frontier* push_cur = &a;
  Frontier* push_next = &b;
  Frontier* pull_cur = &c;
  Frontier* pull_next = &d;
  push_program.InitFrontier(push_cur);
  pull_program.InitFrontier(pull_cur);

  for (int iter = 0; iter < 64 && !push_cur->Empty(); ++iter) {
    RunKernel(view, push_cur->Collect(), push_program, push_next);
    std::swap(push_cur, push_next);
    push_next->Clear();
  }
  uint64_t pull_edges = 0;
  for (int iter = 0; iter < 64 && !pull_cur->Empty(); ++iter) {
    pull_edges += RunPullKernel(view, *pull_cur, pull_program, pull_next);
    std::swap(pull_cur, pull_next);
    pull_next->Clear();
  }
  EXPECT_TRUE(push_cur->Empty());
  EXPECT_TRUE(pull_cur->Empty());
  EXPECT_GT(pull_edges, 0u);
  EXPECT_EQ(push_program.Values(), pull_program.Values());
}

TEST(PullKernelTest, SettledCandidatesSkipTheirScan) {
  // Chain 0 -> 1 -> 2 -> 3: once BFS levels are final, a pull pass over a
  // frontier that can no longer improve anything scans (almost) nothing —
  // every candidate at or below the floor skips its in-neighbour walk.
  const CsrGraph g = ChainGraph(4);
  const GraphView view = GraphView::Wrap(g);
  BfsProgram program(view, 0);
  Frontier a(view), b(view);
  Frontier* current = &a;
  Frontier* next = &b;
  program.InitFrontier(current);
  while (!current->Empty()) {
    RunPullKernel(view, *current, program, next);
    std::swap(current, next);
    next->Clear();
  }
  // Re-activate the source: all levels are final (floor = level(0)+1 = 1;
  // vertices 2 and 3 sit above it but their only in-frontier parent offers
  // nothing better). No value changes, no activations.
  current->Activate(0);
  RunPullKernel(view, *current, program, next);
  EXPECT_TRUE(next->Empty());
}

TEST(PullKernelTest, PullsOverTheReverseOverlay) {
  // Base chain 0 -> 1 -> 2 -> 3 with an overlay insert 0 -> 3 and the
  // deletion of 1 -> 2: pull must see 3's new in-neighbour and not see 2's
  // deleted one.
  auto base =
      std::make_shared<const CsrGraph>(ChainGraph(4, /*w=*/2));
  auto overlay = std::make_shared<DeltaOverlay>(base);
  MutationBatch batch;
  batch.InsertEdge(0, 3, 9);
  batch.DeleteEdge(1, 2);
  ASSERT_TRUE(overlay->Apply(batch).ok());
  const GraphView view(base, overlay);

  SsspProgram program(view, 0);
  Frontier a(view), b(view);
  Frontier* current = &a;
  Frontier* next = &b;
  program.InitFrontier(current);
  while (!current->Empty()) {
    RunPullKernel(view, *current, program, next);
    std::swap(current, next);
    next->Clear();
  }
  const auto values = program.Values();
  EXPECT_EQ(values[1], 2u);            // 0 -> 1 (weight 2)
  EXPECT_EQ(values[2], kUnreachable);  // 1 -> 2 deleted
  EXPECT_EQ(values[3], 9u);            // via the inserted 0 -> 3
}

}  // namespace
}  // namespace hytgraph
