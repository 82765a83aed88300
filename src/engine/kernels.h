// Host-executed "GPU kernels": push-mode edge relaxation over an active
// vertex set, plus a pull-mode gather over the reverse view parallelized
// on the thread pool. The vertex program supplies the per-vertex and
// per-edge behaviour; the kernel supplies iteration order, parallelism, and
// frontier maintenance. Results are exact — only the *time* of these
// kernels is taken from the compute model.
//
// Every kernel is reproducible: the same call on the same state writes the
// same values and the same next frontier, whatever the thread timing. Push
// passes run sequentially (see RunPushPass); pull gathers read the
// frontier's state as of the start of the iteration (see
// SnapshotPullSources), so their candidate scan stays sharded.
//
// Edge expansion runs on a GraphView: vertices with no pending delta take
// the dense base-CSR span path (identical code to the static engine);
// delta vertices merge tombstone-filtered base edges with overlay inserts
// on the fly. A query therefore never waits for a snapshot fold — the
// per-vertex overlay lookup is the price, measured by bench_view_overhead.
//
// Program concept (see algorithms/programs.h for implementations):
//   struct P {
//     using VertexContext = ...;       // per-source state for one visit
//     bool BeginVertex(VertexId u, VertexContext* ctx);   // false: skip u
//     bool ProcessEdge(const VertexContext& ctx, VertexId u, VertexId v,
//                      Weight w);      // true: v's value changed, activate
//   };

#ifndef HYTGRAPH_ENGINE_KERNELS_H_
#define HYTGRAPH_ENGINE_KERNELS_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/compactor.h"
#include "engine/frontier.h"
#include "graph/csr_graph.h"
#include "graph/graph_view.h"
#include "storage/block_cache.h"
#include "storage/edge_block_store.h"
#include "util/thread_pool.h"

namespace hytgraph {

/// A program the pull kernel can run: the value-selection family, which
/// exposes a per-vertex potential (the best value an active vertex could
/// write this iteration) and a settled test against the frontier-wide
/// floor. Delta-accumulation programs (PR/PHP) are excluded structurally:
/// their BeginVertex consumes the pending delta, so calling it once per
/// in-edge (as pull does) would double-count mass.
template <typename P>
concept PullCapableProgram =
    !P::kHasDelta && requires(const P& p, VertexId v) {
      typename P::PullBound;
      { P::WorstBound() } -> std::same_as<typename P::PullBound>;
      {
        P::BetterBound(P::WorstBound(), P::WorstBound())
      } -> std::same_as<typename P::PullBound>;
      { p.PullPotential(v) } -> std::same_as<typename P::PullBound>;
      { p.SettledAt(v, P::WorstBound()) } -> std::convertible_to<bool>;
    };

/// Whether other threads may write the program's state during a kernel.
/// kExclusive lets a program relax edges with plain loads and stores
/// instead of atomic read-modify-writes (ProcessEdgeExclusive): the
/// sequential solver path owns its program, parallel lanes share one.
enum class WriteAccess { kShared, kExclusive };

/// A program with a relaxation for callers that are the only writer.
template <typename P>
concept ExclusiveRelaxProgram =
    requires(P& p, const typename P::VertexContext& ctx, VertexId v,
             Weight w) {
      { p.ProcessEdgeExclusive(ctx, v, v, w) } -> std::convertible_to<bool>;
    };

namespace kernel_internal {

/// A sequential pass on an out-of-core base goes in chunks of rows whose
/// blocks take at most this share of the block cache; two chunks are
/// pinned at once (one being read, one loading).
inline constexpr uint64_t kWarmBudgetDivisor = 4;

/// A run of rows and, per distinct block their adjacency lives in, one row
/// vertex to load it by.
struct WarmChunk {
  uint64_t begin = 0;
  uint64_t end = 0;
  std::vector<VertexId> block_rows;
  std::vector<BlockRef> pins;
};

/// Plans the chunk starting at `begin`: rows up to the block budget.
template <typename RowVertex>
void PlanWarmChunk(const EdgeBlockStore& store, uint64_t begin,
                   uint64_t rows, RowVertex row_vertex, WarmChunk* chunk) {
  const uint64_t budget = std::max<uint64_t>(
      store.cache()->budget_bytes() / kWarmBudgetDivisor, 1);
  chunk->begin = begin;
  chunk->block_rows.clear();
  uint64_t bytes = 0;
  uint32_t last_block = UINT32_MAX;
  uint64_t i = begin;
  for (; i < rows; ++i) {
    const VertexId u = row_vertex(i);
    if (store.graph().out_degree(u) == 0) continue;
    const uint32_t block = store.BlockOf(u);
    if (block == last_block) continue;
    const uint64_t block_bytes = store.block_bytes(block);
    if (!chunk->block_rows.empty() && bytes + block_bytes > budget) break;
    bytes += block_bytes;
    last_block = block;
    chunk->block_rows.push_back(u);
  }
  chunk->end = std::max(i, begin + 1);
  chunk->pins.clear();
  chunk->pins.resize(chunk->block_rows.size());
}

/// Pins every `stride`-th block of `chunk` from `first` on, loading misses.
inline void WarmBlocks(const EdgeBlockStore& store, WarmChunk* chunk,
                       uint64_t first, uint64_t stride) {
  for (uint64_t k = first; k < chunk->block_rows.size(); k += stride) {
    store.Fetch(chunk->block_rows[k], &chunk->pins[k]);
  }
}

/// Runs run_rows(begin, end) over [0, rows) in warm chunks: while one pool
/// worker runs chunk c, the others load and pin the rest of chunk c's
/// blocks, then chunk c + 1's. Only loads overlap the pass, so the result
/// does not depend on their timing.
template <typename RowVertex, typename RunRows>
void RunWarmedChunks(const EdgeBlockStore& store, uint64_t rows,
                     RowVertex row_vertex, RunRows run_rows) {
  ThreadPool* pool = ThreadPool::Default();
  const auto tasks = static_cast<uint64_t>(std::max(pool->num_threads(), 2));
  WarmChunk chunks[2];
  PlanWarmChunk(store, 0, rows, row_vertex, &chunks[0]);
  for (int c = 0;; c ^= 1) {
    WarmChunk& current = chunks[c];
    WarmChunk& upcoming = chunks[c ^ 1];
    const bool last = current.end >= rows;
    if (!last) PlanWarmChunk(store, current.end, rows, row_vertex, &upcoming);
    // Task 0 runs the chunk, tasks 1.. load blocks ahead of it; a nested
    // call from a pool worker runs the tasks in order on the caller.
    pool->ParallelFor(
        tasks,
        [&](int /*shard*/, uint64_t begin, uint64_t end) {
          for (uint64_t t = begin; t < end; ++t) {
            if (t == 0) {
              run_rows(current.begin, current.end);
              continue;
            }
            WarmBlocks(store, &current, t - 1, tasks - 1);
            if (!last) WarmBlocks(store, &upcoming, t - 1, tasks - 1);
          }
        },
        /*min_grain=*/1);
    current.pins.clear();
    if (last) break;
  }
}

}  // namespace kernel_internal

/// One push pass over `rows` rows: row i relaxes the out-edges of vertex
/// row_vertex(i), which expand(i, u, lease, relax) enumerates by calling
/// relax(v, w) per edge and returns the edge count. Returns the edges
/// processed.
///
/// The pass is sequential: rows in list order, each BeginVertex seeing
/// every write of the rows before it. A pass is thus a function of the
/// rows and the program state alone, and SolverOptions::num_workers = 1 is
/// the reproducible sequential reference it documents. Rows are not
/// sharded over threads because BeginVertex reads vertex state in place
/// (PR/PHP consume a delta that other rows add to): a sharded pass's next
/// frontier would depend on thread timing. On an out-of-core base the pool
/// loads the next chunk's blocks while the pass runs (RunWarmedChunks).
/// `access` says whether other threads may write the program meanwhile.
template <typename Program, typename Sink, typename RowVertex,
          typename Expand>
uint64_t RunPushPass(const GraphView& view, uint64_t rows, Program& program,
                     Sink* next, WriteAccess access, RowVertex row_vertex,
                     Expand expand) {
  using Context = typename Program::VertexContext;
  uint64_t edges = 0;
  BlockRef lease;
  const auto run_rows_with = [&](uint64_t begin, uint64_t end,
                                 auto relax_edge) {
    for (uint64_t i = begin; i < end; ++i) {
      const VertexId u = row_vertex(i);
      Context ctx;
      if (!program.BeginVertex(u, &ctx)) continue;
      edges += expand(i, u, &lease, [&](VertexId v, Weight w) {
        if (relax_edge(ctx, u, v, w)) next->Activate(v, view.out_degree(v));
      });
    }
  };
  const auto run_rows = [&](uint64_t begin, uint64_t end) {
    if constexpr (ExclusiveRelaxProgram<Program>) {
      if (access == WriteAccess::kExclusive) {
        run_rows_with(begin, end, [&](const Context& ctx, VertexId u,
                                      VertexId v, Weight w) {
          return program.ProcessEdgeExclusive(ctx, u, v, w);
        });
        return;
      }
    }
    run_rows_with(begin, end,
                  [&](const Context& ctx, VertexId u, VertexId v, Weight w) {
                    return program.ProcessEdge(ctx, u, v, w);
                  });
  };
  if (view.base_streamed() && rows > 0) {
    kernel_internal::RunWarmedChunks(*view.storage(), rows, row_vertex,
                                     run_rows);
  } else {
    run_rows(0, rows);
  }
  return edges;
}

/// Relaxes all out-edges of every vertex in `actives` against `view`,
/// activating changed targets in `next`. Returns the number of edges
/// processed (the kernel-time unit). The schedule is RunPushPass's.
///
/// Activations carry the target's view-adjusted out-degree, so `next`'s
/// scout count (activated out-edges, Beamer's m_f) stays exact — the auto
/// direction decision reads it in O(1) instead of rescanning the bitmap.
/// The degree lookup runs once per *newly activated* vertex (the bitmap
/// filters re-activations), not per edge.
///
/// `Sink` is anything with Frontier's Activate(v) / Activate(v, degree)
/// surface: the global Frontier on the sequential path, a lane-local sink
/// (core/lane_state.h) under parallel partition execution.
template <typename Program, typename Sink = Frontier>
uint64_t RunKernel(const GraphView& view, std::span<const VertexId> actives,
                   Program& program, Sink* next,
                   WriteAccess access = WriteAccess::kShared) {
  return RunPushPass(
      view, actives.size(), program, next, access,
      [&](uint64_t i) { return actives[i]; },
      [&](uint64_t /*i*/, VertexId u, BlockRef* lease, auto&& relax) {
        if (view.HasDelta(u)) {
          // Merged adjacency: surviving base edges, then overlay inserts.
          uint64_t edges = 0;
          view.ForEachNeighborLeased(u, lease, [&](VertexId v, Weight w) {
            ++edges;
            relax(v, w);
          });
          return edges;
        }
        const AdjacencyRun run = view.BaseRun(u, lease);
        const std::span<const VertexId> nbrs = run.targets;
        const std::span<const Weight> wts = run.weights;
        // Weightedness is a graph property, not a per-edge one: branch
        // once per vertex, not once per edge.
        if (wts.empty()) {
          for (const VertexId v : nbrs) relax(v, Weight{1});
        } else {
          for (size_t e = 0; e < nbrs.size(); ++e) relax(nbrs[e], wts[e]);
        }
        return static_cast<uint64_t>(nbrs.size());
      });
}

/// CsrGraph convenience overload (static callers, tests): a transparent
/// non-owning view over `graph`.
template <typename Program>
uint64_t RunKernel(const CsrGraph& graph, std::span<const VertexId> actives,
                   Program& program, Frontier* next) {
  return RunKernel(GraphView::Wrap(graph), actives, program, next);
}

/// Pull-mode relaxation: for every candidate vertex v (dense scan over the
/// whole vertex space — no active-list materialization), gather from the
/// in-neighbours that are in `current`, applying the same ProcessEdge
/// relaxations push would. The edge set relaxed is identical to push's
/// (all (u, v) with u active), so the converged fixpoint values are
/// identical; per-iteration frontiers can drift slightly — pull offers
/// every frontier vertex's value as of the start of the iteration
/// (SnapshotPullSources), where push lets a vertex improved earlier in the
/// pass offer its new value, so improvements may propagate one iteration
/// later than under push (monotonicity makes either schedule converge to
/// the same values). Reading the snapshot also makes the gather
/// independent of thread timing: a candidate's own value is the only state
/// its shard both reads and writes. The wins are structural:
///
///  * next-frontier maintenance is one local Activate per *changed
///    candidate* instead of one atomic per improving edge (the dense-
///    iteration contention the bitmap-directed frontier tries to contain);
///  * a candidate already at the iteration floor — the best potential any
///    frontier vertex holds, a conservative bound on every offer — skips
///    its scan entirely, and a candidate that reaches the floor mid-scan
///    early-exits (classic direction-optimizing payoff: one parent found,
///    stop).
///
/// Requires the view's reverse side; builds it on first use (O(E) once per
/// layout version — the Engine seeds the transpose across epochs).
/// Returns in-edges scanned (including frontier-membership misses), the
/// honest work unit pull is judged by.
template <typename Program>
  requires PullCapableProgram<Program>
typename Program::PullBound PullIterationFloor(const Frontier& current,
                                               Program& program) {
  using Bound = typename Program::PullBound;
  // Iteration floor: reduce the per-vertex potentials over the frontier
  // bitmap (per-shard partials, combined in shard order — deterministic).
  const auto words = current.Words();
  std::vector<Bound> shard_bounds(
      static_cast<size_t>(ThreadPool::Default()->num_threads()) + 1,
      Program::WorstBound());
  ThreadPool::Default()->ParallelFor(
      words.size(),
      [&](int shard, uint64_t begin, uint64_t end) {
        Bound local = Program::WorstBound();
        for (uint64_t w = begin; w < end; ++w) {
          uint64_t bits = words[w].load(std::memory_order_relaxed);
          while (bits != 0) {
            const VertexId u = static_cast<VertexId>(
                w * Frontier::kBitsPerWord +
                static_cast<uint64_t>(std::countr_zero(bits)));
            local = Program::BetterBound(local, program.PullPotential(u));
            bits &= bits - 1;
          }
        }
        shard_bounds[shard] = Program::BetterBound(shard_bounds[shard], local);
      },
      /*min_grain=*/256);
  Bound floor = Program::WorstBound();
  for (const Bound b : shard_bounds) floor = Program::BetterBound(floor, b);
  return floor;
}

/// The frontier's offers for one pull iteration: ready[u] is 1 when u is
/// active and BeginVertex(u) succeeded, and contexts[u] then holds what
/// BeginVertex(u) read. Taken before any candidate is written.
template <typename Program>
struct PullSources {
  std::vector<typename Program::VertexContext> contexts;
  std::vector<uint8_t> ready;
};

template <typename Program>
  requires PullCapableProgram<Program>
void SnapshotPullSources(const Frontier& current, Program& program,
                         PullSources<Program>* sources) {
  sources->contexts.resize(current.num_vertices());
  sources->ready.assign(current.num_vertices(), 0);
  const auto words = current.Words();
  ThreadPool::Default()->ParallelFor(
      words.size(),
      [&](int /*shard*/, uint64_t begin, uint64_t end) {
        for (uint64_t w = begin; w < end; ++w) {
          uint64_t bits = words[w].load(std::memory_order_relaxed);
          while (bits != 0) {
            const VertexId u = static_cast<VertexId>(
                w * Frontier::kBitsPerWord +
                static_cast<uint64_t>(std::countr_zero(bits)));
            sources->ready[u] =
                program.BeginVertex(u, &sources->contexts[u]) ? 1 : 0;
            bits &= bits - 1;
          }
        }
      },
      /*min_grain=*/256);
}

/// Serial pull gather over the candidate range [v_begin, v_end) against a
/// precomputed iteration floor and source snapshot. The parallel-lane pull
/// path hands each lane a disjoint candidate slice of this scan;
/// RunPullKernel composes it with pool sharding for the sequential path.
/// Activations into `next` are plain Activate(v) (scout-invalidating —
/// pull iterations rebuild m_f by scan).
template <typename Program>
  requires PullCapableProgram<Program>
uint64_t RunPullKernelRange(const GraphView& view,
                            const PullSources<Program>& sources,
                            Program& program, Frontier* next,
                            typename Program::PullBound floor,
                            VertexId v_begin, VertexId v_end) {
  uint64_t local_edges = 0;
  // One lease for the whole slice: the dense ascending scan re-pins the
  // transpose block only on boundary crossings when it streams.
  BlockRef lease;
  for (VertexId v = v_begin; v < v_end; ++v) {
    if (program.SettledAt(v, floor)) continue;
    bool changed = false;
    view.ForEachInNeighborWhileLeased(v, &lease, [&](VertexId u, Weight w) {
      ++local_edges;
      if (sources.ready[u] == 0) return true;
      if (program.ProcessEdge(sources.contexts[u], u, v, w)) {
        changed = true;
        // Settled at the floor: no remaining in-neighbour can offer
        // better — stop the scan.
        if (program.SettledAt(v, floor)) return false;
      }
      return true;
    });
    if (changed) next->Activate(v);
  }
  return local_edges;
}

template <typename Program>
  requires PullCapableProgram<Program>
uint64_t RunPullKernel(const GraphView& view, const Frontier& current,
                       Program& program, Frontier* next) {
  const VertexId n = view.num_vertices();
  if (n == 0) return 0;
  view.EnsureReverse();

  const auto floor = PullIterationFloor(current, program);
  PullSources<Program> sources;
  SnapshotPullSources(current, program, &sources);

  std::atomic<uint64_t> edges_processed{0};
  ThreadPool::Default()->ParallelFor(
      n,
      [&](int /*shard*/, uint64_t begin, uint64_t end) {
        edges_processed.fetch_add(
            RunPullKernelRange(view, sources, program, next, floor,
                               static_cast<VertexId>(begin),
                               static_cast<VertexId>(end)),
            std::memory_order_relaxed);
      },
      /*min_grain=*/256);
  return edges_processed.load();
}

/// Same as RunKernel but over a compacted subgraph (Subway-style GPU-side
/// processing of the shipped sub-CSR). Identical relaxation semantics.
/// `view` is the graph the sub-CSR was compacted from — activations carry
/// its degrees so the scout count stays exact (targets can lie outside the
/// compacted vertex set, so the sub-CSR's own offsets can't supply them).
template <typename Program, typename Sink = Frontier>
uint64_t RunKernelOnSubCsr(const GraphView& view, const SubCsr& sub,
                           Program& program, Sink* next,
                           WriteAccess access = WriteAccess::kShared) {
  return RunPushPass(
      view, sub.vertices.size(), program, next, access,
      [&](uint64_t i) { return sub.vertices[i]; },
      [&](uint64_t i, VertexId /*u*/, BlockRef* /*lease*/, auto&& relax) {
        const EdgeId lo = sub.row_offsets[i];
        const EdgeId hi = sub.row_offsets[i + 1];
        for (EdgeId e = lo; e < hi; ++e) {
          relax(sub.column_index[e],
                sub.weights.empty() ? Weight{1} : sub.weights[e]);
        }
        return static_cast<uint64_t>(hi - lo);
      });
}

}  // namespace hytgraph

#endif  // HYTGRAPH_ENGINE_KERNELS_H_
