// The closed-loop workloads: one client runs queries back to back on the
// SK-like web graph, in memory (`analytics`) or spilled to the block store
// (`ooc-scan`). Same seed, same graph and sources, so the difference between
// the two is the storage layer's cost.

#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint32_t kScale = 16;  // 2^16 vertices, ~2.5 M edges
/// Seeded sources, cycled in order until the window ends. Many distinct
/// sources make the latency tail a property of the graph rather than of
/// the few sources one seed happens to pick.
constexpr size_t kSourcePool = 64;
/// CC (~20 ms in memory) runs after every kCcEvery sources, so that its
/// samples are spread across the whole run rather than taken back to back.
constexpr size_t kCcEvery = 2;

/// ooc-scan: cache budget as a share of edge bytes, and the simulated
/// disk bandwidth that keeps block-read time steady on a page-cached file.
constexpr double kSpillBudget = 0.20;
constexpr uint64_t kDiskBytesPerSecond = 2ull << 30;

/// What the client runs. Per source: BFS and SSSP, plus SSWP when
/// `sswp_per_source`. The long queries (PR and PHP, plus SSWP from the
/// engine's default source when it is not run per source) run
/// `long_runs` times, at even intervals of the window, so that they leave
/// most of it to the per-source stream.
struct Shape {
  bool sswp_per_source = true;
  int long_runs = 0;
};

Outcome RunClosedLoop(const Args& args, RunTracer* tracer, const Shape& shape,
                      double spill_budget, uint64_t disk_bytes_per_second) {
  Outcome out;
  Deployment deployment =
      SetUp(MakeSpec("SK", kScale), {}, spill_budget,
            disk_bytes_per_second, tracer, &out);
  hytgraph::Rng rng(args.seed);
  const std::vector<VertexId> pool =
      PickSources(deployment.graph, kSourcePool, &rng);
  hytgraph::Engine* engine = deployment.engine.get();

  // Reference values first, so the window times only the engine. CC, PR
  // and PHP (from the engine's default source) are the same queries for
  // every seed: PHP's cost varies ~20% from one source to another.
  std::vector<std::pair<AlgorithmId, VertexId>> queries = {
      {AlgorithmId::kCc, hytgraph::kInvalidVertex},
      {AlgorithmId::kPageRank, hytgraph::kInvalidVertex},
      {AlgorithmId::kPhp, engine->DefaultSource()}};
  if (!shape.sswp_per_source) {
    queries.push_back({AlgorithmId::kSswp, engine->DefaultSource()});
  }
  for (VertexId source : pool) {
    queries.push_back({AlgorithmId::kBfs, source});
    queries.push_back({AlgorithmId::kSssp, source});
    if (shape.sswp_per_source) queries.push_back({AlgorithmId::kSswp, source});
  }
  ReferenceChecker checker(&deployment.graph, tracer);
  checker.Precompute(queries);

  const hytgraph::EngineCacheStats cache_before = engine->cache_stats();
  const hytgraph::StorageStats storage_before = engine->storage_stats();
  std::vector<RunSample> samples;
  std::map<std::string, std::vector<double>> traced_ms, untraced_ms;
  uint64_t op = 0;
  const auto run = [&](AlgorithmId algorithm, VertexId source) {
    Tracer* trace = tracer->Pick(op++);
    auto sample = RunChecked(engine, MakeQuery(algorithm, source), trace, op,
                             &checker, &out);
    if (!sample) return;
    (trace != nullptr ? traced_ms : untraced_ms)[AlgoKey(algorithm)]
        .push_back(sample->wall_s * 1e3);
    samples.push_back(*sample);
  };

  const Clock::time_point start = Clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  int long_done = 0;
  for (size_t k = 0;;) {
    if (long_done < shape.long_runs &&
        elapsed_s() >= args.seconds * long_done / shape.long_runs) {
      run(AlgorithmId::kPageRank, hytgraph::kInvalidVertex);
      run(AlgorithmId::kPhp, hytgraph::kInvalidVertex);
      if (!shape.sswp_per_source) {
        run(AlgorithmId::kSswp, hytgraph::kInvalidVertex);
      }
      ++long_done;
      continue;
    }
    if (elapsed_s() >= args.seconds) break;
    const VertexId source = pool[k % pool.size()];
    run(AlgorithmId::kBfs, source);
    run(AlgorithmId::kSssp, source);
    if (shape.sswp_per_source) run(AlgorithmId::kSswp, source);
    if (++k % kCcEvery == 0) run(AlgorithmId::kCc, hytgraph::kInvalidVertex);
  }

  // The client's SSSP requests are its latency-sensitive stream, as they
  // are half of the serving workloads' requests. Pooling them with BFS
  // (2.5x cheaper, equally many) would put the median between two modes.
  // latency_p50_ms therefore repeats sssp_ms here, and max_qps is the
  // inverse of the same samples' mean.
  std::vector<double> latency_ms;
  double busy_s = 0;
  for (const RunSample& s : samples) {
    if (s.algorithm != AlgorithmId::kSssp) continue;
    latency_ms.push_back(s.wall_s * 1e3);
    busy_s += s.wall_s;
  }
  out.end_to_end["latency_p50_ms"] = {Quantile(latency_ms, 0.5), "ms"};
  out.end_to_end["latency_p90_ms"] = {Quantile(latency_ms, 0.9), "ms"};
  out.per_layer["bench.latency_p99_ms"] = {Quantile(latency_ms, 0.99), "ms"};
  out.end_to_end["max_qps"] = {
      busy_s > 0 ? static_cast<double>(latency_ms.size()) / busy_s : 0.0,
      "1/s"};

  AddAlgorithmMetrics(samples, &out);
  AddEngineCounterMetrics(*engine, cache_before, storage_before, &out);
  AddServingMetrics({}, &out);
  AddDynamicMetrics({}, &out);
  AddTraceMetrics(tracer->tracer(), traced_ms, untraced_ms, &out);
  return out;
}

}  // namespace

Outcome RunAnalytics(const Args& args, RunTracer* tracer) {
  return RunClosedLoop(args, tracer, {.sswp_per_source = true, .long_runs = 5},
                       0.0, 0);
}

// The block store makes every query ~3x slower, so ooc-scan runs the
// storage-bound stream (BFS, SSSP, CC) per source and the rest only as
// often as the metrics need.
Outcome RunOocScan(const Args& args, RunTracer* tracer) {
  return RunClosedLoop(args, tracer,
                       {.sswp_per_source = false, .long_runs = 3},
                       kSpillBudget, kDiskBytesPerSecond);
}

}  // namespace perfbench
