// The benchmark's workloads and the pieces they share: seeded set-up,
// reference checks, per-run trace summaries and the metric tables.
// Every call into the library that a layer metric reads is made (and, in
// the traced run, wrapped in a span) here, from outside the library.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "graph/dataset.h"
#include "serving/serving_stats.h"
#include "tracer.h"
#include "util/random.h"

namespace perfbench {

using hytgraph::AlgorithmId;
using hytgraph::VertexId;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_path;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run measured. Every operation the run attempts ends
/// in exactly one of succeeded / failed / rejected / shed.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  /// One line per correctness mismatch; empty when every check passed.
  std::vector<std::string> mismatches;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  void Mismatch(std::string what) { mismatches.push_back(std::move(what)); }
};

/// Tracing state of one run. In the traced run every other operation is
/// recorded (Pick alternates), so the traced and untraced halves of the
/// same run give the tracing overhead.
class RunTracer {
 public:
  explicit RunTracer(bool enabled) : enabled_(enabled) {}
  /// The tracer for operation number `op` (null = untraced).
  Tracer* Pick(uint64_t op) {
    return enabled_ && op % 2 == 0 ? &tracer_ : nullptr;
  }
  /// Set-up and checks are always traced in the traced run.
  Tracer* Always() { return enabled_ ? &tracer_ : nullptr; }
  Tracer& tracer() { return tracer_; }

 private:
  bool enabled_;
  Tracer tracer_;
};

/// The workload's graph generator spec: dataset `name` ("SK", "TW") at
/// 2^`scale` vertices, with the dataset's own R-MAT seed. The graph does
/// not vary with the workload seed: CC's time alone differs by ~1.5x
/// between R-MAT graphs of one spec (15-17 ms against 23-25 ms on SK at
/// 2^16, each repeating within 5% per graph), which would put its spread
/// across seeds past any bound.
hytgraph::DatasetSpec MakeSpec(const std::string& name, uint32_t scale);

/// The engine a workload measures plus an in-memory copy of its graph for
/// the reference checks.
struct Deployment {
  std::unique_ptr<hytgraph::Engine> engine;
  hytgraph::CsrGraph graph;
};

/// Generates the graph, constructs the Engine and times a
/// PreparedGraph::Make on its view. A positive
/// `spill_budget_fraction` spills the graph to the block store with a cache
/// budget of that share of its edge bytes, read through a simulated disk of
/// `throttle_bytes_per_second`. Set-up runs 5 times; keeps the last
/// deployment and reports the medians (setup_s,
/// graph.generate_s, graph.prepare_ms, storage.spill_s). Ends with an
/// untimed BFS and SSSP so the engine's prepared cache is warm.
Deployment SetUp(const hytgraph::DatasetSpec& spec,
                 const hytgraph::CompactionPolicy& compaction,
                 double spill_budget_fraction,
                 uint64_t throttle_bytes_per_second, RunTracer* tracer,
                 Outcome* out);

/// `count` distinct sources drawn uniformly from the top 5% of vertices by
/// out-degree, so every source reaches the graph's giant component.
std::vector<VertexId> PickSources(const hytgraph::CsrGraph& graph,
                                  size_t count, hytgraph::Rng* rng);

/// Serial reference results (algorithms/reference.h) for one graph,
/// computed once per distinct (algorithm, source). BFS/SSSP/CC/SSWP must
/// match exactly; PR within 1e-3 x the largest rank and PHP within 1e-3
/// absolute, the tolerances of the library's own correctness tests (the
/// accumulative kernels stop at an epsilon residual and are not yet
/// reproducible bitwise).
class ReferenceChecker {
 public:
  ReferenceChecker(const hytgraph::CsrGraph* graph, RunTracer* tracer)
      : graph_(graph), tracer_(tracer) {}

  /// The reference values, computed on first use.
  const hytgraph::QueryValues& Reference(AlgorithmId algorithm,
                                         VertexId source);

  /// Computes the references of `queries` that are not cached yet, on up
  /// to 4 threads, so that later checks only look them up.
  void Precompute(
      const std::vector<std::pair<AlgorithmId, VertexId>>& queries);

  /// Empty when `values` match the reference, else a description.
  std::string Check(AlgorithmId algorithm, VertexId source,
                    const hytgraph::QueryValues& values);

 private:
  const hytgraph::CsrGraph* graph_;
  RunTracer* tracer_;
  std::map<std::pair<AlgorithmId, VertexId>, hytgraph::QueryValues> cache_;
};

/// A query with default parameters (kInvalidVertex: the engine's default
/// source, or none for PR/CC).
hytgraph::Query MakeQuery(AlgorithmId algorithm,
                          VertexId source = hytgraph::kInvalidVertex);

/// Lower-case metric key of an algorithm ("bfs", "pr", ...).
std::string AlgoKey(AlgorithmId algorithm);

/// The RunTrace fields the layer metrics read, for one Engine::Run.
struct RunSample {
  AlgorithmId algorithm = AlgorithmId::kBfs;
  VertexId source = hytgraph::kInvalidVertex;
  double wall_s = 0;
  double sim_s = 0;
  double transfer_s = 0;
  double kernel_s = 0;
  double compaction_s = 0;
  double host_compaction_s = 0;
  double lane_utilization = 0;
  int lanes = 1;
  uint64_t iterations = 0;
  uint64_t kernel_edges = 0;
  uint64_t transferred_bytes = 0;
  uint64_t partitions_filter = 0;
  uint64_t partitions_compaction = 0;
  uint64_t partitions_zero_copy = 0;
};

RunSample Summarize(const hytgraph::QueryResult& result, double wall_s);

/// One closed-loop Engine::Run: timed, traced when `tracer` is non-null,
/// checked against `checker`. Returns the sample, or nullopt when the run
/// failed (counted as failed).
std::optional<RunSample> RunChecked(hytgraph::Engine* engine,
                                    const hytgraph::Query& query,
                                    Tracer* tracer, uint64_t request,
                                    ReferenceChecker* checker, Outcome* out);

/// Per-algorithm metrics over `samples`: the end-to-end <algo>_ms and
/// sim_ms, and the core/engine/sim/util layer metrics, including the
/// run-to-run spread of iterations and kernel edges over repeats of the
/// same query.
void AddAlgorithmMetrics(const std::vector<RunSample>& samples,
                         Outcome* out);

/// What the serving layer did during a run (default-constructed for a
/// workload that never starts a QueryServer: its serving.* metrics read 0).
struct ServingSamples {
  hytgraph::ServingStats stats;
  std::vector<double> submit_us;
  std::vector<double> generator_lag_ms;
};

void AddServingMetrics(const ServingSamples& serving, Outcome* out);

/// What the dynamic layer did during a run (empty for a workload without
/// writes: its dynamic.* metrics read 0).
struct DynamicSamples {
  std::vector<double> submit_mutation_us;
  std::vector<double> freshness_ms;
  std::vector<double> incremental_ms;
  uint64_t incremental_fallbacks = 0;
  uint64_t overlay_depth_max = 0;
  uint64_t pending_delta_edges_max = 0;
  uint64_t epochs = 0;
  double window_s = 0;
  uint64_t folds = 0;
  double fold_s = 0;
};

void AddDynamicMetrics(const DynamicSamples& dynamic, Outcome* out);

/// Prepared-cache and block-cache deltas since `cache_before` /
/// `storage_before`.
void AddEngineCounterMetrics(const hytgraph::Engine& engine,
                             const hytgraph::EngineCacheStats& cache_before,
                             const hytgraph::StorageStats& storage_before,
                             Outcome* out);

/// Per-layer self time (ms) from the recorded spans, the span count, and
/// the overhead of tracing: traced over untraced median of each operation
/// kind, as a percentage.
void AddTraceMetrics(const Tracer& tracer,
                     const std::map<std::string, std::vector<double>>&
                         traced_ms,
                     const std::map<std::string, std::vector<double>>&
                         untraced_ms,
                     Outcome* out);

/// Samples the process's resident memory every 10 ms, on its own thread,
/// from construction until Stop().
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling and returns the samples, in MiB.
  std::vector<double> Stop();

 private:
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;            // guarded by mu_
  std::vector<double> samples_;  // sampler thread only until Stop()
  std::thread thread_;           // declared last: it uses the members above
};

/// The process's exact peak resident memory (getrusage), in MiB.
double MaxRssMib();

/// Workload entry points.
Outcome RunAnalytics(const Args& args, RunTracer* tracer);
Outcome RunOocScan(const Args& args, RunTracer* tracer);
Outcome RunServeRead(const Args& args, RunTracer* tracer);
Outcome RunServeWrite(const Args& args, RunTracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
