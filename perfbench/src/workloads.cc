#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "algorithms/reference.h"
#include "algorithms/runner.h"
#include "graph/degree_stats.h"
#include "stats.h"

namespace perfbench {

using hytgraph::CsrGraph;
using hytgraph::Engine;
using hytgraph::QueryResult;
using hytgraph::QueryValues;

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Set(std::map<std::string, Metric>* table, const std::string& name,
         double value, const char* unit) {
  (*table)[name] = Metric{value, unit};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;

}  // namespace

hytgraph::DatasetSpec MakeSpec(const std::string& name, uint32_t scale) {
  auto spec = hytgraph::FindDataset(name);
  if (!spec.ok()) Fatal(spec.status().ToString());
  spec->scale = scale;
  return *spec;
}

Deployment SetUp(const hytgraph::DatasetSpec& spec,
                 const hytgraph::CompactionPolicy& compaction,
                 double spill_budget_fraction,
                 uint64_t throttle_bytes_per_second, RunTracer* tracer,
                 Outcome* out) {
  std::vector<double> total_s, generate_s, construct_s, prepare_s;
  Deployment deployment;
  Tracer* trace = tracer->Always();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    deployment = Deployment{};  // release the previous engine first
    ScopedSpan root(trace, "bench", "setup");

    Clock::time_point start = Clock::now();
    hytgraph::Result<CsrGraph> graph = hytgraph::Status::Internal("unset");
    {
      ScopedSpan span(trace, "graph", "LoadDataset", root.id());
      graph = hytgraph::LoadDataset(spec);
    }
    generate_s.push_back(SecondsSince(start));
    if (!graph.ok()) Fatal(graph.status().ToString());

    hytgraph::SolverOptions options =
        hytgraph::SolverOptions::Defaults(hytgraph::SystemKind::kHyTGraph);
    options.device_memory_override =
        hytgraph::DeviceMemoryBudget(spec, *graph);
    deployment.graph = *graph;  // reference copy, outside the timed parts
    hytgraph::StorageOptions storage;
    storage.memory_budget_bytes = static_cast<uint64_t>(
        spill_budget_fraction * static_cast<double>(graph->EdgeDataBytes()));
    storage.throttle_bytes_per_second = throttle_bytes_per_second;

    start = Clock::now();
    {
      ScopedSpan span(trace, storage.enabled() ? "storage" : "core",
                      storage.enabled() ? "Engine(spill)" : "Engine",
                      root.id());
      deployment.engine = std::make_unique<Engine>(
          std::move(graph).value(), options, compaction, storage);
    }
    construct_s.push_back(SecondsSince(start));
    if (storage.enabled() && !deployment.engine->out_of_core()) {
      Fatal("the engine did not spill its graph to the block store");
    }

    start = Clock::now();
    {
      ScopedSpan span(trace, "graph", "PreparedGraph::Make", root.id());
      auto prepared = hytgraph::PreparedGraph::Make(
          deployment.engine->View(),
          hytgraph::EffectiveOptions(AlgorithmId::kSssp, options));
      if (!prepared.ok()) Fatal(prepared.status().ToString());
    }
    prepare_s.push_back(SecondsSince(start));
    total_s.push_back(generate_s.back() + construct_s.back() +
                      prepare_s.back());
  }
  for (AlgorithmId warm : {AlgorithmId::kBfs, AlgorithmId::kSssp}) {
    auto result = deployment.engine->Run(MakeQuery(warm));
    if (!result.ok()) Fatal(result.status().ToString());
  }
  Set(&out->end_to_end, "setup_s", Median(total_s), "s");
  Set(&out->per_layer, "graph.generate_s", Median(generate_s), "s");
  Set(&out->per_layer, "graph.prepare_ms", Median(prepare_s) * 1e3, "ms");
  Set(&out->per_layer, "storage.spill_s",
      spill_budget_fraction > 0 ? Median(construct_s) : 0.0, "s");
  return deployment;
}

std::vector<VertexId> PickSources(const CsrGraph& graph, size_t count,
                                  hytgraph::Rng* rng) {
  const size_t top = std::max<size_t>(count, graph.num_vertices() / 20);
  std::vector<VertexId> candidates =
      hytgraph::TopOutDegreeVertices(graph, top);
  // Partial Fisher-Yates: the first `count` entries become the sample.
  count = std::min(count, candidates.size());
  for (size_t i = 0; i < count; ++i) {
    const size_t j = i + rng->NextBounded(candidates.size() - i);
    std::swap(candidates[i], candidates[j]);
  }
  candidates.resize(count);
  return candidates;
}

namespace {

/// The cache key of a query: sourceless algorithms ignore `source`.
std::pair<AlgorithmId, VertexId> ReferenceKey(AlgorithmId algorithm,
                                              VertexId source) {
  const bool seeded = hytgraph::GetAlgorithmInfo(algorithm).needs_source;
  return {algorithm, seeded ? source : hytgraph::kInvalidVertex};
}

QueryValues ComputeReference(const CsrGraph& graph, AlgorithmId algorithm,
                             VertexId source) {
  switch (algorithm) {
    case AlgorithmId::kBfs:
      return hytgraph::ReferenceBfs(graph, source);
    case AlgorithmId::kSssp:
      return hytgraph::ReferenceSssp(graph, source);
    case AlgorithmId::kCc:
      return hytgraph::ReferenceCc(graph);
    case AlgorithmId::kSswp:
      return hytgraph::ReferenceSswp(graph, source);
    case AlgorithmId::kPageRank:
      return hytgraph::ReferencePageRank(graph);
    case AlgorithmId::kPhp:
      return hytgraph::ReferencePhp(graph, source);
  }
  Fatal("unknown algorithm");
}

}  // namespace

const QueryValues& ReferenceChecker::Reference(AlgorithmId algorithm,
                                               VertexId source) {
  const auto key = ReferenceKey(algorithm, source);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  ScopedSpan span(tracer_->Always(), "algorithms", "Reference");
  return cache_.emplace(key, ComputeReference(*graph_, algorithm, source))
      .first->second;
}

void ReferenceChecker::Precompute(
    const std::vector<std::pair<AlgorithmId, VertexId>>& queries) {
  std::vector<std::pair<AlgorithmId, VertexId>> missing;
  for (const auto& [algorithm, source] : queries) {
    const auto key = ReferenceKey(algorithm, source);
    if (!cache_.contains(key) &&
        std::find(missing.begin(), missing.end(), key) == missing.end()) {
      missing.push_back(key);
    }
  }
  std::vector<QueryValues> values(missing.size());
  std::atomic<size_t> next{0};
  const auto work = [&] {
    for (size_t i; (i = next.fetch_add(1)) < missing.size();) {
      ScopedSpan span(tracer_->Always(), "algorithms", "Reference");
      values[i] = ComputeReference(*graph_, missing[i].first,
                                   missing[i].second);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < 4; ++t) threads.emplace_back(work);
  work();
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < missing.size(); ++i) {
    cache_.emplace(missing[i], std::move(values[i]));
  }
}

std::string ReferenceChecker::Check(AlgorithmId algorithm, VertexId source,
                                    const QueryValues& values) {
  const QueryValues& expected = Reference(algorithm, source);
  const std::string what = std::string(hytgraph::AlgorithmName(algorithm)) +
                           " from " + std::to_string(source) + ": ";
  if (values.index() != expected.index()) return what + "value type differs";
  if (const auto* want = std::get_if<std::vector<uint32_t>>(&expected)) {
    const auto& got = std::get<std::vector<uint32_t>>(values);
    if (got.size() != want->size()) return what + "size differs";
    for (size_t v = 0; v < got.size(); ++v) {
      if (got[v] != (*want)[v]) {
        return what + "vertex " + std::to_string(v) + " is " +
               std::to_string(got[v]) + ", reference " +
               std::to_string((*want)[v]);
      }
    }
    return {};
  }
  const auto& want = std::get<std::vector<double>>(expected);
  const auto& got = std::get<std::vector<double>>(values);
  if (got.size() != want.size()) return what + "size differs";
  double largest = 0;
  for (double x : want) largest = std::max(largest, x);
  const double tolerance =
      algorithm == AlgorithmId::kPageRank ? 1e-3 * largest : 1e-3;
  for (size_t v = 0; v < got.size(); ++v) {
    if (!(std::fabs(got[v] - want[v]) <= tolerance)) {
      return what + "vertex " + std::to_string(v) + " is " +
             std::to_string(got[v]) + ", reference " +
             std::to_string(want[v]) + " (tolerance " +
             std::to_string(tolerance) + ")";
    }
  }
  return {};
}

hytgraph::Query MakeQuery(AlgorithmId algorithm, VertexId source) {
  hytgraph::Query query;
  query.algorithm = algorithm;
  query.source = source;
  return query;
}

std::string AlgoKey(AlgorithmId algorithm) {
  std::string key = hytgraph::AlgorithmName(algorithm);
  for (char& c : key) c = static_cast<char>(std::tolower(c));
  return key;
}

RunSample Summarize(const QueryResult& result, double wall_s) {
  const hytgraph::RunTrace& trace = result.trace;
  RunSample sample;
  sample.algorithm = result.algorithm;
  sample.source = result.source;
  sample.wall_s = wall_s;
  sample.sim_s = trace.total_sim_seconds;
  sample.transfer_s = trace.TotalTransferSeconds();
  sample.kernel_s = trace.TotalKernelSeconds();
  sample.compaction_s = trace.TotalCompactionSeconds();
  sample.lane_utilization = trace.LaneUtilization();
  sample.lanes = trace.num_lanes;
  sample.iterations = trace.NumIterations();
  sample.kernel_edges = trace.TotalKernelEdges();
  sample.transferred_bytes = trace.TotalTransferredBytes();
  for (const hytgraph::IterationTrace& it : trace.iterations) {
    sample.host_compaction_s += it.measured_compaction_seconds;
    sample.partitions_filter += it.partitions_filter;
    sample.partitions_compaction += it.partitions_compaction;
    sample.partitions_zero_copy += it.partitions_zero_copy;
  }
  return sample;
}

std::optional<RunSample> RunChecked(Engine* engine,
                                    const hytgraph::Query& query,
                                    Tracer* tracer, uint64_t request,
                                    ReferenceChecker* checker, Outcome* out) {
  ScopedSpan root(tracer, "bench", "query", 0, request);
  ++out->attempted;
  const Clock::time_point start = Clock::now();
  hytgraph::Result<QueryResult> result = hytgraph::Status::Internal("unset");
  {
    ScopedSpan span(tracer, "core", "Engine::Run", root.id(), request);
    result = engine->Run(query);
  }
  const double wall_s = SecondsSince(start);
  if (!result.ok()) {
    ++out->failed;
    std::fprintf(stderr, "perfbench: %s query failed: %s\n",
                 hytgraph::AlgorithmName(query.algorithm),
                 result.status().ToString().c_str());
    return std::nullopt;
  }
  ++out->succeeded;
  if (checker != nullptr) {
    std::string why =
        checker->Check(query.algorithm, result->source, result->values);
    if (!why.empty()) out->Mismatch(std::move(why));
  }
  return Summarize(*result, wall_s);
}

void AddAlgorithmMetrics(const std::vector<RunSample>& samples,
                         Outcome* out) {
  double sim_ms = 0;
  std::vector<double> utilization;
  int lanes = 1;
  for (AlgorithmId algorithm : hytgraph::kAllAlgorithms) {
    std::vector<const RunSample*> mine;
    for (const RunSample& s : samples) {
      if (s.algorithm == algorithm) mine.push_back(&s);
    }
    const auto median_of = [&](auto field) {
      std::vector<double> values;
      for (const RunSample* s : mine) values.push_back(field(*s));
      return Median(std::move(values));
    };
    // Run-to-run spread: the mean, over queries run more than once, of
    // the range of iterations and of kernel edges (as % of their mean).
    std::map<VertexId, std::vector<const RunSample*>> repeats;
    for (const RunSample* s : mine) repeats[s->source].push_back(s);
    double iteration_range = 0, edge_range_pct = 0;
    int repeated = 0;
    for (const auto& [source, runs] : repeats) {
      if (runs.size() < 2) continue;
      ++repeated;
      uint64_t it_lo = UINT64_MAX, it_hi = 0, e_lo = UINT64_MAX, e_hi = 0;
      double e_sum = 0;
      for (const RunSample* s : runs) {
        it_lo = std::min(it_lo, s->iterations);
        it_hi = std::max(it_hi, s->iterations);
        e_lo = std::min(e_lo, s->kernel_edges);
        e_hi = std::max(e_hi, s->kernel_edges);
        e_sum += static_cast<double>(s->kernel_edges);
      }
      iteration_range += static_cast<double>(it_hi - it_lo);
      edge_range_pct += 100.0 * Ratio(static_cast<double>(e_hi - e_lo),
                                      e_sum / runs.size());
    }
    if (repeated > 0) {
      iteration_range /= repeated;
      edge_range_pct /= repeated;
    }

    const std::string key = AlgoKey(algorithm);
    const double wall_ms = median_of([](const RunSample& s) {
      return s.wall_s * 1e3;
    });
    Set(&out->end_to_end, key + "_ms", wall_ms, "ms");
    sim_ms += median_of([](const RunSample& s) { return s.sim_s * 1e3; });

    auto& layer = out->per_layer;
    Set(&layer, "core.run_ms." + key, wall_ms, "ms");
    Set(&layer, "core.iterations." + key,
        median_of([](const RunSample& s) {
          return static_cast<double>(s.iterations);
        }),
        "count");
    Set(&layer, "core.iterations_spread." + key, iteration_range, "count");
    Set(&layer, "engine.kernel_edges." + key,
        median_of([](const RunSample& s) {
          return static_cast<double>(s.kernel_edges);
        }),
        "count");
    Set(&layer, "engine.kernel_edges_spread_pct." + key, edge_range_pct,
        "%");
    Set(&layer, "engine.kernel_edges_per_s." + key,
        median_of([](const RunSample& s) {
          return Ratio(static_cast<double>(s.kernel_edges), s.wall_s);
        }),
        "1/s");
    Set(&layer, "engine.host_compaction_ms." + key,
        median_of([](const RunSample& s) {
          return s.host_compaction_s * 1e3;
        }),
        "ms");
    Set(&layer, "sim.transfer_ms." + key,
        median_of([](const RunSample& s) { return s.transfer_s * 1e3; }),
        "ms");
    Set(&layer, "sim.kernel_ms." + key,
        median_of([](const RunSample& s) { return s.kernel_s * 1e3; }),
        "ms");
    Set(&layer, "sim.compaction_ms." + key,
        median_of([](const RunSample& s) { return s.compaction_s * 1e3; }),
        "ms");
    Set(&layer, "sim.transferred_mib." + key,
        median_of([](const RunSample& s) {
          return static_cast<double>(s.transferred_bytes) / (1 << 20);
        }),
        "MiB");
    Set(&layer, "sim.partitions.filter." + key,
        median_of([](const RunSample& s) {
          return static_cast<double>(s.partitions_filter);
        }),
        "count");
    Set(&layer, "sim.partitions.compaction." + key,
        median_of([](const RunSample& s) {
          return static_cast<double>(s.partitions_compaction);
        }),
        "count");
    Set(&layer, "sim.partitions.zero_copy." + key,
        median_of([](const RunSample& s) {
          return static_cast<double>(s.partitions_zero_copy);
        }),
        "count");
  }
  for (const RunSample& s : samples) {
    utilization.push_back(s.lane_utilization);
    lanes = std::max(lanes, s.lanes);
  }
  Set(&out->end_to_end, "sim_ms", sim_ms, "ms");
  Set(&out->per_layer, "util.lanes", lanes, "count");
  Set(&out->per_layer, "util.lane_utilization", Median(utilization),
      "ratio");
}

void AddEngineCounterMetrics(const Engine& engine,
                             const hytgraph::EngineCacheStats& cache_before,
                             const hytgraph::StorageStats& storage_before,
                             Outcome* out) {
  auto& layer = out->per_layer;
  const hytgraph::EngineCacheStats cache = engine.cache_stats();
  const double hits = static_cast<double>(cache.hits - cache_before.hits);
  const double misses =
      static_cast<double>(cache.misses - cache_before.misses);
  Set(&layer, "core.prepared_hit_ratio", Ratio(hits, hits + misses),
      "ratio");
  Set(&layer, "core.prepared_invalidated",
      static_cast<double>(cache.invalidated - cache_before.invalidated),
      "count");

  const hytgraph::StorageStats now = engine.storage_stats();
  const auto delta = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double s_hits = delta(now.hits, storage_before.hits);
  const double s_misses = delta(now.misses, storage_before.misses);
  const double issued =
      delta(now.prefetch_issued, storage_before.prefetch_issued);
  Set(&layer, "storage.hit_ratio", Ratio(s_hits, s_hits + s_misses),
      "ratio");
  Set(&layer, "storage.misses", s_misses, "count");
  Set(&layer, "storage.evictions",
      delta(now.evictions, storage_before.evictions), "count");
  Set(&layer, "storage.bytes_read_mib",
      delta(now.bytes_read, storage_before.bytes_read) / (1 << 20), "MiB");
  Set(&layer, "storage.prefetch_issued", issued, "count");
  Set(&layer, "storage.prefetch_accuracy",
      Ratio(delta(now.prefetch_useful, storage_before.prefetch_useful),
            issued),
      "ratio");
  Set(&layer, "storage.read_retries",
      delta(now.read_retries, storage_before.read_retries), "count");
  Set(&layer, "storage.fetch_failures",
      delta(now.fetch_failures, storage_before.fetch_failures), "count");
}

void AddServingMetrics(const ServingSamples& serving, Outcome* out) {
  auto& layer = out->per_layer;
  const hytgraph::ServingStats& stats = serving.stats;
  const double served = static_cast<double>(stats.completed + stats.failed);
  Set(&layer, "serving.submit_us", Median(serving.submit_us), "us");
  Set(&layer, "serving.fusion_ratio", stats.FusionRatio(), "ratio");
  Set(&layer, "serving.batch_size_mean",
      Ratio(served, static_cast<double>(stats.dispatch_batches)), "count");
  Set(&layer, "serving.queue_depth_high_water",
      static_cast<double>(stats.queue_depth_high_water), "count");
  Set(&layer, "serving.rejected", static_cast<double>(stats.rejected),
      "count");
  Set(&layer, "serving.shed",
      static_cast<double>(stats.shed_deadline + stats.shed_overload),
      "count");
  Set(&layer, "serving.retried", static_cast<double>(stats.retried),
      "count");
  Set(&layer, "serving.server_p50_ms", stats.p50_latency_seconds * 1e3,
      "ms");
  Set(&layer, "serving.generator_lag_ms",
      Quantile(serving.generator_lag_ms, 0.99), "ms");
}

void AddDynamicMetrics(const DynamicSamples& dynamic, Outcome* out) {
  auto& layer = out->per_layer;
  Set(&layer, "dynamic.submit_mutation_us",
      Median(dynamic.submit_mutation_us), "us");
  Set(&layer, "dynamic.freshness_p50_ms", Median(dynamic.freshness_ms),
      "ms");
  Set(&layer, "dynamic.epochs_per_s",
      Ratio(static_cast<double>(dynamic.epochs), dynamic.window_s), "1/s");
  Set(&layer, "dynamic.folds", static_cast<double>(dynamic.folds), "count");
  Set(&layer, "dynamic.fold_ms", dynamic.fold_s * 1e3, "ms");
  Set(&layer, "dynamic.overlay_depth_max",
      static_cast<double>(dynamic.overlay_depth_max), "count");
  Set(&layer, "dynamic.pending_delta_edges_max",
      static_cast<double>(dynamic.pending_delta_edges_max), "count");
  Set(&layer, "dynamic.incremental_ms", Median(dynamic.incremental_ms),
      "ms");
  Set(&layer, "dynamic.incremental_fallbacks",
      static_cast<double>(dynamic.incremental_fallbacks), "count");
}

void AddTraceMetrics(
    const Tracer& tracer,
    const std::map<std::string, std::vector<double>>& traced_ms,
    const std::map<std::string, std::vector<double>>& untraced_ms,
    Outcome* out) {
  auto& layer = out->per_layer;
  const std::vector<Span> spans = tracer.Spans();
  const std::map<std::string, double> self = SelfSecondsByLayer(spans);
  for (const char* name : {"bench", "graph", "core", "storage", "dynamic",
                           "serving", "algorithms"}) {
    const auto it = self.find(name);
    Set(&layer, std::string(name) + ".self_ms",
        it == self.end() ? 0.0 : it->second * 1e3, "ms");
  }
  Set(&layer, "trace.spans", static_cast<double>(spans.size()), "count");

  std::vector<double> ratios;
  for (const auto& [kind, traced] : traced_ms) {
    const auto it = untraced_ms.find(kind);
    if (it == untraced_ms.end() || it->second.empty() || traced.empty()) {
      continue;
    }
    ratios.push_back(Ratio(Median(traced), Median(it->second)));
  }
  Set(&layer, "trace.overhead_pct",
      ratios.empty() ? 0.0 : 100.0 * (Median(ratios) - 1.0), "%");
}

RssSampler::RssSampler() {
  const double page_mib =
      static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
  thread_ = std::thread([this, page_mib] {
    std::unique_lock<std::mutex> lock(mu_);
    do {
      // statm's second field is the resident set, in pages.
      std::FILE* statm = std::fopen("/proc/self/statm", "r");
      unsigned long long size = 0, resident = 0;
      if (statm != nullptr) {
        if (std::fscanf(statm, "%llu %llu", &size, &resident) == 2) {
          samples_.push_back(static_cast<double>(resident) * page_mib);
        }
        std::fclose(statm);
      }
    } while (!wake_.wait_for(lock, std::chrono::milliseconds(10),
                             [this] { return stop_; }));
  });
}

RssSampler::~RssSampler() { Stop(); }

std::vector<double> RssSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_one();
  if (thread_.joinable()) thread_.join();
  return samples_;
}

double MaxRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
