// The serving workloads. BFS and SSSP requests from a Zipf-skewed pool of
// hot sources go through QueryServer (fusion on). Each run alternates an
// open-loop stretch at the workload's nominal rate, which gives the
// latency percentiles, with a saturation stretch that keeps a full
// dispatch batch of requests outstanding, which gives max_qps.
// `serve-read` has no writes; `serve-write` adds an open-loop mutator and
// a standing SSSP query refreshed with RunIncremental. Open-loop latency is
// timed from each request's due time, so a stalled generator or server is
// charged to every request it delays, and every due request is sent.
//
// The traffic parameters below are assumptions, not measurements of real
// traffic; METRICS.md lists them.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <thread>

#include "serving/query_server.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hytgraph::Engine;
using hytgraph::QueryResult;
using hytgraph::QueryServer;
using hytgraph::Result;

constexpr uint32_t kScale = 14;  // TW-like, 2^14 vertices, ~0.6 M edges
/// Assumed: 64 hot sources, drawn Zipf(1.0), half BFS and half SSSP.
constexpr size_t kHotPool = 64;
constexpr double kZipfExponent = 1.0;
constexpr double kBfsShare = 0.5;
/// Unmeasured traffic at the nominal rate before the first cycle, so the
/// lanes, the prepared cache and (on serve-write) the first epochs and
/// folds are past their start-up transient when timing begins.
constexpr std::chrono::seconds kWarmup{1};
/// The run is kCycles cycles of an open-loop stretch at the nominal rate
/// followed by a saturation stretch; kSaturationShare of each cycle is
/// saturation. Spreading both over the run keeps a passing stretch of
/// host contention from landing on one of them alone.
constexpr int kCycles = 5;
constexpr double kSaturationShare = 1.0 / 3;
/// Requests kept outstanding while saturating: one full dispatch batch
/// (QueryServerOptions::max_batch), well below a lane's admission capacity,
/// so the server never rejects.
constexpr uint64_t kSaturationWindow = 64;
/// The isolated suite: one round per cycle, each running BFS/SSSP/SSWP
/// from kSuiteSources hot sources with a CC after each source, then PR and
/// PHP (from the engine's default source, the same query for every seed).
/// serve-read runs a round after each cycle, while the server is idle, so
/// the samples span the run and a stretch of host contention moves few of
/// them; serve-write runs them all once its writers have stopped.
constexpr size_t kSuiteSources = 8;
constexpr int kSuiteRounds = kCycles;

/// serve-write's writers: one mutation batch of kMutationsPerBatch edges
/// (half inserts of random edges, half deletions of base edges) every
/// 1/kMutationRate seconds, the rate and batch size at which the streaming
/// cliff was first measured (ROADMAP direction 3), and a standing-query
/// refresh every kRefreshPeriod (assumed).
constexpr double kMutationRate = 100;
constexpr size_t kMutationsPerBatch = 128;
constexpr std::chrono::milliseconds kRefreshPeriod{100};
/// The mutation stream is the same for every workload seed, like the
/// graph: the suite's CC time differed ~1.5x between the final graphs of
/// different seeded streams (5 ms against 7.3 ms), a structural split no
/// bound could hold. The seed still drives sources and arrivals.
constexpr uint64_t kMutationSeed = 0x5EED;

struct ServeConfig {
  double nominal_qps = 0;
  bool writes = false;
};

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Draws pool ranks with probability proportional to 1 / (rank + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double exponent) : cdf_(n) {
    double total = 0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Draw(hytgraph::Rng* rng) const {
    const double u = rng->NextDouble();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

using ServedKey = std::pair<AlgorithmId, VertexId>;

/// State the traffic stretches share. The submitter thread owns the
/// submit-side fields and the waiter thread the rest while a stretch runs;
/// the main thread reads them between stretches.
struct TrafficState {
  QueryServer* server = nullptr;
  RunTracer* tracer = nullptr;
  const std::vector<VertexId>* pool = nullptr;
  Zipf zipf{1, kZipfExponent};
  hytgraph::Rng rng{0};
  uint64_t next_request = 1;
  /// serve-read: the first served values per distinct query; later
  /// answers must equal them, and so must an isolated Engine::Run.
  bool record_served = false;
  std::map<ServedKey, hytgraph::QueryValues> served;

  ServingSamples serving;
  uint64_t attempted = 0, succeeded = 0, failed = 0, rejected = 0, shed = 0;
  std::vector<std::string> mismatches;

  ServedKey NextKey() {
    const AlgorithmId algorithm =
        rng.NextBool(kBfsShare) ? AlgorithmId::kBfs : AlgorithmId::kSssp;
    return {algorithm, (*pool)[zipf.Draw(&rng)]};
  }
};

struct StretchResult {
  /// From due time (open loop) or submission (saturation); +inf for a
  /// request that was rejected, shed or failed.
  std::vector<double> latency_ms;
  /// Seconds from the stretch's start to each successful completion.
  std::vector<double> completion_s;
  std::map<std::string, std::vector<double>> traced_ms, untraced_ms;
};

struct InFlight {
  uint64_t request = 0;
  Clock::time_point due;
  Clock::time_point submitted;
  ServedKey key;
  Tracer* trace = nullptr;
  uint64_t root = 0;
  std::future<Result<QueryResult>> future;
};

/// Sends `length` of traffic through the server and collects every
/// request's outcome. With `qps` > 0 the requests arrive open loop on a
/// Poisson schedule at that rate, and each is sent however late it is.
/// With `qps` == 0 the submitter keeps kSaturationWindow requests
/// outstanding until `length` has passed.
StretchResult RunStretch(TrafficState* state, double qps,
                         Clock::duration length) {
  const bool open_loop = qps > 0;
  // The open-loop schedule is drawn up front so generation costs nothing
  // at send time.
  struct Arrival {
    Clock::duration offset;
    ServedKey key;
  };
  std::vector<Arrival> arrivals;
  for (double t = 0; open_loop;) {
    t += -std::log(1.0 - state->rng.NextDouble()) / qps;
    if (Seconds(t) >= length) break;
    arrivals.push_back({Seconds(t), state->NextKey()});
  }

  StretchResult result;
  std::mutex mu;
  std::condition_variable handed_off;  // waiter: new work or done
  std::condition_variable room;        // submitter: a request completed
  std::deque<InFlight> handoff;        // guarded by mu
  bool submitter_done = false;         // guarded by mu
  uint64_t outstanding = 0;            // guarded by mu

  const auto record_root = [](const InFlight& f, Clock::time_point end) {
    if (f.trace == nullptr) return;
    f.trace->Record({f.root, 0, f.request, "bench", "request", f.due, end});
  };
  const auto miss = [&](const InFlight& f, Clock::time_point end) {
    result.latency_ms.push_back(INFINITY);
    record_root(f, end);
  };

  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + length;
  std::thread submitter([&] {
    for (size_t i = 0;; ++i) {
      InFlight f;
      if (open_loop) {
        if (i == arrivals.size()) break;
        f.due = start + arrivals[i].offset;
        f.key = arrivals[i].key;
        std::this_thread::sleep_until(f.due);
      } else {
        std::unique_lock<std::mutex> lock(mu);
        room.wait_until(lock, end,
                        [&] { return outstanding < kSaturationWindow; });
        if (Clock::now() >= end) break;
        f.due = Clock::now();
        f.key = state->NextKey();
      }
      const Clock::time_point now = Clock::now();
      if (open_loop) {
        state->serving.generator_lag_ms.push_back(Ms(now - f.due));
      }
      f.request = state->next_request++;
      f.trace = state->tracer->Pick(f.request);
      f.root = f.trace != nullptr ? f.trace->NewId() : 0;
      ++state->attempted;
      Result<std::future<Result<QueryResult>>> admitted =
          hytgraph::Status::Internal("unset");
      {
        ScopedSpan span(f.trace, "serving", "QueryServer::Submit", f.root,
                        f.request);
        hytgraph::ServingRequest request;
        request.query = MakeQuery(f.key.first, f.key.second);
        admitted = state->server->Submit(std::move(request));
      }
      f.submitted = Clock::now();
      state->serving.submit_us.push_back(Ms(f.submitted - now) * 1e3);
      std::lock_guard<std::mutex> lock(mu);
      if (!admitted.ok()) {
        ++state->rejected;
        miss(f, f.submitted);
        continue;
      }
      f.future = std::move(admitted).value();
      ++outstanding;
      handoff.push_back(std::move(f));
      handed_off.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    submitter_done = true;
    handed_off.notify_one();
  });

  const auto finish = [&](InFlight& f) {
    Result<QueryResult> served = f.future.get();
    const Clock::time_point now = Clock::now();
    if (f.trace != nullptr) {
      f.trace->Record({f.trace->NewId(), f.root, f.request, "serving",
                       "QueryServer result", f.submitted, now});
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      --outstanding;
      room.notify_one();
      if (!served.ok()) {
        if (served.status().IsDeadlineExceeded()) {
          ++state->shed;
        } else {
          ++state->failed;
          std::fprintf(stderr, "perfbench: request failed: %s\n",
                       served.status().ToString().c_str());
        }
        miss(f, now);
        return;
      }
      ++state->succeeded;
      result.completion_s.push_back(
          std::chrono::duration<double>(now - start).count());
      const double latency = Ms(now - f.due);
      result.latency_ms.push_back(latency);
      (f.trace != nullptr ? result.traced_ms : result.untraced_ms)["request"]
          .push_back(latency);
      record_root(f, now);
    }
    // The served map is the waiter's alone: compare outside the lock the
    // submitter needs.
    if (!state->record_served) return;
    auto [it, fresh] = state->served.try_emplace(f.key, served->values);
    if (!fresh && it->second != served->values) {
      state->mismatches.push_back(
          std::string(hytgraph::AlgorithmName(f.key.first)) + " from " +
          std::to_string(f.key.second) +
          ": two served answers on one epoch differ");
    }
  };

  std::thread waiter([&] {
    std::vector<InFlight> pending;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (pending.empty()) {
          handed_off.wait(lock,
                          [&] { return submitter_done || !handoff.empty(); });
        }
        for (InFlight& f : handoff) pending.push_back(std::move(f));
        handoff.clear();
        if (pending.empty() && submitter_done) break;
      }
      if (pending.empty()) continue;
      // Block on the oldest request, then sweep them all: the oldest is
      // seen as soon as it completes, any other within ~1 ms.
      pending.front().future.wait_for(std::chrono::milliseconds(1));
      for (size_t i = 0; i < pending.size();) {
        if (pending[i].future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        finish(pending[i]);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  });
  submitter.join();
  waiter.join();
  return result;
}

/// serve-write's writers: the open-loop mutator and the standing-query
/// client, each on its own thread for the whole traffic run.
class Writers {
 public:
  Writers(Engine* engine, QueryServer* server, const hytgraph::CsrGraph* base,
          VertexId standing_source, RunTracer* tracer)
      : engine_(engine),
        server_(server),
        base_(base),
        tracer_(tracer),
        rng_(kMutationSeed),
        standing_(MakeQuery(AlgorithmId::kSssp, standing_source)) {
    auto first = engine_->Run(standing_);
    if (!first.ok()) {
      std::fprintf(stderr, "perfbench: standing query failed: %s\n",
                   first.status().ToString().c_str());
      std::exit(2);
    }
    previous_ = std::move(first).value();
  }
  Writers(const Writers&) = delete;
  Writers& operator=(const Writers&) = delete;
  ~Writers() { Stop(); }

  void Start() {
    const Clock::time_point start = Clock::now();
    mutator_ = std::thread([this, start] { MutatorLoop(start); });
    standing_thread_ = std::thread([this, start] { StandingLoop(start); });
  }

  void Stop() {
    stop_ = true;
    if (mutator_.joinable()) mutator_.join();
    if (standing_thread_.joinable()) standing_thread_.join();
  }

  const hytgraph::Query& standing_query() const { return standing_; }
  const QueryResult& standing_result() const { return previous_; }
  DynamicSamples& samples() { return samples_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t succeeded() const { return succeeded_; }
  uint64_t failed() const { return failed_; }

 private:
  hytgraph::MutationBatch NextBatch() {
    hytgraph::MutationBatch batch;
    const VertexId n = base_->num_vertices();
    for (size_t i = 0; i < kMutationsPerBatch / 2; ++i) {
      batch.InsertEdge(static_cast<VertexId>(rng_.NextBounded(n)),
                       static_cast<VertexId>(rng_.NextBounded(n)),
                       static_cast<hytgraph::Weight>(rng_.NextInRange(1, 64)));
    }
    for (size_t i = 0; i < kMutationsPerBatch / 2;) {
      const auto u = static_cast<VertexId>(rng_.NextBounded(n));
      const auto neighbors = base_->neighbors(u);
      if (neighbors.empty()) continue;
      batch.DeleteEdge(u, neighbors[rng_.NextBounded(neighbors.size())]);
      ++i;
    }
    return batch;
  }

  void MutatorLoop(Clock::time_point start) {
    const Clock::duration period = Seconds(1.0 / kMutationRate);
    uint64_t op = 0;
    for (Clock::time_point due = start; !stop_; due += period) {
      hytgraph::MutationBatch batch = NextBatch();
      std::this_thread::sleep_until(due);
      Tracer* trace = tracer_->Pick(op++);
      ScopedSpan root(trace, "bench", "mutation");
      const Clock::time_point submit_start = Clock::now();
      hytgraph::Status status;
      {
        ScopedSpan span(trace, "dynamic", "QueryServer::SubmitMutation",
                        root.id());
        status = server_->SubmitMutation(std::move(batch));
      }
      samples_.submit_mutation_us.push_back(
          Ms(Clock::now() - submit_start) * 1e3);
      ++attempted_;
      if (!status.ok()) {
        ++failed_;
        std::fprintf(stderr, "perfbench: mutation rejected: %s\n",
                     status.ToString().c_str());
        continue;
      }
      {
        ScopedSpan span(trace, "dynamic", "Engine::WaitForIngest", root.id());
        engine_->WaitForIngest();
      }
      samples_.freshness_ms.push_back(Ms(Clock::now() - due));
      ++succeeded_;
      samples_.overlay_depth_max =
          std::max<uint64_t>(samples_.overlay_depth_max,
                             static_cast<uint64_t>(engine_->overlay_depth()));
      samples_.pending_delta_edges_max = std::max(
          samples_.pending_delta_edges_max, engine_->pending_delta_edges());
    }
  }

  void StandingLoop(Clock::time_point start) {
    uint64_t op = 0;
    for (Clock::time_point due = start + kRefreshPeriod; !stop_;
         due += kRefreshPeriod) {
      std::this_thread::sleep_until(due);
      Tracer* trace = tracer_->Pick(op++);
      const Clock::time_point begin = Clock::now();
      Result<QueryResult> refreshed = hytgraph::Status::Internal("unset");
      {
        ScopedSpan span(trace, "dynamic", "Engine::RunIncremental");
        refreshed = engine_->RunIncremental(standing_, previous_);
      }
      samples_.incremental_ms.push_back(Ms(Clock::now() - begin));
      ++attempted_;
      if (!refreshed.ok()) {
        ++failed_;
        std::fprintf(stderr, "perfbench: standing refresh failed: %s\n",
                     refreshed.status().ToString().c_str());
        continue;
      }
      ++succeeded_;
      if (refreshed->trace.incremental_fallback !=
          hytgraph::IncrementalFallback::kNone) {
        ++samples_.incremental_fallbacks;
      }
      previous_ = std::move(refreshed).value();
    }
  }

  Engine* engine_;
  QueryServer* server_;
  const hytgraph::CsrGraph* base_;
  RunTracer* tracer_;
  hytgraph::Rng rng_;  // mutator thread only
  const hytgraph::Query standing_;
  QueryResult previous_;  // standing thread only while running
  DynamicSamples samples_;
  std::atomic<uint64_t> attempted_{0}, succeeded_{0}, failed_{0};
  std::atomic<bool> stop_{false};
  // Declared last: the threads use every member above.
  std::thread mutator_;
  std::thread standing_thread_;
};

/// Isolated Engine::Run calls for the per-algorithm metrics, each checked
/// against the reference.
class Suite {
 public:
  Suite(Engine* engine, const std::vector<VertexId>* pool,
        RunTracer* tracer, Outcome* out)
      : engine_(engine), pool_(pool), tracer_(tracer), out_(out) {}

  /// Runs one round, or nothing once kSuiteRounds have run.
  void Round(ReferenceChecker* checker) {
    if (rounds_ == kSuiteRounds) return;
    ++rounds_;
    for (size_t k = 0; k < kSuiteSources; ++k) {
      Run(checker, AlgorithmId::kBfs, (*pool_)[k]);
      Run(checker, AlgorithmId::kSssp, (*pool_)[k]);
      Run(checker, AlgorithmId::kSswp, (*pool_)[k]);
      Run(checker, AlgorithmId::kCc, hytgraph::kInvalidVertex);
    }
    Run(checker, AlgorithmId::kPageRank, hytgraph::kInvalidVertex);
    Run(checker, AlgorithmId::kPhp, hytgraph::kInvalidVertex);
  }

  void Finish(ReferenceChecker* checker) {
    while (rounds_ < kSuiteRounds) Round(checker);
  }

  const std::vector<RunSample>& samples() const { return samples_; }

 private:
  void Run(ReferenceChecker* checker, AlgorithmId algorithm,
           VertexId source) {
    auto sample = RunChecked(engine_, MakeQuery(algorithm, source),
                             tracer_->Pick(op_), op_ + 1, checker, out_);
    ++op_;
    if (sample) samples_.push_back(*sample);
  }

  Engine* engine_;
  const std::vector<VertexId>* pool_;
  RunTracer* tracer_;
  Outcome* out_;
  int rounds_ = 0;
  uint64_t op_ = 0;
  std::vector<RunSample> samples_;
};

Outcome RunServe(const Args& args, RunTracer* tracer,
                 const ServeConfig& config) {
  Outcome out;
  hytgraph::CompactionPolicy compaction;
  if (config.writes) compaction.mode = hytgraph::CompactionMode::kBackground;
  Deployment deployment = SetUp(MakeSpec("TW", kScale), compaction,
                                0.0, 0, tracer, &out);
  Engine* engine = deployment.engine.get();
  hytgraph::Rng rng(args.seed);
  const std::vector<VertexId> pool =
      PickSources(deployment.graph, kHotPool, &rng);

  const hytgraph::EngineCacheStats cache_before = engine->cache_stats();
  const hytgraph::StorageStats storage_before = engine->storage_stats();
  const uint64_t epoch_before = engine->epoch();
  const hytgraph::SnapshotCompactor::Stats folds_before =
      engine->compactor_stats();

  QueryServer server(engine);
  TrafficState state;
  state.server = &server;
  state.tracer = tracer;
  state.pool = &pool;
  state.zipf = Zipf(pool.size(), kZipfExponent);
  state.rng = hytgraph::Rng(args.seed * 31 + 7);
  state.record_served = !config.writes;
  std::unique_ptr<Writers> writers;
  const Clock::time_point writes_start = Clock::now();
  if (config.writes) {
    writers = std::make_unique<Writers>(engine, &server, &deployment.graph,
                                        pool[0], tracer);
    writers->Start();
  }

  const double cycle_s = args.seconds / kCycles;
  const double saturation_s = cycle_s * kSaturationShare;
  Suite suite(engine, &pool, tracer, &out);
  // serve-read's graph never changes, so its suite interleaves with the
  // traffic, checked against the generated graph.
  std::optional<ReferenceChecker> static_checker;
  if (!config.writes) static_checker.emplace(&deployment.graph, tracer);

  RunStretch(&state, config.nominal_qps, kWarmup);
  StretchResult nominal;
  std::vector<double> saturation_qps;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    StretchResult open = RunStretch(&state, config.nominal_qps,
                                    Seconds(cycle_s - saturation_s));
    StretchResult full = RunStretch(&state, 0, Seconds(saturation_s));
    saturation_qps.push_back(SaturationQps(full.completion_s, saturation_s));
    std::fprintf(stderr,
                 "perfbench: cycle %d: %zu requests at %.0f/s, p50 %.2f ms, "
                 "p90 %.2f ms; saturation %.1f/s\n",
                 cycle, open.latency_ms.size(), config.nominal_qps,
                 Quantile(open.latency_ms, 0.5), Quantile(open.latency_ms, 0.9),
                 saturation_qps.back());
    nominal.latency_ms.insert(nominal.latency_ms.end(),
                              open.latency_ms.begin(), open.latency_ms.end());
    for (auto& [kind, ms] : open.traced_ms) {
      auto& all = nominal.traced_ms[kind];
      all.insert(all.end(), ms.begin(), ms.end());
    }
    for (auto& [kind, ms] : open.untraced_ms) {
      auto& all = nominal.untraced_ms[kind];
      all.insert(all.end(), ms.begin(), ms.end());
    }
    if (static_checker) suite.Round(&*static_checker);
  }
  if (writers) writers->Stop();
  const double writes_s =
      std::chrono::duration<double>(Clock::now() - writes_start).count();
  server.Shutdown();
  state.serving.stats = server.stats();

  out.end_to_end["latency_p50_ms"] = {Quantile(nominal.latency_ms, 0.5), "ms"};
  out.end_to_end["latency_p90_ms"] = {Quantile(nominal.latency_ms, 0.9),
                                      "ms"};
  out.per_layer["bench.latency_p99_ms"] = {
      Quantile(nominal.latency_ms, 0.99), "ms"};
  out.end_to_end["max_qps"] = {Median(saturation_qps), "1/s"};

  out.attempted += state.attempted;
  out.succeeded += state.succeeded;
  out.failed += state.failed;
  out.rejected += state.rejected;
  out.shed += state.shed;
  for (std::string& m : state.mismatches) out.Mismatch(std::move(m));

  DynamicSamples dynamic;
  if (config.writes) {
    engine->WaitForIngest();
    engine->WaitForCompaction();
    dynamic = writers->samples();
    dynamic.epochs = engine->epoch() - epoch_before;
    dynamic.window_s = writes_s;
    const hytgraph::SnapshotCompactor::Stats folds = engine->compactor_stats();
    dynamic.folds = folds.folds - folds_before.folds;
    dynamic.fold_s = folds.total_seconds - folds_before.total_seconds;
    out.attempted += writers->attempted();
    out.succeeded += writers->succeeded();
    out.failed += writers->failed();

    // Every write has landed: check against the materialized final graph.
    auto final_graph = engine->View().Materialize();
    if (!final_graph.ok()) {
      out.Mismatch("materialize failed: " + final_graph.status().ToString());
    } else {
      ReferenceChecker checker(&*final_graph, tracer);
      // The suite times a folded graph: whether the last background fold
      // landed before the writers stopped is a race, not a property.
      if (hytgraph::Status folded = engine->Compact(); !folded.ok()) {
        out.Mismatch("compact failed: " + folded.ToString());
      }
      ++out.attempted;
      auto refreshed = engine->RunIncremental(writers->standing_query(),
                                              writers->standing_result());
      if (!refreshed.ok()) {
        ++out.failed;
        out.Mismatch("final standing refresh failed: " +
                     refreshed.status().ToString());
      } else {
        ++out.succeeded;
        std::string why = checker.Check(AlgorithmId::kSssp, pool[0],
                                        refreshed->values);
        if (!why.empty()) out.Mismatch("standing query: " + why);
      }
      suite.Finish(&checker);
    }
  } else {
    ReferenceChecker& checker = *static_checker;
    // Each distinct served query, isolated, must give the served values.
    for (const auto& [key, values] : state.served) {
      ++out.attempted;
      auto isolated = engine->Run(MakeQuery(key.first, key.second));
      if (!isolated.ok()) {
        ++out.failed;
        out.Mismatch("isolated run failed: " + isolated.status().ToString());
        continue;
      }
      ++out.succeeded;
      if (isolated->values != values) {
        out.Mismatch(std::string(hytgraph::AlgorithmName(key.first)) +
                     " from " + std::to_string(key.second) +
                     ": served values differ from an isolated Engine::Run");
      }
      std::string why = checker.Check(key.first, key.second, values);
      if (!why.empty()) out.Mismatch("served " + why);
    }
    suite.Finish(&checker);
  }

  AddAlgorithmMetrics(suite.samples(), &out);
  AddEngineCounterMetrics(*engine, cache_before, storage_before, &out);
  AddServingMetrics(state.serving, &out);
  AddDynamicMetrics(dynamic, &out);
  AddTraceMetrics(tracer->tracer(), nominal.traced_ms, nominal.untraced_ms,
                  &out);
  return out;
}

}  // namespace

Outcome RunServeRead(const Args& args, RunTracer* tracer) {
  return RunServe(args, tracer, {.nominal_qps = 200});
}

Outcome RunServeWrite(const Args& args, RunTracer* tracer) {
  return RunServe(args, tracer, {.nominal_qps = 100, .writes = true});
}

}  // namespace perfbench
