// perfbench: runs one workload of the repository benchmark and prints its
// metrics. Usage:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Human-readable progress goes to stderr; the last line on stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones (from a run
// that records spans, written to --trace-out). Exits 1 when an output does
// not match its reference, 2 on a usage or set-up error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "analytics|serve-read|serve-write|ooc-scan --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') Usage("bad value for " + flag);
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

/// JSON has no infinity: a latency quantile that lands on a request that
/// was never served prints as 1e9 ms.
double Finite(double value) { return std::isfinite(value) ? value : 1e9; }

void PrintResult(const Outcome& out,
                 const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.mismatches.empty() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed + out.rejected +
                                              out.shed));
  const char* sep = "";
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), Finite(metric.value), metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  RunTracer tracer(args.trace);
  RssSampler rss;
  Outcome out;
  if (args.workload == "analytics") {
    out = RunAnalytics(args, &tracer);
  } else if (args.workload == "ooc-scan") {
    out = RunOocScan(args, &tracer);
  } else if (args.workload == "serve-read") {
    out = RunServeRead(args, &tracer);
  } else if (args.workload == "serve-write") {
    out = RunServeWrite(args, &tracer);
  } else {
    Usage("unknown workload " + args.workload);
  }
  // The exact peak is set by whichever transient allocation races highest
  // (on serve-write, how many epochs queries and folds pin at once); the
  // 95th percentile of the samples is the high-water mark the run holds.
  out.end_to_end["peak_rss_mib"] = {Quantile(rss.Stop(), 0.95), "MiB"};
  out.per_layer["bench.rss_max_mib"] = {MaxRssMib(), "MiB"};

  // Failure accounting: every attempted operation must have ended one way.
  const uint64_t accounted = out.succeeded + out.failed + out.rejected +
                             out.shed;
  if (accounted != out.attempted) {
    out.Mismatch("operations unaccounted for: attempted " +
                 std::to_string(out.attempted) + ", ended " +
                 std::to_string(accounted));
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu: attempted %llu, succeeded %llu, "
               "failed %llu, rejected %llu, shed %llu\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.succeeded),
               static_cast<unsigned long long>(out.failed),
               static_cast<unsigned long long>(out.rejected),
               static_cast<unsigned long long>(out.shed));
  for (const std::string& mismatch : out.mismatches) {
    std::fprintf(stderr, "perfbench: MISMATCH %s\n", mismatch.c_str());
  }
  if (args.trace && !args.trace_path.empty() &&
      !tracer.tracer().WriteJsonLines(args.trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_path.c_str());
    return 2;
  }
  PrintResult(out, args.trace ? out.per_layer : out.end_to_end);
  return out.mismatches.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
