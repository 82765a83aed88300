// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around each call into a library layer (the library
// itself is not instrumented); they are kept in memory and written out as
// JSON lines when the run ends.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One timed call. `layer` is the library module the call enters (or
/// "bench" for the benchmark's own root spans); spans of one request share
/// `request`. parent == 0 marks a root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* layer = "";
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A fresh span id (never 0).
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }

  void Record(const Span& span);

  std::vector<Span> Spans() const;

  /// Writes one JSON object per span (times in ns from the first span's
  /// start). Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records [construction, destruction) as one span when `tracer` is
/// non-null; a null tracer makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* layer, const char* name,
             uint64_t parent = 0, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when untraced), to parent child spans on.
  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Per-layer self time in seconds: each span's duration minus the part of
/// its interval covered by its children (overlapping children counted
/// once, parts outside the parent ignored), summed by layer.
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
