#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  Clock::time_point origin = spans.empty() ? Clock::time_point{}
                                           : spans.front().start;
  for (const Span& span : spans) origin = std::min(origin, span.start);
  const auto ns = [&](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
            .count());
  };
  for (const Span& span : spans) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"layer\":\"%s\",\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request), span.layer,
                 span.name, ns(span.start), ns(span.end));
  }
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* layer, const char* name,
                       uint64_t parent, uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->NewId();
  span_.parent = parent;
  span_.request = request;
  span_.layer = layer;
  span_.name = name;
  span_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end = Clock::now();
  tracer_->Record(span_);
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<Clock::time_point,
                                                     Clock::time_point>>>
      children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back({span.start,
                                                           span.end});
  }
  std::map<std::string, double> self;
  for (const Span& span : spans) {
    Clock::duration covered{0};
    auto it = children.find(span.id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      Clock::time_point cursor = span.start;
      for (const auto& [start, end] : intervals) {
        const Clock::time_point lo = std::max(start, cursor);
        const Clock::time_point hi = std::min(end, span.end);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    const Clock::duration own = span.end - span.start - covered;
    self[span.layer] += std::chrono::duration<double>(own).count();
  }
  return self;
}

}  // namespace perfbench
