// In-memory span log for the traced run.
//
// The benchmark records a span around each call it makes into a layer
// (name, start, end, parent span, request id), keeps the spans in a
// bounded in-memory buffer and writes them out once at exit.  Nothing
// inside the library is instrumented.  With tracing off every call is a
// single branch on a null log pointer.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Span {
    const char* name;  ///< string literal
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;
    std::uint64_t request;
  };

  explicit SpanLog(std::size_t capacity) : capacity_(capacity) { spans_.reserve(capacity); }

  /// Opens a span; returns kNone once the buffer is full (the span and
  /// its children are then not recorded).
  std::uint32_t begin(const char* name, std::uint32_t parent, std::uint64_t request) {
    return add(name, now_ns(), 0, parent, request);
  }
  void end(std::uint32_t id) {
    if (id != kNone) spans_[id].end_ns = now_ns();
  }
  /// Records a span whose boundaries were timed by the caller.
  std::uint32_t add(const char* name, std::int64_t start, std::int64_t end,
                    std::uint32_t parent, std::uint64_t request) {
    if (spans_.size() >= capacity_) return kNone;
    spans_.push_back({name, start, end, parent, request});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  /// Self time (duration minus the time covered by direct children, in
  /// microseconds) of every closed span, grouped by span name.  Children
  /// of one parent never overlap here: the benchmark is sequential
  /// inside each request.
  std::map<std::string, std::vector<double>> self_times_us() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent != kNone && s.end_ns >= s.start_ns) child_ns[s.parent] += s.end_ns - s.start_ns;
    std::map<std::string, std::vector<double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < s.start_ns) continue;  // never closed
      const std::int64_t self = s.end_ns - s.start_ns - child_ns[i];
      out[s.name].push_back(static_cast<double>(self > 0 ? self : 0) / 1e3);
    }
    return out;
  }

  /// Writes `id,name,start_ns,end_ns,parent,request` lines (times
  /// relative to the first span).  Returns false when the file cannot be
  /// written.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "id,name,start_ns,end_ns,parent,request\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%s,%lld,%lld,%lld,%llu\n", i, s.name,
                   static_cast<long long>(s.start_ns - t0), static_cast<long long>(s.end_ns - t0),
                   s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint32_t parent = SpanLog::kNone,
             std::uint64_t request = 0)
      : log_(log), id_(log ? log->begin(name, parent, request) : SpanLog::kNone) {}
  ~ScopedSpan() {
    if (log_) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

}  // namespace perfbench
