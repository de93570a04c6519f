// What one benchmark run reports, and the interface of the three paths.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "platform/perf_model.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< sample count behind the value (0 = a count or ratio)
  double tail_p = 0.0;      ///< supported_tail(samples) for timings
};

class Report {
 public:
  void e2e(std::string name, double value, std::string unit, std::size_t samples = 0,
           double tail_p = 0.0) {
    e2e_.push_back({std::move(name), value, std::move(unit), samples, tail_p});
  }
  void layer(std::string name, double value, std::string unit, std::size_t samples = 0,
             double tail_p = 0.0) {
    layer_.push_back({std::move(name), value, std::move(unit), samples, tail_p});
  }
  /// Operations attempted / failed; each failure keeps its reason.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why, std::uint64_t n = 1) {
    failed_ += n;
    if (reasons_.size() < 20) reasons_.push_back(why);
  }

  const std::vector<Metric>& e2e() const { return e2e_; }
  const std::vector<Metric>& layers() const { return layer_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// Everything a path needs besides its own state.
struct RunContext {
  const Inputs* inputs = nullptr;
  const socrates::platform::PerformanceModel* model = nullptr;
  std::filesystem::path work;  ///< private scratch directory of this run
  Report* report = nullptr;
};

/// One of the three SOCRATES paths, driven only through public APIs.
class Path {
 public:
  virtual ~Path() = default;
  /// Builds what the path measures against (timed as set-up).
  virtual void setup() = 0;
  /// Measures for about `budget_s` seconds, recording spans when `spans`
  /// is non-null.  Returns the path's headline figure for this pass, so
  /// a traced pass can be compared with an untraced one.
  virtual double measure(double budget_s, SpanLog* spans) = 0;
  /// Output-correctness oracles, run outside the timed region.
  virtual void check() = 0;
  virtual void emit_e2e() = 0;
  virtual void emit_layers() = 0;
};

std::unique_ptr<Path> make_offline_path(const RunContext& ctx);
std::unique_ptr<Path> make_online_path(const RunContext& ctx);
std::unique_ptr<Path> make_serve_path(const RunContext& ctx);

/// Percentile p of a summarised timing series, with its sample count.
inline void emit_timing(Report& r, bool e2e, const std::string& name, const Summary& s,
                        double p, const std::string& unit) {
  const double v = s.at(p);
  if (e2e)
    r.e2e(name, v, unit, s.n, s.tail_p);
  else
    r.layer(name, v, unit, s.n, s.tail_p);
}

}  // namespace perfbench
