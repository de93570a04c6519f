// online_short_kernels: the woven MAPE-K loop around ~10 us kernels.
//
// Each invocation runs update -> start_monitors -> kernel -> stop_monitors
// on a margot::Context over the kernel's 512-point full-factorial
// knowledge base, on the wall clock (SteadyClock).  The simulated RAPL
// counter is fed the knowledge base's power for the chosen point over
// the measured kernel time, so stop_monitors sends time, power and
// throughput feedback on every call.  A power cap alternates between two
// values every goal_period invocations (a Fig. 5-style requirement
// change).  The headline is Endo et al.'s criterion: runtime overhead
// (update + start + stop) as a fraction of kernel time.
#include <chrono>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "kernels/registry.hpp"
#include "margot/context.hpp"
#include "observability/metrics.hpp"
#include "platform/clock.hpp"
#include "platform/rapl.hpp"
#include "report.hpp"
#include "socrates/pipeline.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {
namespace {

using M = socrates::margot::ContextMetrics;
using socrates::MetricsRegistry;

/// Feedback the loop's Context sent after one invocation (read back
/// from the public monitors), replayed by the reference AS-RTM.
struct Observation {
  std::uint32_t op;
  double elapsed;
  double watts;
  bool elapsed_rejected;
  bool watts_rejected;
};

/// The loop runs for minutes; the oracle replays from the snapshot
/// taken at the start of the last block, so its memory stays bounded.
constexpr std::size_t kReplayBlock = 1024;

struct Kernel {
  const socrates::kernels::BenchmarkInfo* info = nullptr;
  std::size_t n = 0;
  double checksum = 0.0;  ///< first run's result; every later run must match
  std::unique_ptr<socrates::platform::SimulatedRapl> rapl;
  std::unique_ptr<socrates::margot::Context> ctx;
  std::size_t cap_handle = 0;
  std::array<double, 2> caps{};
  std::size_t invocations = 0;
  socrates::margot::Asrtm::Snapshot block_snapshot;
  std::vector<Observation> block;
};

/// Fixed-capacity timing series.  The storage is allocated and touched
/// when the path is constructed, so the process's resident memory does
/// not depend on how many invocations the host lets a run complete;
/// samples beyond the capacity are dropped.
class Samples {
 public:
  explicit Samples(std::size_t capacity) : v_(capacity, 0.0f) {}
  void push(double x) {
    if (n_ < v_.size()) v_[n_++] = static_cast<float>(x);
  }
  std::size_t size() const { return n_; }
  /// Samples [from, size()) times `scale`.
  std::vector<double> values(double scale = 1.0, std::size_t from = 0) const {
    std::vector<double> out;
    for (std::size_t i = from; i < n_; ++i) out.push_back(v_[i] * scale);
    return out;
  }

 private:
  std::vector<float> v_;
  std::size_t n_ = 0;
};

/// 1M invocations: about 20 s of the loop on the reference host.
constexpr std::size_t kMaxSamples = 1'000'000;

struct Counters {
  std::uint64_t decisions = 0, cached = 0, columns = 0;
  static Counters read() {
    auto& reg = MetricsRegistry::global();
    return {reg.counter("asrtm.decisions").value(), reg.counter("asrtm.decisions_cached").value(),
            reg.counter("asrtm.columns_recomputed").value() +
                reg.counter("asrtm.rank_columns_recomputed").value()};
  }
};

void configure(socrates::margot::Asrtm& asrtm, double cap, std::size_t* handle) {
  asrtm.set_rank(socrates::margot::Rank::maximize_throughput(M::kThroughput));
  *handle = asrtm.add_constraint(
      {M::kPower, socrates::margot::ComparisonOp::kLessEqual, cap, 0, 0.0});
}

class OnlinePath final : public Path {
 public:
  explicit OnlinePath(const RunContext& ctx) : ctx_(ctx) {}

  void setup() override {
#ifdef _OPENMP
    omp_set_num_threads(1);
#endif
    socrates::ArtifactCache cache;  // memory-only: every set-up builds cold
    socrates::ToolchainOptions options;
    options.jobs = 1;
    options.dse = socrates::dse::DseStrategyOptions{};
    socrates::Pipeline pipeline(*ctx_.model, options, &cache);
    for (std::size_t k = 0; k < kOnlineKernels.size(); ++k) {
      Kernel& kern = kernels_[k];
      kern.info = &socrates::kernels::find_benchmark(kOnlineKernels[k]);
      kern.n = kOnlineSizes[k];
      socrates::margot::KnowledgeBase kb = pipeline.build(kern.info->name).knowledge;
      const double* power = kb.metric_means(M::kPower);
      double lo = power[0], hi = power[0];
      for (std::size_t i = 1; i < kb.size(); ++i) {
        lo = std::min(lo, power[i]);
        hi = std::max(hi, power[i]);
      }
      for (int g = 0; g < 2; ++g) kern.caps[g] = lo + ctx_.inputs->cap_fracs[g] * (hi - lo);
      kern.rapl = std::make_unique<socrates::platform::SimulatedRapl>();
      kern.ctx = std::make_unique<socrates::margot::Context>(std::move(kb), clock_, *kern.rapl);
      configure(kern.ctx->asrtm(), kern.caps[0], &kern.cap_handle);
      kern.checksum = kern.info->run(kern.n);
      kern.block_snapshot = kern.ctx->asrtm().snapshot();
      kern.block.reserve(kReplayBlock);
    }
  }

  double measure(double budget_s, SpanLog* spans) override {
    using clock = std::chrono::steady_clock;
    const Counters before = Counters::read();
    const std::size_t first = invocation_ns_.size();
    std::vector<int> knobs(3);
    const auto& seq = ctx_.inputs->online_sequence;
    const auto end = clock::now() + std::chrono::duration_cast<clock::duration>(
                                        std::chrono::duration<double>(budget_s));
    std::size_t i = 0;
    std::uint64_t failed = 0;
    for (;; ++i) {
      Kernel& k = kernels_[seq[(total_ + i) % seq.size()]];
      if (k.invocations % kReplayBlock == 0) {
        k.block_snapshot = k.ctx->asrtm().snapshot();
        k.block.clear();
      }
      const auto top = clock::now();
      if (top >= end) break;
      ScopedSpan inv(spans, "online.invocation", SpanLog::kNone, total_ + i);
      if (k.invocations % ctx_.inputs->goal_period == 0)
        k.ctx->asrtm().set_constraint_goal(
            k.cap_handle, k.caps[(k.invocations / ctx_.inputs->goal_period) % 2]);
      double checksum = 0.0;
      clock::time_point t1, t2, t3, t4;
      {
        ScopedSpan s(spans, "online.update", inv.id());
        k.ctx->update(knobs);
        t1 = clock::now();
      }
      {
        ScopedSpan s(spans, "online.start", inv.id());
        k.ctx->start_monitors();
        t2 = clock::now();
      }
      {
        ScopedSpan s(spans, "online.kernel", inv.id());
        checksum = k.info->run(k.n);
        t3 = clock::now();
      }
      const double kernel_s = std::chrono::duration<double>(t3 - t2).count();
      const std::size_t op = k.ctx->current_operating_point();
      k.rapl->accrue(kernel_s, k.ctx->asrtm().knowledge().metric_means(M::kPower)[op]);
      t4 = clock::now();
      {
        ScopedSpan s(spans, "online.stop", inv.id());
        k.ctx->stop_monitors();
      }
      const auto t5 = clock::now();
      const auto& tm = k.ctx->time_monitor();
      const auto& pm = k.ctx->power_monitor();
      k.block.push_back({static_cast<std::uint32_t>(op), tm.last_observation(),
                         pm.last_observation(), tm.last_rejected(), pm.last_rejected()});
      ++k.invocations;
      if (checksum != k.checksum) ++failed;
      const auto ns = [](clock::duration d) {
        return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
      };
      update_ns_.push(ns(t1 - top));
      start_ns_.push(ns(t2 - t1));
      kernel_ns_.push(ns(t3 - t2));
      stop_ns_.push(ns(t5 - t4));
      invocation_ns_.push(ns(clock::now() - top));
    }
    total_ += i;
    ctx_.report->attempt(i);
    if (failed > 0) ctx_.report->fail("online: kernel checksum differs from the first run", failed);
    const Counters after = Counters::read();
    decisions_ += after.decisions - before.decisions;
    cached_ += after.cached - before.cached;
    columns_ += after.columns - before.columns;
    return median(invocation_ns_.values(1e-3, first));
  }

  void check() override {
    // The incremental decision engine against a brute-force reference
    // replayed with the same feedback from the last block's snapshot.
    for (Kernel& k : kernels_) {
      socrates::margot::Asrtm ref(k.ctx->asrtm().knowledge());
      std::size_t handle = 0;
      const std::size_t period = ctx_.inputs->goal_period;
      const std::size_t last = k.invocations == 0 ? 0 : k.invocations - 1;
      configure(ref, k.caps[(last / period) % 2], &handle);
      ref.set_decision_cache_enabled(false);
      ref.restore(k.block_snapshot);
      for (const Observation& o : k.block) {
        if (!o.elapsed_rejected && std::isfinite(o.elapsed) && o.elapsed > 0.0) {
          ref.send_feedback(o.op, M::kExecTime, o.elapsed);
        }
        if (!o.watts_rejected && std::isfinite(o.watts) && o.watts > 0.0)
          ref.send_feedback(o.op, M::kPower, o.watts);
        if (!o.elapsed_rejected && std::isfinite(o.elapsed) && o.elapsed > 0.0)
          ref.send_feedback(o.op, M::kThroughput, 1.0 / o.elapsed);
      }
      if (ref.find_best_operating_point() != k.ctx->asrtm().find_best_operating_point())
        ctx_.report->fail(std::string("online: decision differs from the brute-force reference for ") +
                          k.info->name);
    }
  }

  void emit_e2e() override {
    Report& r = *ctx_.report;
    const std::vector<double> update = update_ns_.values(), start = start_ns_.values(),
                              stop = stop_ns_.values();
    std::vector<double> runtime(update.size());
    for (std::size_t i = 0; i < runtime.size(); ++i) runtime[i] = update[i] + start[i] + stop[i];
    r.e2e("online.overhead_frac", median(runtime) / median(kernel_ns_.values()), "frac",
          kernel_ns_.size());
    const std::vector<double> inv_us = invocation_ns_.values(1e-3);
    const Summary inv = summarize(inv_us);
    emit_timing(r, true, "online.invocation_us.p50", inv, 0.5, "us");
    // Median of the p99s of consecutive windows (see serve.cpp).
    r.e2e("online.invocation_us.p99", windowed_percentile(inv_us, 0.99, 8), "us", inv.n,
          inv.tail_p);
  }

  void emit_layers() override {
    Report& r = *ctx_.report;
    emit_timing(r, false, "margot.update_ns.p50", summarize(update_ns_.values()), 0.5, "ns");
    emit_timing(r, false, "margot.start_ns.p50", summarize(start_ns_.values()), 0.5, "ns");
    emit_timing(r, false, "margot.stop_ns.p50", summarize(stop_ns_.values()), 0.5, "ns");
    emit_timing(r, false, "kernels.run_us.p50", summarize(kernel_ns_.values(1e-3)), 0.5, "us");
    const double d = decisions_ > 0 ? static_cast<double>(decisions_) : 1.0;
    r.layer("margot.decisions_recomputed_frac", static_cast<double>(decisions_ - cached_) / d,
            "frac", decisions_);
    r.layer("margot.columns_recomputed_per_call", static_cast<double>(columns_) / d, "count",
            decisions_);
  }

 private:
  RunContext ctx_;
  socrates::platform::SteadyClock clock_;
  std::array<Kernel, kOnlineKernels.size()> kernels_;
  std::size_t total_ = 0;
  Samples update_ns_{kMaxSamples}, start_ns_{kMaxSamples}, stop_ns_{kMaxSamples},
      kernel_ns_{kMaxSamples}, invocation_ns_{kMaxSamples};
  std::uint64_t decisions_ = 0, cached_ = 0, columns_ = 0;
};

}  // namespace

std::unique_ptr<Path> make_online_path(const RunContext& ctx) {
  return std::make_unique<OnlinePath>(ctx);
}

}  // namespace perfbench
