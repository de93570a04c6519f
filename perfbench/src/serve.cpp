// serve_ladder: the multi-tenant server under an open-loop feedback ladder.
//
// One generator thread offers background feedback at fixed rates
// (kLadderRates) to 240 tenants, time-stamping every event with the time
// it was due, so a stall shows as lateness on everything behind it.
// Sixteen probe tenants receive feedback chosen to flip their decision;
// between scheduled sends the generator polls decide() without waiting
// and records feedback-to-effect (f2e): probe due time -> first decide()
// that reflects it.  decide() samples on tenants whose feedback was just
// submitted and decide_batch() sweeps over all tenants read beside the
// writes.  A step meets the SLO when f2e p99 <= kF2eSloUs, every probe
// was reflected, the generator kept up and the backlog stayed under one
// millisecond of offered work.
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "margot/asrtm.hpp"
#include "margot/checkpoint.hpp"
#include "observability/metrics.hpp"
#include "report.hpp"
#include "server/server.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using socrates::MetricsRegistry;
using socrates::margot::Asrtm;
using socrates::margot::KnowledgeBase;
using socrates::server::Admission;
using socrates::server::Server;

// Tenant knowledge: 16 points, throughput and power rising together,
// power capped at kPowerCap.  With feedback inertia 1 the power
// correction equals the last observation's ratio, so a probe at 1.25x
// moves the best point from 10 to 6 and a probe at 1.0x moves it back.
constexpr std::size_t kOps = 16;
constexpr double kPowerCap = 102.0;
constexpr double kProbeHigh = 1.25;
/// A probe the server has not reflected this long after its submit
/// counts as failed.  Far above any queueing delay the bounded rings
/// allow, so it only fires when an applied event is lost.
constexpr std::int64_t kProbeTimeoutNs = 2'000'000'000;
/// Minimum time between two polls of one probe tenant.  decide() takes
/// the tenant lock; polling back to back would starve the shard worker
/// that needs the same lock to apply the probe.  It bounds the f2e
/// resolution.
constexpr std::int64_t kPollSpacingNs = 5'000;
/// f2e p99 is the median of the p99s of this many consecutive windows
/// of probes: one multi-millisecond scheduling stall on the shared host
/// then moves one window, not the reported figure.
constexpr std::size_t kTailWindows = 8;

double kb_mean(std::size_t op, std::size_t metric) {
  return metric == 0 ? 1.0 + 0.1 * static_cast<double>(op) : 50.0 + 5.0 * static_cast<double>(op);
}

KnowledgeBase tenant_kb() {
  KnowledgeBase kb({"cfg"}, {"throughput", "power"});
  for (std::size_t i = 0; i < kOps; ++i) {
    socrates::margot::OperatingPoint op;
    op.knobs = {static_cast<int>(i)};
    op.metrics = {{kb_mean(i, 0), 0.01}, {kb_mean(i, 1), 0.5}};
    kb.add(std::move(op));
  }
  return kb;
}

void configure_tenant(Asrtm& asrtm) {
  asrtm.set_rank(socrates::margot::Rank::maximize_throughput(0));
  asrtm.add_constraint({1, socrates::margot::ComparisonOp::kLessEqual, kPowerCap, 0, 0.0});
  asrtm.set_feedback_inertia(1.0);
}

std::string rate_label(double rate) { return std::to_string(static_cast<int>(rate / 1e3)) + "k"; }

struct Step {
  double rate = 0.0;
  double offered_per_s = 0.0;
  double drained_per_s = 0.0;
  std::uint64_t probes_failed = 0;
  bool growing = false;
  bool meets = false;
  std::vector<double> f2e_us, late_us, submit_ns, decide_ns, sweep_us, backlog;
  std::uint64_t decides = 0, decides_recomputed = 0, swept = 0, swept_lockfree = 0;
  // Traced pass only: the probe path split into contiguous parts.
  std::vector<double> part_late_us, part_ingress_us, part_queue_apply_us, part_publish_us;
};

struct Probe {
  std::uint64_t handle = 0;
  std::unique_ptr<Asrtm> reference;  ///< brute-force replay of accepted probe events
  std::size_t decision = 0;          ///< what the server last showed
  std::uint64_t sent = 0;            ///< accepted probe events
  // Outstanding probe.
  bool active = false;
  std::size_t expected = 0;
  std::int64_t due = 0, submit_start = 0, submit_end = 0, applied_seen = 0;
  std::int64_t next_poll = 0;
  std::uint64_t request = 0;
};

std::atomic<int> g_server_instances{0};

class ServePath final : public Path {
 public:
  explicit ServePath(const RunContext& ctx) : ctx_(ctx) {}

  void setup() override {
    root_ = ctx_.work / "serve" / std::to_string(g_server_instances.fetch_add(1));
    fs::remove_all(root_);
    fs::create_directories(root_);
    socrates::server::ServerOptions o;
    o.shards = 2;
    o.policy = socrates::server::BackpressurePolicy::kBlock;
    o.max_tenants = kTenants;
    o.rate_limit_per_s = 0.0;
    o.breaker.error_threshold = 1u << 30;
    o.shard_stall_deadline_s = 2.0;
    // No checkpoint_dir: journaling to disk here stalls shard workers for
    // milliseconds at random (file-system commits), which made f2e p99
    // vary several-fold between identical runs.  The journal's cost is
    // measured on its own instead (measure_journal).
    o.share_knowledge = true;
    srv_ = std::make_unique<Server>(o);

    const auto add = [&](const std::string& name) {
      std::uint64_t h = 0;
      if (!srv_->register_tenant(name, tenant_kb(), configure_tenant, &h))
        throw std::runtime_error("serve: tenant registration refused: " + name);
      return h;
    };
    for (std::size_t p = 0; p < kProbeTenants; ++p) {
      Probe& probe = probes_[p];
      probe.handle = add("probe" + std::to_string(p));
      probe.reference = std::make_unique<Asrtm>(tenant_kb());
      configure_tenant(*probe.reference);
      probe.reference->set_decision_cache_enabled(false);
    }
    for (std::size_t t = 0; t < kPlainTenants; ++t) background_.push_back(add("plain" + std::to_string(t)));

    // Wave 1 converges and publishes into the knowledge pool; wave 2 is
    // created afterwards and finds its donors there.
    const auto create_wave = [&](const std::vector<socrates::features::FeatureVector>& fvs,
                                 const char* prefix) {
      std::vector<std::uint64_t> handles;
      for (std::size_t t = 0; t < fvs.size(); ++t) {
        socrates::server::TenantProfile profile;
        profile.features = fvs[t];
        const auto res =
            srv_->create_tenant(prefix + std::to_string(t), tenant_kb(), configure_tenant, profile);
        if (!res.created) throw std::runtime_error("serve: create_tenant refused");
        handles.push_back(res.handle);
        background_.push_back(res.handle);
      }
      return handles;
    };
    const auto wave1 = create_wave(ctx_.inputs->wave1_features, "wave1-");
    for (std::size_t round = 0; round < 80; ++round)
      for (std::size_t t = 0; t < wave1.size(); ++t)
        if (srv_->submit_feedback(wave1[t], t % kOps, 0, kb_mean(t % kOps, 0)) != Admission::kAccepted)
          throw std::runtime_error("serve: warm-up feedback refused");
    if (!srv_->drain(30.0)) throw std::runtime_error("serve: warm-up did not drain");
    create_wave(ctx_.inputs->wave2_features, "wave2-");

    for (std::uint64_t h = 0; h < srv_->tenant_count(); ++h) {
      all_.push_back(h);
      (void)srv_->decide(h);
    }
    for (Probe& p : probes_) p.decision = srv_->decide(p.handle);
    const auto s = srv_->stats();
    pool_entries_ = static_cast<double>(s.pool_entries);
    warm_started_ = static_cast<double>(s.warm_started);
  }

  double measure(double budget_s, SpanLog* spans) override {
    passes_.emplace_back();
    for (const double rate : kLadderRates)
      passes_.back().push_back(run_step(rate, budget_s / kLadderRates.size(), spans));
    if (!srv_->drain(30.0)) ctx_.report->fail("serve: server did not drain after the ladder");
    if (spans != nullptr) measure_journal();
    return median(passes_.back()[kF2eReportStep].f2e_us);
  }

  void check() override {
    Report& r = *ctx_.report;
    if (!srv_->drain(30.0)) r.fail("serve: server did not drain");
    const auto s = srv_->stats();
    if (s.drained + s.shed != s.accepted) r.fail("serve: drained + shed != accepted");
    for (Probe& p : probes_)
      if (srv_->decide(p.handle) != p.reference->find_best_operating_point())
        r.fail("serve: probe tenant decision differs from the reference replay");
  }

  void emit_e2e() override {
    Report& r = *ctx_.report;
    std::vector<double> f2e, decide;
    for (const auto& pass : passes_) {
      const Step& s = pass[kF2eReportStep];
      f2e.insert(f2e.end(), s.f2e_us.begin(), s.f2e_us.end());
      for (const Step& st : pass) decide.insert(decide.end(), st.decide_ns.begin(), st.decide_ns.end());
    }
    const Summary f = summarize(f2e);
    emit_timing(r, true, "serve.f2e_us.p50", f, 0.5, "us");
    r.e2e("serve.f2e_us.p99", windowed_percentile(f2e, 0.99, kTailWindows), "us", f.n, f.tail_p);
    emit_timing(r, true, "serve.decide_ns.p50", summarize(decide), 0.5, "ns");
    r.e2e("serve.max_rate_per_s", max_rate(passes_.back()), "1/s");
  }

  void emit_layers() override {
    Report& r = *ctx_.report;
    const auto& pass = passes_.back();
    std::vector<double> submit, late, sweep, backlog;
    double decides = 0, recomputed = 0, swept = 0, lockfree = 0;
    for (const Step& s : pass) {
      submit.insert(submit.end(), s.submit_ns.begin(), s.submit_ns.end());
      late.insert(late.end(), s.late_us.begin(), s.late_us.end());
      sweep.insert(sweep.end(), s.sweep_us.begin(), s.sweep_us.end());
      backlog.insert(backlog.end(), s.backlog.begin(), s.backlog.end());
      decides += s.decides;
      recomputed += s.decides_recomputed;
      swept += s.swept;
      lockfree += s.swept_lockfree;
      r.layer("server.drain_per_s." + rate_label(s.rate), s.drained_per_s, "1/s");
      r.layer("serve.f2e_us.p99." + rate_label(s.rate), f2e_p99(s), "us",
              s.f2e_us.size(), supported_tail(s.f2e_us.size()));
    }
    const Summary sub = summarize(submit);
    emit_timing(r, false, "server.submit_ns.p50", sub, 0.5, "ns");
    emit_timing(r, false, "server.submit_ns.p99", sub, 0.99, "ns");
    double backlog_max = 0;
    for (const double b : backlog) backlog_max = std::max(backlog_max, b);
    r.layer("server.backlog_max", backlog_max, "count", backlog.size());
    emit_timing(r, false, "server.sweep_us.p50", summarize(sweep), 0.5, "us");
    r.layer("server.sweep_lockfree_frac", swept > 0 ? lockfree / swept : 0.0, "frac");
    r.layer("serve.decide_recomputed_frac", decides > 0 ? recomputed / decides : 0.0, "frac");
    emit_timing(r, false, "serve.gen_late_us.p99", summarize(late), 0.99, "us");
    const Step& s = pass[kF2eReportStep];
    const char* names[4] = {"serve.f2e.gen_late_us.p50", "serve.f2e.ingress_us.p50",
                            "serve.f2e.queue_apply_us.p50", "serve.f2e.publish_us.p50"};
    const std::vector<double>* series[4] = {&s.part_late_us, &s.part_ingress_us,
                                            &s.part_queue_apply_us, &s.part_publish_us};
    for (int i = 0; i < 4; ++i) emit_timing(r, false, names[i], summarize(*series[i]), 0.5, "us");
    emit_timing(r, false, "margot.apply_ns.p50", summarize(apply_ns_), 0.5, "ns");
    r.layer("margot.journal_commits", journal_commits_, "count");
    r.layer("margot.snapshots", snapshots_, "count");
    r.layer("server.pool_entries", pool_entries_, "count");
    r.layer("server.warm_started", warm_started_, "count");
  }

 private:
  static double f2e_p99(const Step& s) { return windowed_percentile(s.f2e_us, 0.99, kTailWindows); }

  /// Highest sustained rate: the drained rate of the highest ladder step
  /// that meets the SLO.  When the step above it missed the SLO on f2e
  /// p99 alone, the rate where p99 crosses the limit is interpolated
  /// linearly between the two steps, so a p99 that hovers at the limit
  /// moves the figure a little instead of a whole ladder step.  When no
  /// step meets it, the lowest step's rate is scaled by limit / p99.
  static double max_rate(const std::vector<Step>& steps) {
    std::size_t h = steps.size();
    for (std::size_t i = 0; i < steps.size(); ++i)
      if (steps[i].meets) h = i;
    if (h == steps.size()) return steps.front().drained_per_s * kF2eSloUs / f2e_p99(steps.front());
    const Step& lo = steps[h];
    if (h + 1 == steps.size()) return lo.drained_per_s;
    const Step& hi = steps[h + 1];
    const bool f2e_only = !hi.growing && hi.probes_failed == 0 && hi.offered_per_s >= 0.95 * hi.rate;
    const double p_lo = f2e_p99(lo), p_hi = f2e_p99(hi);
    if (!f2e_only || p_hi <= p_lo) return lo.drained_per_s;
    const double frac = (kF2eSloUs - p_lo) / (p_hi - p_lo);
    return lo.drained_per_s + frac * (hi.drained_per_s - lo.drained_per_s);
  }

  /// Asrtm::send_feedback with a CheckpointStore attached (the server's
  /// journal settings, fsync off), alone, on the traced run's private
  /// directory: the apply step of the served path including its journal.
  void measure_journal() {
    auto& commits = MetricsRegistry::global().counter("checkpoint.journal_batches");
    const std::uint64_t commits0 = commits.value();
    Asrtm asrtm(tenant_kb());
    configure_tenant(asrtm);
    const socrates::server::ServerOptions defaults;
    socrates::margot::CheckpointStore::Options opts;
    opts.journal_capacity = defaults.journal_capacity;
    opts.group_commit = defaults.group_commit;
    socrates::margot::CheckpointStore store((root_ / "apply").string(), opts);
    store.attach(asrtm);
    const auto& bg = ctx_.inputs->background;
    for (std::size_t i = 0; i < 20000; ++i) {
      const auto& e = bg[i % bg.size()];
      const double v = kb_mean(e.op, e.metric) * e.factor;
      const std::int64_t t0 = now_ns();
      asrtm.send_feedback(e.op, e.metric, v);
      apply_ns_.push_back(static_cast<double>(now_ns() - t0));
    }
    journal_commits_ += static_cast<double>(commits.value() - commits0);
    snapshots_ += static_cast<double>(store.snapshots_written());
    store.detach();
  }

  void submit_probe(Probe& p, std::int64_t due, std::uint64_t request) {
    const std::size_t op = p.decision;
    const double factor = p.reference->correction(1) > 1.1 ? 1.0 : kProbeHigh;
    const double value = kb_mean(op, 1) * factor;
    p.submit_start = now_ns();
    const Admission a = srv_->submit_feedback(p.handle, op, 1, value);
    p.submit_end = now_ns();
    ctx_.report->attempt();
    if (a != Admission::kAccepted) {
      ctx_.report->fail(std::string("serve: probe refused: ") + socrates::server::to_string(a));
      return;
    }
    ++p.sent;
    p.reference->send_feedback(op, 1, value);
    p.expected = p.reference->find_best_operating_point();
    if (p.expected == p.decision) {
      ctx_.report->fail("serve: probe does not change the decision");
      return;
    }
    p.active = true;
    p.due = due;
    p.applied_seen = 0;
    p.next_poll = 0;
    p.request = request;
  }

  /// Polls every outstanding probe once; true when any is still open.
  bool poll_probes(Step& step, SpanLog* spans) {
    bool open = false;
    const std::int64_t now = now_ns();
    for (Probe& p : probes_) {
      if (!p.active) continue;
      if (now < p.next_poll) {
        open = true;
        continue;
      }
      p.next_poll = now + kPollSpacingNs;
      if (spans != nullptr && p.applied_seen == 0 &&
          srv_->tenant_status(p.handle).applied >= p.sent)
        p.applied_seen = now_ns();
      const std::size_t d = srv_->decide(p.handle);
      const std::int64_t t = now_ns();
      if (d == p.expected) {
        p.active = false;
        p.decision = d;
        step.f2e_us.push_back(static_cast<double>(t - p.due) / 1e3);
        if (spans != nullptr) {
          if (p.applied_seen == 0) p.applied_seen = t;
          const auto root = spans->add("serve.f2e", p.due, t, SpanLog::kNone, p.request);
          spans->add("serve.gen_late", p.due, p.submit_start, root, p.request);
          spans->add("serve.ingress", p.submit_start, p.submit_end, root, p.request);
          spans->add("serve.queue_apply", p.submit_end, p.applied_seen, root, p.request);
          spans->add("serve.publish", p.applied_seen, t, root, p.request);
          // The four parts are contiguous, so they must add up to f2e.
          const std::int64_t parts[4] = {p.submit_start - p.due, p.submit_end - p.submit_start,
                                         p.applied_seen - p.submit_end, t - p.applied_seen};
          if (parts[0] < 0 || parts[1] < 0 || parts[2] < 0 || parts[3] < 0 ||
              parts[0] + parts[1] + parts[2] + parts[3] != t - p.due)
            ctx_.report->fail("serve: probe parts do not add up to its f2e");
          step.part_late_us.push_back(static_cast<double>(p.submit_start - p.due) / 1e3);
          step.part_ingress_us.push_back(static_cast<double>(p.submit_end - p.submit_start) / 1e3);
          step.part_queue_apply_us.push_back(static_cast<double>(p.applied_seen - p.submit_end) / 1e3);
          step.part_publish_us.push_back(static_cast<double>(t - p.applied_seen) / 1e3);
        }
      } else if (t - p.submit_end > kProbeTimeoutNs) {
        p.active = false;
        p.decision = p.expected;
        ++step.probes_failed;
        ctx_.report->fail("serve: probe not reflected within its timeout");
      } else {
        open = true;
      }
    }
    return open;
  }

  Step run_step(double rate, double seconds, SpanLog* spans) {
    Step step;
    step.rate = rate;
    auto& reg = MetricsRegistry::global();
    auto& cached_counter = reg.counter("asrtm.decisions_cached");
    auto& accepted_c = reg.counter("server.accepted");
    auto& drained_c = reg.counter("server.drained");
    auto& shed_c = reg.counter("server.shed");
    const auto& bg = ctx_.inputs->background;
    const auto& sched = ctx_.inputs->probes;
    const double ns_per_event = 1e9 / rate;
    const std::uint64_t drained0 = srv_->stats().drained;
    const std::int64_t t0 = now_ns() + 200'000;
    const std::int64_t t_end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    std::uint64_t ev = 0;
    std::vector<std::uint64_t> recent(1024, all_.front());
    std::int64_t next_probe = t0 + sched[probe_cursor_ % sched.size()].gap_us * 1000;
    std::int64_t next_decide = t0, next_sweep = t0, next_backlog = t0;
    std::vector<std::size_t> sweep_out(all_.size());
    std::uint64_t refused = 0;

    for (;;) {
      std::int64_t now = now_ns();
      if (now >= t_end) break;
      if (now < t0) continue;
      // Give up the core between iterations: a generator spinning on one
      // of four cores delays the shard workers' wake-ups by milliseconds.
      std::this_thread::yield();
      // 1. background events that are due (bounded burst, so probes and
      //    polls still run when the generator is behind).
      const std::uint64_t due_n = static_cast<std::uint64_t>((now - t0) / ns_per_event) + 1;
      for (int burst = 0; ev < due_n && burst < 64; ++burst, ++ev) {
        const BackgroundEvent& e = bg[bg_cursor_++ % bg.size()];
        const std::uint64_t h = background_[e.tenant];
        const double v = kb_mean(e.op, e.metric) * e.factor;
        const bool sample = ev % 16 == 0;
        const std::int64_t ts = sample ? now_ns() : 0;
        if (sample) step.late_us.push_back(static_cast<double>(ts - t0 - static_cast<std::int64_t>(ev * ns_per_event)) / 1e3);
        if (srv_->submit_feedback(h, e.op, e.metric, v) != Admission::kAccepted) ++refused;
        if (sample) step.submit_ns.push_back(static_cast<double>(now_ns() - ts));
        recent[ev % recent.size()] = h;
      }
      now = now_ns();
      // 2. the next probe, once due.  It goes to the scheduled tenant, or
      //    to the next one without an outstanding probe (flips on one
      //    tenant must be observed one at a time).
      if (now >= next_probe) {
        const std::size_t first = sched[probe_cursor_ % sched.size()].tenant;
        for (std::size_t k = 0; k < kProbeTenants; ++k) {
          Probe& p = probes_[(first + k) % kProbeTenants];
          if (p.active) continue;
          ++probe_cursor_;
          submit_probe(p, next_probe, probe_cursor_);
          next_probe += sched[probe_cursor_ % sched.size()].gap_us * 1000;
          break;
        }
      }
      // 3. reads beside the writes.
      poll_probes(step, spans);
      if (ev < due_n) continue;  // behind schedule: no sampling work
      now = now_ns();
      if (now >= next_decide && ev > recent.size()) {
        next_decide = now + 1'000'000;
        const std::uint64_t h = recent[(ev - 512) % recent.size()];
        const std::uint64_t c0 = cached_counter.value();
        const std::int64_t a = now_ns();
        (void)srv_->decide(h);
        const std::int64_t b = now_ns();
        step.decide_ns.push_back(static_cast<double>(b - a));
        ++step.decides;
        if (cached_counter.value() == c0) ++step.decides_recomputed;
      } else if (now >= next_sweep) {
        next_sweep = now + 20'000'000;
        ScopedSpan sp(spans, "serve.sweep");
        const std::int64_t a = now_ns();
        const std::size_t lockfree = srv_->decide_batch(all_, sweep_out);
        step.sweep_us.push_back(static_cast<double>(now_ns() - a) / 1e3);
        step.swept += all_.size();
        step.swept_lockfree += lockfree;
      } else if (now >= next_backlog) {
        // Registry counters, not stats(): stats() takes every tenant lock.
        next_backlog = now + 1'000'000;
        step.backlog.push_back(static_cast<double>(accepted_c.value()) -
                               static_cast<double>(drained_c.value() + shed_c.value()));
      }
    }
    const std::uint64_t drained1 = srv_->stats().drained;
    step.offered_per_s = static_cast<double>(ev) / seconds;
    step.drained_per_s = static_cast<double>(drained1 - drained0) / seconds;
    // Let outstanding probes resolve, then drain before the next step.
    while (poll_probes(step, spans)) {
    }
    if (!srv_->drain(30.0)) ctx_.report->fail("serve: step did not drain");
    ctx_.report->attempt(ev);
    if (refused > 0) ctx_.report->fail("serve: background feedback not accepted", refused);

    const std::size_t q = step.backlog.size() / 4;
    double tail_mean = 0.0;
    for (std::size_t i = step.backlog.size() - q; i < step.backlog.size(); ++i)
      tail_mean += step.backlog[i] / static_cast<double>(q == 0 ? 1 : q);
    step.growing = tail_mean > rate * 1e-3;
    const Summary f = summarize(step.f2e_us);
    step.meets = f.n > 0 && f2e_p99(step) <= kF2eSloUs && !step.growing &&
                 step.probes_failed == 0 && step.offered_per_s >= 0.95 * rate;
    std::printf("serve step %6s: offered %8.0f/s drained %8.0f/s  f2e p50 %8.1f p99 %8.1f us (n=%zu)"
                "  backlog tail %7.0f  late p99 %8.1f us  %s  [p90 %.1f]\n",
                rate_label(rate).c_str(), step.offered_per_s, step.drained_per_s, f.at(0.5),
                f2e_p99(step), f.n, tail_mean, summarize(step.late_us).at(0.99),
                step.meets ? "meets SLO" : "misses SLO", f.at(0.9));
    return step;
  }

  RunContext ctx_;
  fs::path root_;
  std::unique_ptr<Server> srv_;
  std::array<Probe, kProbeTenants> probes_;
  std::vector<std::uint64_t> background_;  ///< handles, indexed by BackgroundEvent::tenant
  std::vector<std::uint64_t> all_;
  std::size_t bg_cursor_ = 0;
  std::size_t probe_cursor_ = 0;
  std::vector<std::vector<Step>> passes_;
  std::vector<double> apply_ns_;
  double journal_commits_ = 0, snapshots_ = 0, pool_entries_ = 0, warm_started_ = 0;
};

}  // namespace

std::unique_ptr<Path> make_serve_path(const RunContext& ctx) {
  return std::make_unique<ServePath>(ctx);
}

}  // namespace perfbench
