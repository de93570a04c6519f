// offline_campaign: source to deployed knowledge base, cold and cached.
//
// One campaign builds the 12 paper kernels into an empty private
// disk-tier ArtifactCache twice (the paper's full-factorial DSE, then
// the two-stage explorer with representative pruning), then rebuilds
// all 24 in fresh Pipelines over the same directory, where COBAYN and
// DSE are disk hits.  Stage times come from each build's PipelineReport;
// what the stages do not cover is pipeline glue and task-pool work.
#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "margot/kb_io.hpp"
#include "report.hpp"
#include "socrates/pipeline.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using socrates::ArtifactCache;
using socrates::Pipeline;
using socrates::ToolchainOptions;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Per-campaign sums (ms unless noted).
struct Campaign {
  double cold_ms = 0.0;
  double cached_ms = 0.0;
  std::map<std::string, double> stage_ms;  ///< both passes, by stage name
  double cobayn_cold_ms = 0.0;
  double cobayn_cached_ms = 0.0;
  double explore_full_ms = 0.0;
  double explore_two_stage_ms = 0.0;
  double dse_load_ms = 0.0;
  double points_evaluated = 0.0;
  double cache_stores = 0.0;
  double cached_hit_frac = 0.0;
  double unattributed_ms = 0.0;
};

class OfflinePath final : public Path {
 public:
  explicit OfflinePath(const RunContext& ctx) : ctx_(ctx) {}

  void setup() override {
    root_ = ctx_.work / "offline";
    fs::remove_all(root_);
    fs::create_directories(root_);
    // One job: the campaign runs on the calling thread, so its time does
    // not depend on how fast the host wakes pool threads.  The DSE options
    // are set here, never read from the environment.
    full_.jobs = 1;
    full_.dse = socrates::dse::DseStrategyOptions{};
    two_stage_ = full_;
    two_stage_.dse.kind = socrates::dse::DseStrategyOptions::Kind::kTwoStage;
    two_stage_.dse.max_representatives = 8;
  }

  double measure(double budget_s, SpanLog* spans) override {
    const auto start = std::chrono::steady_clock::now();
    std::vector<double> cold;
    while (cold.size() < 3 || seconds_since(start) < budget_s) {
      run_campaign(spans);
      cold.push_back(campaigns_.back().cold_ms);
    }
    return median(cold);
  }

  void check() override {
    // KB text equality is checked per campaign (outside its timers) in
    // run_campaign; here only that something was built.
    if (campaigns_.empty()) ctx_.report->fail("offline: no campaign ran");
  }

  void emit_e2e() override {
    Report& r = *ctx_.report;
    const Summary cold = summarize(collect(&Campaign::cold_ms));
    emit_timing(r, true, "offline.cold_campaign_ms.p50", cold, 0.5, "ms");
    emit_timing(r, true, "offline.cold_campaign_ms.p90", cold, 0.9, "ms");
    emit_timing(r, true, "offline.cached_campaign_ms.p50",
                summarize(collect(&Campaign::cached_ms)), 0.5, "ms");
  }

  void emit_layers() override {
    Report& r = *ctx_.report;
    const std::size_t n = campaigns_.size();
    const auto stage = [&](const char* metric, const char* stage_name) {
      std::vector<double> v;
      for (const auto& c : campaigns_) {
        const auto it = c.stage_ms.find(stage_name);
        v.push_back(it == c.stage_ms.end() ? 0.0 : it->second);
      }
      r.layer(metric, median(v), "ms", n);
    };
    stage("ir.parse_ms", "Parse");
    stage("features.extract_ms", "Features");
    stage("weaver.weave_ms", "Weave");
    stage("margot.knowledge_ms", "Knowledge");
    stage("dse.prune_ms", "Prune");
    const auto field = [&](const char* metric, double Campaign::*f, const char* unit) {
      r.layer(metric, median(collect(f)), unit, n);
    };
    field("cobayn.predict_ms.cold", &Campaign::cobayn_cold_ms, "ms");
    field("cobayn.predict_ms.cached", &Campaign::cobayn_cached_ms, "ms");
    field("dse.explore_ms.full", &Campaign::explore_full_ms, "ms");
    field("dse.explore_ms.two_stage", &Campaign::explore_two_stage_ms, "ms");
    field("dse.load_ms", &Campaign::dse_load_ms, "ms");
    field("dse.points_evaluated", &Campaign::points_evaluated, "count");
    field("support.cache_hit_frac", &Campaign::cached_hit_frac, "frac");
    field("support.cache_stores", &Campaign::cache_stores, "count");
    field("offline.unattributed_ms", &Campaign::unattributed_ms, "ms");
  }

 private:
  std::vector<double> collect(double Campaign::*f) const {
    std::vector<double> v;
    for (const auto& c : campaigns_) v.push_back(c.*f);
    return v;
  }

  /// Builds `order` with `options` into `cache`; appends stage times.
  void build_pass(const ToolchainOptions& options, ArtifactCache& cache,
                  const std::vector<std::string>& order, bool cold, bool two_stage,
                  Campaign& c, std::vector<socrates::margot::KnowledgeBase>& kbs,
                  SpanLog* spans, std::uint32_t parent, const char* pass_name) {
    ScopedSpan pass(spans, pass_name, parent);
    Pipeline pipeline(*ctx_.model, options, &cache);
    for (const auto& name : order) {
      ScopedSpan build(spans, "offline.build", pass.id());
      socrates::AdaptiveBinary bin = pipeline.build(name);
      for (const auto& s : pipeline.last_report().stages) {
        const double ms = s.seconds * 1e3;
        c.stage_ms[s.name] += ms;
        if (s.degraded()) ctx_.report->fail("offline: stage " + s.name + " degraded on " + name);
        if (s.name == "CobaynPredict") (cold ? c.cobayn_cold_ms : c.cobayn_cached_ms) += ms;
        if (s.name == "Dse") {
          if (!cold)
            c.dse_load_ms += ms;
          else
            (two_stage ? c.explore_two_stage_ms : c.explore_full_ms) += ms;
        }
      }
      if (cold) c.points_evaluated += static_cast<double>(bin.profile.size());
      kbs.push_back(std::move(bin.knowledge));
    }
  }

  void run_campaign(SpanLog* spans) {
    const auto& order =
        ctx_.inputs->campaign_orders[campaigns_.size() % ctx_.inputs->campaign_orders.size()];
    const fs::path dir = root_ / std::to_string(campaigns_.size());
    fs::remove_all(dir);
    Campaign c;
    std::vector<socrates::margot::KnowledgeBase> cold_kbs, cached_kbs;
    const std::uint32_t campaign =
        spans ? spans->begin("offline.campaign", SpanLog::kNone, campaigns_.size()) : SpanLog::kNone;
    auto t0 = std::chrono::steady_clock::now();
    {
      ArtifactCache cache(dir.string());
      build_pass(full_, cache, order, true, false, c, cold_kbs, spans, campaign,
                 "offline.cold_full");
      build_pass(two_stage_, cache, order, true, true, c, cold_kbs, spans, campaign,
                 "offline.cold_two_stage");
      c.cache_stores = static_cast<double>(cache.stats().stores);
    }
    c.cold_ms = seconds_since(t0) * 1e3;

    t0 = std::chrono::steady_clock::now();
    ArtifactCache::Stats cached_stats;
    {
      ArtifactCache cache(dir.string());
      build_pass(full_, cache, order, false, false, c, cached_kbs, spans, campaign,
                 "offline.cached_full");
      build_pass(two_stage_, cache, order, false, true, c, cached_kbs, spans, campaign,
                 "offline.cached_two_stage");
      cached_stats = cache.stats();
    }
    c.cached_ms = seconds_since(t0) * 1e3;
    if (spans) spans->end(campaign);

    // ---- outside the timers: accounting and oracles ----
    double stage_sum = 0.0;
    for (const auto& [name, ms] : c.stage_ms) stage_sum += ms;
    c.unattributed_ms = c.cold_ms + c.cached_ms - stage_sum;
    if (c.unattributed_ms < 0.0)
      ctx_.report->fail("offline: stage times exceed the campaign wall time");
    const double lookups = static_cast<double>(cached_stats.memory_hits + cached_stats.disk_hits +
                                               cached_stats.misses);
    c.cached_hit_frac =
        lookups > 0 ? static_cast<double>(cached_stats.memory_hits + cached_stats.disk_hits) / lookups
                    : 0.0;
    if (c.cached_hit_frac != 1.0) ctx_.report->fail("offline: cached rebuild missed the cache");

    ctx_.report->attempt(cold_kbs.size() + cached_kbs.size());
    for (std::size_t i = 0; i < cold_kbs.size(); ++i) {
      const std::string key = (i < order.size() ? "full/" : "two-stage/") + order[i % order.size()];
      const std::string text = socrates::margot::knowledge_to_string(cold_kbs[i]);
      if (i >= cached_kbs.size() || socrates::margot::knowledge_to_string(cached_kbs[i]) != text)
        ctx_.report->fail("offline: cached knowledge base differs for " + key);
      const auto [it, first] = reference_.emplace(key, text);
      if (!first && it->second != text)
        ctx_.report->fail("offline: knowledge base changed across campaigns for " + key);
    }
    fs::remove_all(dir);
    campaigns_.push_back(std::move(c));
  }

  RunContext ctx_;
  fs::path root_;
  ToolchainOptions full_;
  ToolchainOptions two_stage_;
  std::vector<Campaign> campaigns_;
  std::map<std::string, std::string> reference_;  ///< first campaign's KB text per build
};

}  // namespace

std::unique_ptr<Path> make_offline_path(const RunContext& ctx) {
  return std::make_unique<OfflinePath>(ctx);
}

}  // namespace perfbench
