#include "inputs.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "kernels/registry.hpp"

namespace perfbench {
namespace {

/// splitmix64: a self-contained generator, so the inputs depend only
/// on the seed and not on a library's distribution implementation.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

socrates::features::FeatureVector jitter(const socrates::features::FeatureVector& centre,
                                         SplitMix& rng) {
  socrates::features::FeatureVector fv = centre;
  for (double& v : fv.values) v *= rng.uniform(0.97, 1.03);
  return fv;
}

}  // namespace

Inputs generate_inputs(std::uint64_t seed) {
  SplitMix rng(seed ^ 0x50c7a7e5ull);
  Inputs in;

  std::vector<std::string> names;
  for (const auto& b : socrates::kernels::all_benchmarks()) names.push_back(b.name);
  for (int c = 0; c < 16; ++c) {
    std::vector<std::string> order = names;
    for (std::size_t i = order.size() - 1; i > 0; --i) std::swap(order[i], order[rng.below(i + 1)]);
    in.campaign_orders.push_back(std::move(order));
  }

  for (int i = 0; i < 4096; ++i)
    in.online_sequence.push_back(static_cast<std::uint8_t>(rng.below(kOnlineKernels.size())));
  // Goal switches stay rarer than 1 in 400 calls, so their cost sits
  // beyond the p99 the loop reports whatever the seed.
  in.goal_period = 400 + rng.below(201);
  in.cap_fracs = {rng.uniform(0.25, 0.30), rng.uniform(0.65, 0.70)};

  // Eight feature clusters; every featured tenant sits within a few
  // percent of one centre, so wave-2 tenants find a wave-1 donor.
  std::vector<socrates::features::FeatureVector> centres(8);
  for (auto& c : centres)
    for (double& v : c.values) v = std::exp(rng.uniform(0.0, std::log(1000.0)));
  for (std::size_t t = 0; t < kWaveTenants; ++t)
    in.wave1_features.push_back(jitter(centres[t % centres.size()], rng));
  for (std::size_t t = 0; t < kWaveTenants; ++t)
    in.wave2_features.push_back(jitter(centres[rng.below(centres.size())], rng));

  for (int i = 0; i < 65536; ++i) {
    BackgroundEvent e;
    e.tenant = static_cast<std::uint16_t>(rng.below(kBackgroundTenants));
    e.op = static_cast<std::uint8_t>(rng.below(16));
    e.metric = static_cast<std::uint8_t>(rng.below(2));
    e.factor = rng.uniform(0.97, 1.03);
    in.background.push_back(e);
  }
  for (int i = 0; i < 8192; ++i)
    in.probes.push_back({static_cast<std::uint16_t>(rng.below(kProbeTenants)),
                         static_cast<std::uint16_t>(100 + rng.below(51))});
  return in;
}

std::string Inputs::fingerprint() const {
  std::ostringstream out;
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%a ", v);
    out << buf;
  };
  for (const auto& order : campaign_orders) {
    for (const auto& name : order) out << name << ' ';
    out << '\n';
  }
  for (const auto k : online_sequence) out << int(k);
  out << '\n' << goal_period << ' ';
  num(cap_fracs[0]);
  num(cap_fracs[1]);
  out << '\n';
  for (const auto* wave : {&wave1_features, &wave2_features})
    for (const auto& fv : *wave)
      for (const double v : fv.values) num(v);
  out << '\n';
  for (const auto& e : background) {
    out << e.tenant << ',' << int(e.op) << ',' << int(e.metric) << ',';
    num(e.factor);
  }
  out << '\n';
  for (const auto& p : probes) out << p.tenant << ',' << p.gap_us << ' ';
  return out.str();
}

bool inputs_self_test(std::uint64_t seed) {
  const std::string a = generate_inputs(seed).fingerprint();
  return a == generate_inputs(seed).fingerprint() &&
         a != generate_inputs(seed + 1).fingerprint();
}

}  // namespace perfbench
