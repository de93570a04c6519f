// Seeded workload inputs.
//
// The seed given on the command line is turned into plain input data
// here and nowhere else: the workloads and the library see only the
// generated values (kernel orders, goal schedule, tenant features,
// feedback stream, probe schedule), never the seed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "features/features.hpp"

namespace perfbench {

// ---- workload shape (fixed; only the values below vary with the seed) ----

/// Kernels of the online loop, each with its per-call problem size
/// (about 10 us of work per call on one core).
inline constexpr std::array<const char*, 3> kOnlineKernels = {"atax", "mvt", "gemver"};
inline constexpr std::array<std::size_t, 3> kOnlineSizes = {40, 40, 28};

/// Serve ladder: offered feedback rates (events/s) and the f2e limit.
inline constexpr std::array<double, 4> kLadderRates = {100e3, 300e3, 600e3, 900e3};
inline constexpr std::size_t kF2eReportStep = 1;  ///< index of the 300k/s step
inline constexpr double kF2eSloUs = 1000.0;

/// Tenants: probes and plain background tenants are registered without
/// features; two waves of featured tenants go through create_tenant so
/// the knowledge pool's publish (wave 1) and lookup (wave 2) both run.
inline constexpr std::size_t kProbeTenants = 16;
inline constexpr std::size_t kPlainTenants = 112;
inline constexpr std::size_t kWaveTenants = 64;
inline constexpr std::size_t kTenants = kProbeTenants + kPlainTenants + 2 * kWaveTenants;
inline constexpr std::size_t kBackgroundTenants = kTenants - kProbeTenants;

struct BackgroundEvent {
  std::uint16_t tenant;  ///< index among the background tenants
  std::uint8_t op;       ///< operating point the observation is for
  std::uint8_t metric;   ///< 0 = throughput, 1 = power
  double factor;         ///< observed / knowledge-base mean
};

struct ProbeSlot {
  std::uint16_t tenant;  ///< probe tenant index
  std::uint16_t gap_us;  ///< time from the previous probe's due time
};

struct Inputs {
  // offline_campaign: the order the 12 kernels are built in, per campaign.
  std::vector<std::vector<std::string>> campaign_orders;
  // online_short_kernels: which kernel each invocation runs (cycled),
  // invocations between power-cap switches, and the two caps as
  // fractions of each knowledge base's power range.
  std::vector<std::uint8_t> online_sequence;
  std::size_t goal_period = 0;
  std::array<double, 2> cap_fracs{};
  // serve_ladder: featured tenants' static features, the background
  // feedback stream and the probe schedule (both cycled).
  std::vector<socrates::features::FeatureVector> wave1_features;
  std::vector<socrates::features::FeatureVector> wave2_features;
  std::vector<BackgroundEvent> background;
  std::vector<ProbeSlot> probes;

  /// Exact text form of every generated value (hexfloat doubles).
  std::string fingerprint() const;
};

Inputs generate_inputs(std::uint64_t seed);

/// Same seed -> identical inputs; a different seed -> different inputs.
bool inputs_self_test(std::uint64_t seed);

}  // namespace perfbench
