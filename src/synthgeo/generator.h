#ifndef TRAJKIT_SYNTHGEO_GENERATOR_H_
#define TRAJKIT_SYNTHGEO_GENERATOR_H_

#include <array>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "synthgeo/trip_simulator.h"
#include "traj/types.h"

namespace trajkit::synthgeo {

/// Knobs of the corpus generator. The defaults produce a GeoLife-scale
/// study population (69 users); benches shrink days_per_user to trade
/// corpus size for runtime.
struct GeneratorOptions {
  int num_users = 69;
  int days_per_user = 8;
  double mean_trips_per_day = 4.0;
  /// Probability that a trip's annotation boundary is wrong (the human
  /// labelling error §4 discusses): the first 20–120 s of the trip keep
  /// the previous trip's label.
  double label_noise_prob = 0.06;
  /// Disable all GPS error (clean ground-truth fixes).
  bool clean_gps = false;
  uint64_t seed = 7;
  /// First day 00:00, seconds since epoch (defaults to 2008-05-01, inside
  /// GeoLife's collection window).
  double base_time = 1209600000.0;
};

/// The corpus flags every entry point that generates a corpus shares:
/// --users and --days (each >= 1) and --seed (any uint64), over
/// `defaults`. A default of 0 users leaves --users unread, for entry
/// points that set the user count themselves.
GeneratorOptions GeneratorOptionsFromFlags(const Flags& flags,
                                           GeneratorOptions defaults);

/// Diagnostics of a generated corpus.
struct CorpusSummary {
  size_t total_points = 0;
  size_t total_trips = 0;
  std::array<size_t, traj::kNumModes> points_per_mode{};
  std::array<size_t, traj::kNumModes> trips_per_mode{};

  /// Achieved share of points per mode.
  double PointShare(traj::Mode mode) const;
  /// Table of modes, trips, points, achieved vs. GeoLife target share.
  std::string ToString() const;
};

/// Generates a labelled multi-user, multi-day GPS corpus that plays the
/// role of GeoLife (see DESIGN.md §2 for the substitution argument). Each
/// user gets an idiosyncratic UserProfile; each day chains several trips
/// with gaps; trip modes follow the user's preferences calibrated so the
/// corpus-level point shares approximate GeoLife's published shares.
class GeoLifeLikeGenerator {
 public:
  explicit GeoLifeLikeGenerator(GeneratorOptions options = {});

  /// Generates the corpus: one Trajectory per user. Deterministic in
  /// options.seed.
  std::vector<traj::Trajectory> Generate();

  /// Summary of the last Generate() call.
  const CorpusSummary& summary() const { return summary_; }

  /// User profiles drawn for the last Generate() call (index = user id).
  const std::vector<UserProfile>& user_profiles() const { return profiles_; }

 private:
  GeneratorOptions options_;
  CorpusSummary summary_;
  std::vector<UserProfile> profiles_;
};

}  // namespace trajkit::synthgeo

#endif  // TRAJKIT_SYNTHGEO_GENERATOR_H_
