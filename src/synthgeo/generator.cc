#include "synthgeo/generator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/strings.h"
#include "synthgeo/mode_profiles.h"

namespace trajkit::synthgeo {

namespace {

/// Mean of the Gaussian (sd 1.2) each user-day's trip count is drawn from.
constexpr double kMeanTripsPerDay = 4.0;

// Beijing: GeoLife's collection city.
constexpr geo::LatLon kCityCenter{39.9042, 116.4074};

// Converts a user's point-share weights into trip-draw weights by dividing
// out the expected number of points a trip of each mode contributes.
std::array<double, traj::kNumModes> TripWeights(const UserProfile& user) {
  std::array<double, traj::kNumModes> weights{};
  for (traj::Mode mode : traj::AllLabeledModes()) {
    const size_t i = static_cast<size_t>(mode);
    const ModeProfile& profile = GetModeProfile(mode);
    const double expected_points =
        profile.trip_median_s /
        std::max(1.0, profile.sampling_interval_s * user.sampling_factor);
    weights[i] = user.mode_weights[i] / std::max(1.0, expected_points);
  }
  return weights;
}

}  // namespace

GeneratorOptions GeneratorOptionsFromFlags(const Flags& flags,
                                           GeneratorOptions defaults) {
  if (defaults.num_users > 0) {
    defaults.num_users = flags.GetInt("users", defaults.num_users, 1);
  }
  defaults.days_per_user = flags.GetInt("days", defaults.days_per_user, 1);
  defaults.seed = flags.GetUint64("seed", defaults.seed);
  return defaults;
}

double CorpusSummary::PointShare(traj::Mode mode) const {
  if (total_points == 0) return 0.0;
  return static_cast<double>(
             points_per_mode[static_cast<size_t>(mode)]) /
         static_cast<double>(total_points);
}

std::string CorpusSummary::ToString() const {
  std::string out = StrPrintf("%-12s %8s %10s %9s %9s\n", "mode", "trips",
                              "points", "share", "target");
  for (traj::Mode mode : traj::AllLabeledModes()) {
    const size_t i = static_cast<size_t>(mode);
    out += StrPrintf("%-12s %8zu %10zu %8.3f%% %8.3f%%\n",
                     std::string(traj::ModeToString(mode)).c_str(),
                     trips_per_mode[i], points_per_mode[i],
                     100.0 * PointShare(mode),
                     100.0 * GeoLifePointShare(mode));
  }
  out += StrPrintf("total trips=%zu points=%zu\n", total_trips, total_points);
  return out;
}

GeoLifeLikeGenerator::GeoLifeLikeGenerator(GeneratorOptions options)
    : options_(options) {}

std::vector<traj::Trajectory> GeoLifeLikeGenerator::Generate() {
  TRAJKIT_CHECK_GT(options_.num_users, 0);
  TRAJKIT_CHECK_GT(options_.days_per_user, 0);

  Rng master(options_.seed);
  summary_ = CorpusSummary{};
  profiles_.clear();
  profiles_.reserve(static_cast<size_t>(options_.num_users));

  std::vector<traj::Trajectory> corpus;
  corpus.reserve(static_cast<size_t>(options_.num_users));

  for (int uid = 0; uid < options_.num_users; ++uid) {
    Rng rng = master.Fork();
    UserProfile user = SampleUserProfile(uid, kCityCenter, rng);
    const std::array<double, traj::kNumModes> trip_weights =
        TripWeights(user);
    const std::vector<double> weight_vec(trip_weights.begin(),
                                         trip_weights.end());
    double weight_total = 0.0;
    for (double w : weight_vec) weight_total += w;
    TRAJKIT_CHECK_GT(weight_total, 0.0) << "user has no usable modes";

    traj::Trajectory trajectory;
    trajectory.user_id = uid;

    for (int day = 0; day < options_.days_per_user; ++day) {
      const double day_start =
          kCorpusBaseTime + 86400.0 * static_cast<double>(day);
      // The diary starts between 06:00 and 10:00.
      double clock = day_start + rng.Uniform(6.0, 10.0) * 3600.0;
      const double day_end = day_start + 23.5 * 3600.0;

      const int trips_today = std::max(
          1, static_cast<int>(std::lround(
                 rng.Gaussian(kMeanTripsPerDay, 1.2))));
      geo::LatLon position = user.home;
      traj::Mode previous_mode = traj::Mode::kUnknown;

      for (int trip_index = 0; trip_index < trips_today; ++trip_index) {
        if (clock >= day_end) break;
        const traj::Mode mode = static_cast<traj::Mode>(
            rng.SampleDiscrete(weight_vec));

        TripRequest request;
        request.mode = mode;
        request.start = position;
        request.start_time = clock;
        request.clean_gps = options_.clean_gps;
        // `mode` was drawn from the profile weights, never kUnknown, so
        // the Result is always OK here (value() aborts otherwise).
        SimulatedTrip trip = SimulateTrip(request, user, rng).value();

        // Annotation error: with probability label_noise_prob, the user
        // forgot to switch the label when this trip started, so its first
        // 20–120 s inherit the previous trip's mode. Both draws happen
        // unconditionally so that corpora generated from one seed stay
        // point-aligned across label_noise_prob settings.
        const bool shift_label = rng.NextBernoulli(options_.label_noise_prob);
        const double lag = rng.Uniform(20.0, 120.0);
        if (shift_label && previous_mode != traj::Mode::kUnknown) {
          for (traj::TrajectoryPoint& p : trip.points) {
            if (p.timestamp - clock > lag) break;
            p.mode = previous_mode;
          }
        }

        const size_t mode_index = static_cast<size_t>(mode);
        summary_.trips_per_mode[mode_index] += 1;
        summary_.total_trips += 1;
        summary_.points_per_mode[mode_index] += trip.points.size();
        summary_.total_points += trip.points.size();

        trajectory.points.insert(trajectory.points.end(),
                                 trip.points.begin(), trip.points.end());
        position = trip.end_position;
        previous_mode = mode;
        // Untracked dwell before the next trip.
        clock = trip.end_time + rng.Uniform(300.0, 7200.0);
      }
    }
    profiles_.push_back(user);
    corpus.push_back(std::move(trajectory));
  }
  return corpus;
}

}  // namespace trajkit::synthgeo
