// Unit and property tests for src/geo geodesy primitives.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "geo/geodesy.h"

namespace trajkit::geo {
namespace {

TEST(GeodesyTest, HaversineZeroForIdenticalPoints) {
  const LatLon p{39.9, 116.4};
  EXPECT_DOUBLE_EQ(HaversineMeters(p, p), 0.0);
}

TEST(GeodesyTest, HaversineKnownDistanceParisToLondon) {
  // Paris (48.8566, 2.3522) to London (51.5074, -0.1278): ~343.5 km.
  const LatLon paris{48.8566, 2.3522};
  const LatLon london{51.5074, -0.1278};
  EXPECT_NEAR(HaversineMeters(paris, london), 343.5e3, 1.5e3);
}

TEST(GeodesyTest, HaversineOneDegreeLatitudeIsabout111km) {
  const LatLon a{0.0, 0.0};
  const LatLon b{1.0, 0.0};
  EXPECT_NEAR(HaversineMeters(a, b), 111.19e3, 0.2e3);
}

TEST(GeodesyTest, HaversineIsSymmetric) {
  const LatLon a{39.9, 116.4};
  const LatLon b{40.1, 116.2};
  EXPECT_DOUBLE_EQ(HaversineMeters(a, b), HaversineMeters(b, a));
}

TEST(GeodesyTest, HaversineAntipodalIsHalfCircumference) {
  const LatLon a{0.0, 0.0};
  const LatLon b{0.0, 180.0};
  EXPECT_NEAR(HaversineMeters(a, b), M_PI * kEarthRadiusMeters, 1.0);
}

TEST(GeodesyTest, BearingCardinalDirections) {
  const LatLon origin{39.9, 116.4};
  EXPECT_NEAR(InitialBearingDeg(origin, LatLon{40.0, 116.4}), 0.0, 1e-6);
  EXPECT_NEAR(InitialBearingDeg(origin, LatLon{39.8, 116.4}), 180.0, 1e-6);
  EXPECT_NEAR(InitialBearingDeg(origin, LatLon{39.9, 116.5}), 90.0, 0.1);
  EXPECT_NEAR(InitialBearingDeg(origin, LatLon{39.9, 116.3}), 270.0, 0.1);
}

TEST(GeodesyTest, BearingOfSamePointIsZero) {
  const LatLon p{10.0, 20.0};
  EXPECT_DOUBLE_EQ(InitialBearingDeg(p, p), 0.0);
}

TEST(GeodesyTest, NormalizeBearing) {
  EXPECT_DOUBLE_EQ(NormalizeBearingDeg(0.0), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeBearingDeg(360.0), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeBearingDeg(-90.0), 270.0);
  EXPECT_DOUBLE_EQ(NormalizeBearingDeg(725.0), 5.0);
}

TEST(GeodesyTest, BearingDifferenceWrapsToSignedHalfCircle) {
  EXPECT_DOUBLE_EQ(BearingDifferenceDeg(350.0, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(BearingDifferenceDeg(10.0, 350.0), -20.0);
  EXPECT_DOUBLE_EQ(BearingDifferenceDeg(0.0, 180.0), 180.0);
  EXPECT_DOUBLE_EQ(BearingDifferenceDeg(90.0, 90.0), 0.0);
}

TEST(GeodesyTest, IsValidChecksRanges) {
  EXPECT_TRUE(IsValid(LatLon{0.0, 0.0}));
  EXPECT_TRUE(IsValid(LatLon{-90.0, 180.0}));
  EXPECT_FALSE(IsValid(LatLon{91.0, 0.0}));
  EXPECT_FALSE(IsValid(LatLon{0.0, -181.0}));
  EXPECT_FALSE(IsValid(LatLon{std::nan(""), 0.0}));
}

TEST(GeodesyTest, DestinationNorthIncreasesLatitude) {
  const LatLon origin{39.9, 116.4};
  const LatLon dest = Destination(origin, 0.0, 10000.0);
  EXPECT_GT(dest.lat_deg, origin.lat_deg);
  EXPECT_NEAR(dest.lon_deg, origin.lon_deg, 1e-9);
}

TEST(GeodesyTest, BoundingBoxExtend) {
  BoundingBox box;
  EXPECT_FALSE(box.IsInitialized());
  box.Extend(LatLon{1.0, 2.0});
  box.Extend(LatLon{-1.0, 5.0});
  EXPECT_TRUE(box.IsInitialized());
  EXPECT_EQ(box.min_lat, -1.0);
  EXPECT_EQ(box.max_lat, 1.0);
  EXPECT_EQ(box.min_lon, 2.0);
  EXPECT_EQ(box.max_lon, 5.0);
}

TEST(GeodesyTest, EnuRoundTripAtReference) {
  const EnuProjector projector(LatLon{39.9, 116.4});
  double e = 0.0;
  double n = 0.0;
  projector.Forward(LatLon{39.9, 116.4}, &e, &n);
  EXPECT_NEAR(e, 0.0, 1e-9);
  EXPECT_NEAR(n, 0.0, 1e-9);
}

// ----------------------------------------- Shared-trig pair kernel --

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// DistanceAndBearing against the two single-purpose kernels, bit for bit.
void ExpectKernelMatches(const LatLon& a, const LatLon& b) {
  const DistanceBearing got =
      DistanceAndBearing(a, LatitudeTrigOf(a), b, LatitudeTrigOf(b));
  EXPECT_TRUE(SameBits(got.distance_m, HaversineMeters(a, b)))
      << a.lat_deg << "," << a.lon_deg << " -> " << b.lat_deg << ","
      << b.lon_deg << ": " << got.distance_m;
  EXPECT_TRUE(SameBits(got.bearing_deg, InitialBearingDeg(a, b)))
      << a.lat_deg << "," << a.lon_deg << " -> " << b.lat_deg << ","
      << b.lon_deg << ": " << got.bearing_deg;
}

TEST(DistanceAndBearingTest, MatchesSeparateKernelsOnSpecialPairs) {
  const std::vector<LatLon> points = {
      {90.0, 0.0},     {90.0, 123.4},       {-90.0, 0.0},
      {-90.0, -45.0},  {89.9999999, 10.0},  {0.0, 180.0},
      {0.0, -180.0},   {10.0, 179.9999999}, {10.0, -179.9999999},
      {0.0, 0.0},      {-0.0, -0.0},        {20.0, 30.0},
      {-20.0, -150.0}, {39.9042, 116.4074}, {39.9042, 116.4074000001}};
  for (const LatLon& a : points) {
    for (const LatLon& b : points) ExpectKernelMatches(a, b);
  }
  // Antipodes hit the clamp at h = 1 and the bearing's atan2 at the
  // degenerate x = y = 0 neighbourhood.
  ExpectKernelMatches({0.0, 0.0}, {0.0, 180.0});
  ExpectKernelMatches({45.0, 10.0}, {-45.0, -170.0});
  ExpectKernelMatches({90.0, 0.0}, {-90.0, 0.0});
}

TEST(DistanceAndBearingTest, MatchesSeparateKernelsOnSeededPairs) {
  Rng rng(1607);
  for (int i = 0; i < 4000; ++i) {
    const LatLon a{rng.Uniform(-90.0, 90.0), rng.Uniform(-180.0, 180.0)};
    ExpectKernelMatches(a, {rng.Uniform(-90.0, 90.0),
                            rng.Uniform(-180.0, 180.0)});
    // GPS-scale steps, the replay's case.
    ExpectKernelMatches(a, {a.lat_deg + rng.Gaussian(0.0, 1e-4),
                            a.lon_deg + rng.Gaussian(0.0, 1e-4)});
    ExpectKernelMatches(a, a);
  }
}

TEST(DistanceAndBearingTest, NonFiniteInputsStayNaN) {
  // Bit for bit, NaN signs included: the kernel must not drift from the
  // single kernels even where only the operand order of a product decides
  // which NaN comes out.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const LatLon fine{39.9, 116.4};
  for (const LatLon& bad :
       {LatLon{nan, 116.4}, LatLon{39.9, nan}, LatLon{-nan, 116.4},
        LatLon{nan, -nan}, LatLon{inf, 0.0}, LatLon{0.0, -inf}}) {
    for (const LatLon& other : {fine, LatLon{-nan, 0.0}, LatLon{nan, nan},
                                LatLon{-inf, 10.0}, bad}) {
      for (const auto& [a, b] :
           {std::pair{bad, other}, std::pair{other, bad}}) {
        ExpectKernelMatches(a, b);
        EXPECT_TRUE(std::isnan(HaversineMeters(a, b)));
      }
    }
  }
}

// The fmod forms the in-range fast paths must reproduce.
double NormalizeWithFmod(double bearing_deg) {
  double b = std::fmod(bearing_deg, 360.0);
  if (b < 0.0) b += 360.0;
  return b;
}

double DifferenceWithFmod(double a_deg, double b_deg) {
  double diff =
      std::fmod(NormalizeWithFmod(b_deg) - NormalizeWithFmod(a_deg), 360.0);
  if (diff > 180.0) diff -= 360.0;
  if (diff <= -180.0) diff += 360.0;
  return diff;
}

TEST(GeodesyTest, BearingFastPathsMatchFmodForms) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> angles = {0.0,
                                -0.0,
                                std::nextafter(360.0, 0.0),
                                360.0,
                                -360.0,
                                std::nextafter(-360.0, 0.0),
                                720.0,
                                -1e-20,
                                180.0,
                                -180.0,
                                359.5,
                                -359.5,
                                1e300,
                                inf,
                                -inf,
                                std::numeric_limits<double>::quiet_NaN()};
  Rng rng(360);
  for (int i = 0; i < 200; ++i) {
    angles.push_back(rng.Uniform(-1000.0, 1000.0));
  }
  for (const double a : angles) {
    EXPECT_TRUE(SameBits(NormalizeBearingDeg(a), NormalizeWithFmod(a))) << a;
    for (const double b : angles) {
      EXPECT_TRUE(SameBits(BearingDifferenceDeg(a, b),
                           DifferenceWithFmod(a, b)))
          << a << " " << b;
    }
  }
}

// Property suite: pseudo-random city-scale points.
class GeodesyPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(GeodesyPropertyTest, DestinationInvertsDistanceAndBearing) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const LatLon origin{rng.Uniform(-60.0, 60.0), rng.Uniform(-179.0, 179.0)};
    const double bearing = rng.Uniform(0.0, 360.0);
    const double distance = rng.Uniform(1.0, 50000.0);
    const LatLon dest = Destination(origin, bearing, distance);
    EXPECT_NEAR(HaversineMeters(origin, dest), distance,
                std::max(0.01, distance * 1e-9));
    // The spherical forward azimuth matches the requested bearing.
    EXPECT_NEAR(std::fabs(BearingDifferenceDeg(
                    InitialBearingDeg(origin, dest), bearing)),
                0.0, 0.2);
  }
}

TEST_P(GeodesyPropertyTest, TriangleInequalityHolds) {
  Rng rng(GetParam() + 1000);
  for (int i = 0; i < 50; ++i) {
    const LatLon a{rng.Uniform(-80.0, 80.0), rng.Uniform(-180.0, 180.0)};
    const LatLon b{rng.Uniform(-80.0, 80.0), rng.Uniform(-180.0, 180.0)};
    const LatLon c{rng.Uniform(-80.0, 80.0), rng.Uniform(-180.0, 180.0)};
    EXPECT_LE(HaversineMeters(a, c),
              HaversineMeters(a, b) + HaversineMeters(b, c) + 1e-6);
  }
}

TEST_P(GeodesyPropertyTest, EnuRoundTripCityScale) {
  Rng rng(GetParam() + 2000);
  const LatLon ref{rng.Uniform(-60.0, 60.0), rng.Uniform(-179.0, 179.0)};
  const EnuProjector projector(ref);
  for (int i = 0; i < 50; ++i) {
    const double east = rng.Uniform(-20000.0, 20000.0);
    const double north = rng.Uniform(-20000.0, 20000.0);
    const LatLon p = projector.Backward(east, north);
    double e2 = 0.0;
    double n2 = 0.0;
    projector.Forward(p, &e2, &n2);
    EXPECT_NEAR(e2, east, 1e-6);
    EXPECT_NEAR(n2, north, 1e-6);
  }
}

TEST_P(GeodesyPropertyTest, EnuDistanceMatchesHaversineLocally) {
  Rng rng(GetParam() + 3000);
  const LatLon ref{rng.Uniform(-55.0, 55.0), rng.Uniform(-170.0, 170.0)};
  const EnuProjector projector(ref);
  for (int i = 0; i < 30; ++i) {
    const double east = rng.Uniform(-3000.0, 3000.0);
    const double north = rng.Uniform(-3000.0, 3000.0);
    const LatLon p = projector.Backward(east, north);
    const double planar = std::hypot(east, north);
    const double spherical = HaversineMeters(ref, p);
    // Within 0.5% at city scale.
    EXPECT_NEAR(spherical, planar, std::max(0.5, planar * 5e-3));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeodesyPropertyTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace trajkit::geo
