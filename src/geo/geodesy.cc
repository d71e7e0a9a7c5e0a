#include "geo/geodesy.h"

#include <algorithm>

namespace trajkit::geo {

bool IsValid(const LatLon& p) {
  return std::isfinite(p.lat_deg) && std::isfinite(p.lon_deg) &&
         p.lat_deg >= -90.0 && p.lat_deg <= 90.0 && p.lon_deg >= -180.0 &&
         p.lon_deg <= 180.0;
}

namespace {

// The haversine distance of a pair, given the cosines of both latitudes:
// the one formula behind HaversineMeters and DistanceAndBearing.
double HaversineOfCos(const LatLon& a, double cos_lat_a, const LatLon& b,
                      double cos_lat_b) {
  const double dlat = DegToRad(b.lat_deg) - DegToRad(a.lat_deg);
  const double dlon = DegToRad(b.lon_deg - a.lon_deg);
  const double sin_dlat = std::sin(dlat / 2.0);
  const double sin_dlon = std::sin(dlon / 2.0);
  double h = sin_dlat * sin_dlat + cos_lat_a * cos_lat_b * sin_dlon * sin_dlon;
  h = std::clamp(h, 0.0, 1.0);
  return 2.0 * kEarthRadiusMeters * std::asin(std::sqrt(h));
}

}  // namespace

double HaversineMeters(const LatLon& a, const LatLon& b) {
  return HaversineOfCos(a, std::cos(DegToRad(a.lat_deg)), b,
                        std::cos(DegToRad(b.lat_deg)));
}

double InitialBearingDeg(const LatLon& a, const LatLon& b) {
  if (a == b) return 0.0;
  const double lat1 = DegToRad(a.lat_deg);
  const double lat2 = DegToRad(b.lat_deg);
  const double dlon = DegToRad(b.lon_deg - a.lon_deg);
  const double y = std::sin(dlon) * std::cos(lat2);
  const double x = std::cos(lat1) * std::sin(lat2) -
                   std::sin(lat1) * std::cos(lat2) * std::cos(dlon);
  return NormalizeBearingDeg(RadToDeg(std::atan2(y, x)));
}

LatitudeTrig LatitudeTrigOf(const LatLon& p) {
  const double lat = DegToRad(p.lat_deg);
  return LatitudeTrig{std::sin(lat), std::cos(lat)};
}

DistanceBearing DistanceAndBearing(const LatLon& a, const LatitudeTrig& ta,
                                   const LatLon& b, const LatitudeTrig& tb) {
  DistanceBearing out;
  out.distance_m = HaversineOfCos(a, ta.cos_lat, b, tb.cos_lat);
  if (a == b) return out;
  // InitialBearingDeg's expressions, with sin/cos of lat1 and lat2 read
  // from `ta` and `tb`.
  const double dlon = DegToRad(b.lon_deg - a.lon_deg);
  const double y = std::sin(dlon) * tb.cos_lat;
  const double x = ta.cos_lat * tb.sin_lat -
                   ta.sin_lat * tb.cos_lat * std::cos(dlon);
  out.bearing_deg = NormalizeBearingDeg(RadToDeg(std::atan2(y, x)));
  return out;
}

LatLon Destination(const LatLon& origin, double bearing_deg,
                   double distance_m) {
  const double delta = distance_m / kEarthRadiusMeters;
  const double theta = DegToRad(bearing_deg);
  const double lat1 = DegToRad(origin.lat_deg);
  const double lon1 = DegToRad(origin.lon_deg);
  const double sin_lat2 = std::sin(lat1) * std::cos(delta) +
                          std::cos(lat1) * std::sin(delta) * std::cos(theta);
  const double lat2 = std::asin(std::clamp(sin_lat2, -1.0, 1.0));
  const double y = std::sin(theta) * std::sin(delta) * std::cos(lat1);
  const double x = std::cos(delta) - std::sin(lat1) * sin_lat2;
  double lon2 = lon1 + std::atan2(y, x);
  // Wrap longitude to [-180, 180).
  double lon2_deg = RadToDeg(lon2);
  while (lon2_deg >= 180.0) lon2_deg -= 360.0;
  while (lon2_deg < -180.0) lon2_deg += 360.0;
  return LatLon{RadToDeg(lat2), lon2_deg};
}

namespace {

// fmod(x, 360.0), which is exact and returns x itself when |x| < 360: the
// in-range case skips the call. NaN and ±inf fail the test and keep fmod.
double Fmod360(double x) {
  return std::fabs(x) < 360.0 ? x : std::fmod(x, 360.0);
}

}  // namespace

double NormalizeBearingDeg(double bearing_deg) {
  double b = Fmod360(bearing_deg);
  if (b < 0.0) b += 360.0;
  return b;
}

double BearingDifferenceDeg(double a_deg, double b_deg) {
  double diff =
      Fmod360(NormalizeBearingDeg(b_deg) - NormalizeBearingDeg(a_deg));
  if (diff > 180.0) diff -= 360.0;
  if (diff <= -180.0) diff += 360.0;
  return diff;
}

EnuProjector::EnuProjector(const LatLon& reference)
    : reference_(reference),
      cos_ref_lat_(std::cos(DegToRad(reference.lat_deg))) {}

void EnuProjector::Forward(const LatLon& p, double* east_m,
                           double* north_m) const {
  *north_m = DegToRad(p.lat_deg - reference_.lat_deg) * kEarthRadiusMeters;
  *east_m = DegToRad(p.lon_deg - reference_.lon_deg) * kEarthRadiusMeters *
            cos_ref_lat_;
}

LatLon EnuProjector::Backward(double east_m, double north_m) const {
  const double lat =
      reference_.lat_deg + RadToDeg(north_m / kEarthRadiusMeters);
  const double lon =
      reference_.lon_deg +
      RadToDeg(east_m / (kEarthRadiusMeters * cos_ref_lat_));
  return LatLon{lat, lon};
}

void BoundingBox::Extend(const LatLon& p) {
  min_lat = std::min(min_lat, p.lat_deg);
  max_lat = std::max(max_lat, p.lat_deg);
  min_lon = std::min(min_lon, p.lon_deg);
  max_lon = std::max(max_lon, p.lon_deg);
}

}  // namespace trajkit::geo
