#ifndef TRAJKIT_GEO_GEODESY_H_
#define TRAJKIT_GEO_GEODESY_H_

#include <cmath>

namespace trajkit::geo {

/// Mean Earth radius in meters (IUGG), the constant used by the paper's
/// haversine implementation.
inline constexpr double kEarthRadiusMeters = 6371000.0;

/// Degrees → radians.
constexpr double DegToRad(double deg) { return deg * (M_PI / 180.0); }

/// Radians → degrees.
constexpr double RadToDeg(double rad) { return rad * (180.0 / M_PI); }

/// A WGS-84 geographic coordinate. Latitude in [-90, 90] degrees, longitude
/// in [-180, 180] degrees.
struct LatLon {
  double lat_deg = 0.0;
  double lon_deg = 0.0;

  friend bool operator==(const LatLon& a, const LatLon& b) {
    return a.lat_deg == b.lat_deg && a.lon_deg == b.lon_deg;
  }
};

/// True iff the coordinate is inside the valid WGS-84 ranges and finite.
bool IsValid(const LatLon& p);

/// Great-circle distance between two coordinates in meters using the
/// haversine formula (the formula named in §3.2 of the paper).
double HaversineMeters(const LatLon& a, const LatLon& b);

/// Initial bearing (forward azimuth) from `a` to `b` in degrees, normalized
/// to [0, 360). Bearing from a point to itself is defined as 0.
double InitialBearingDeg(const LatLon& a, const LatLon& b);

/// Sine and cosine of a coordinate's latitude: the part of
/// DistanceAndBearing that depends on one fix only, so a run of fixes
/// computes it once per fix instead of once per pair side.
struct LatitudeTrig {
  double sin_lat = 0.0;
  double cos_lat = 1.0;
};

/// sin and cos of DegToRad(p.lat_deg).
LatitudeTrig LatitudeTrigOf(const LatLon& p);

/// Distance in meters and initial bearing in degrees of one pair of fixes.
struct DistanceBearing {
  double distance_m = 0.0;
  double bearing_deg = 0.0;
};

/// HaversineMeters(a, b) and InitialBearingDeg(a, b) bit for bit, given
/// `ta` = LatitudeTrigOf(a) and `tb` = LatitudeTrigOf(b): the distance is
/// HaversineMeters' own formula fed the cached cosines, and the bearing
/// makes InitialBearingDeg's libm calls on the same arguments, with the
/// four latitude terms shared.
DistanceBearing DistanceAndBearing(const LatLon& a, const LatitudeTrig& ta,
                                   const LatLon& b, const LatitudeTrig& tb);

/// Solves the direct geodesy problem on the sphere: the point reached by
/// travelling `distance_m` meters from `origin` along `bearing_deg`.
LatLon Destination(const LatLon& origin, double bearing_deg,
                   double distance_m);

/// Normalizes an angle to [0, 360).
double NormalizeBearingDeg(double bearing_deg);

/// Signed smallest difference between two bearings, in (-180, 180]. Positive
/// means `b` is clockwise of `a`.
double BearingDifferenceDeg(double a_deg, double b_deg);

/// Local tangent-plane (ENU) projection anchored at a reference coordinate;
/// adequate for city-scale trajectories. Used by the synthetic generator to
/// move in meters and convert back to latitude/longitude.
class EnuProjector {
 public:
  /// Anchors the plane at `reference`.
  explicit EnuProjector(const LatLon& reference);

  /// Geographic → local (east, north) meters.
  void Forward(const LatLon& p, double* east_m, double* north_m) const;

  /// Local (east, north) meters → geographic.
  LatLon Backward(double east_m, double north_m) const;

  const LatLon& reference() const { return reference_; }

 private:
  LatLon reference_;
  double cos_ref_lat_;
};

/// Axis-aligned geographic bounding box.
struct BoundingBox {
  double min_lat = 90.0;
  double max_lat = -90.0;
  double min_lon = 180.0;
  double max_lon = -180.0;

  /// Expands the box to include `p`.
  void Extend(const LatLon& p);

  /// True iff at least one point was added.
  bool IsInitialized() const { return min_lat <= max_lat; }
};

}  // namespace trajkit::geo

#endif  // TRAJKIT_GEO_GEODESY_H_
