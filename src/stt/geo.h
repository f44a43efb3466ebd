// StreamLoader: geometry and coordinate reference systems.
//
// Sensor data arrives in heterogeneous coordinate standards (§2: "changing
// geographical coordinates from one standard to another one"). The model
// CRS is WGS84 latitude/longitude in decimal degrees; conversions to and
// from Web Mercator metric coordinates and the legacy Tokyo datum are
// provided for reconciling sources.

#ifndef STREAMLOADER_STT_GEO_H_
#define STREAMLOADER_STT_GEO_H_

#include <string>

#include "util/result.h"

namespace sl::stt {

/// Coordinate reference systems StreamLoader can reconcile.
enum class Crs {
  kWgs84,        ///< latitude / longitude, decimal degrees (model CRS)
  kWebMercator,  ///< EPSG:3857 x/y meters
  kTokyoDatum,   ///< legacy Japanese geodetic datum lat/lon degrees
};

const char* CrsToString(Crs crs);
Result<Crs> CrsFromString(const std::string& name);

/// \brief A geographic point. Interpretation of the two coordinates
/// depends on the CRS; the canonical in-model form is WGS84 degrees with
/// `lat` in [-90, 90] and `lon` in [-180, 180].
struct GeoPoint {
  double lat = 0.0;  ///< latitude (deg) or y (m) depending on CRS
  double lon = 0.0;  ///< longitude (deg) or x (m) depending on CRS

  bool operator==(const GeoPoint& o) const {
    return lat == o.lat && lon == o.lon;
  }
  /// Appends "(lat, lon)", each coordinate as AppendCoordinate writes it.
  void AppendTo(std::string* out) const;
  std::string ToString() const;
};

/// \brief Appends a coordinate as printf's "%.6f" prints it (6 decimals,
/// "nan"/"inf" spelled as printf spells them), without the locale.
void AppendCoordinate(double value, std::string* out);

/// \brief An axis-aligned bounding box in WGS84 degrees; `lo` is the
/// south-west corner, `hi` the north-east corner.
struct BBox {
  GeoPoint lo;
  GeoPoint hi;

  /// True iff `p` lies inside the box (borders inclusive).
  bool Contains(const GeoPoint& p) const {
    return p.lat >= lo.lat && p.lat <= hi.lat && p.lon >= lo.lon &&
           p.lon <= hi.lon;
  }

  /// True iff the two boxes overlap (touching counts).
  bool Intersects(const BBox& o) const {
    return lo.lat <= o.hi.lat && hi.lat >= o.lo.lat && lo.lon <= o.hi.lon &&
           hi.lon >= o.lo.lon;
  }

  /// True iff lo <= hi on both axes.
  bool IsValid() const { return lo.lat <= hi.lat && lo.lon <= hi.lon; }

  bool operator==(const BBox&) const = default;
  std::string ToString() const;
};

/// \brief Normalizes the corners of a box given as two arbitrary opposite
/// corners (the Cull Space operator accepts ⟨coord1, coord2⟩ in any
/// order).
BBox NormalizeBBox(const GeoPoint& a, const GeoPoint& b);

/// \brief Great-circle distance between two WGS84 points, in meters
/// (haversine on a spherical earth, R = 6371.0088 km).
double HaversineMeters(const GeoPoint& a, const GeoPoint& b);

/// \brief Converts a point between coordinate reference systems.
///
/// WGS84 <-> Web Mercator uses the spherical-mercator equations (latitude
/// clamped to ±85.051129°); WGS84 <-> Tokyo datum uses the standard
/// three-parameter Molodensky approximation in its widely used
/// closed-form degree version (≈ meter-level accuracy, adequate for
/// sensor reconciliation).
Result<GeoPoint> ConvertCrs(const GeoPoint& p, Crs from, Crs to);

}  // namespace sl::stt

#endif  // STREAMLOADER_STT_GEO_H_
