#include "stt/geo.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "util/strings.h"

namespace sl::stt {

namespace {
constexpr double kEarthRadiusMeters = 6371008.8;
constexpr double kMercatorRadius = 6378137.0;  // WGS84 semi-major axis
constexpr double kMaxMercatorLat = 85.051128779806;
constexpr double kDegToRad = M_PI / 180.0;
constexpr double kRadToDeg = 180.0 / M_PI;
}  // namespace

const char* CrsToString(Crs crs) {
  switch (crs) {
    case Crs::kWgs84: return "WGS84";
    case Crs::kWebMercator: return "WebMercator";
    case Crs::kTokyoDatum: return "TokyoDatum";
  }
  return "?";
}

Result<Crs> CrsFromString(const std::string& name) {
  std::string n = ToLower(name);
  if (n == "wgs84" || n == "epsg:4326") return Crs::kWgs84;
  if (n == "webmercator" || n == "epsg:3857" || n == "mercator")
    return Crs::kWebMercator;
  if (n == "tokyodatum" || n == "tokyo") return Crs::kTokyoDatum;
  return Status::ParseError("unknown coordinate reference system '" + name + "'");
}

void AppendCoordinate(double value, std::string* out) {
  // Sign, the 309 integer digits of DBL_MAX, the point and 6 decimals.
  char buf[1 + 309 + 1 + 6];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::fixed, 6)
                       .ptr);
}

void GeoPoint::AppendTo(std::string* out) const {
  out->push_back('(');
  AppendCoordinate(lat, out);
  out->append(", ");
  AppendCoordinate(lon, out);
  out->push_back(')');
}

std::string GeoPoint::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

std::string BBox::ToString() const {
  return StrFormat("[%s, %s]", lo.ToString().c_str(), hi.ToString().c_str());
}

BBox NormalizeBBox(const GeoPoint& a, const GeoPoint& b) {
  BBox box;
  box.lo.lat = std::min(a.lat, b.lat);
  box.hi.lat = std::max(a.lat, b.lat);
  box.lo.lon = std::min(a.lon, b.lon);
  box.hi.lon = std::max(a.lon, b.lon);
  return box;
}

double HaversineMeters(const GeoPoint& a, const GeoPoint& b) {
  double phi1 = a.lat * kDegToRad;
  double phi2 = b.lat * kDegToRad;
  double dphi = (b.lat - a.lat) * kDegToRad;
  double dlam = (b.lon - a.lon) * kDegToRad;
  double s = std::sin(dphi / 2);
  double t = std::sin(dlam / 2);
  double h = s * s + std::cos(phi1) * std::cos(phi2) * t * t;
  h = std::min(1.0, h);
  return 2.0 * kEarthRadiusMeters * std::asin(std::sqrt(h));
}

namespace {

GeoPoint Wgs84ToMercator(const GeoPoint& p) {
  double lat = std::clamp(p.lat, -kMaxMercatorLat, kMaxMercatorLat);
  GeoPoint out;
  out.lon = kMercatorRadius * p.lon * kDegToRad;                     // x
  out.lat = kMercatorRadius * std::log(std::tan(M_PI / 4 + lat * kDegToRad / 2));  // y
  return out;
}

GeoPoint MercatorToWgs84(const GeoPoint& p) {
  GeoPoint out;
  out.lon = p.lon / kMercatorRadius * kRadToDeg;
  out.lat = (2 * std::atan(std::exp(p.lat / kMercatorRadius)) - M_PI / 2) *
            kRadToDeg;
  return out;
}

// Standard closed-form degree conversion between Tokyo datum and WGS84
// (Japanese Geographical Survey Institute approximation).
GeoPoint TokyoToWgs84(const GeoPoint& p) {
  GeoPoint out;
  out.lat = p.lat - 0.00010695 * p.lat + 0.000017464 * p.lon + 0.0046017;
  out.lon = p.lon - 0.000046038 * p.lat - 0.000083043 * p.lon + 0.010040;
  return out;
}

GeoPoint Wgs84ToTokyo(const GeoPoint& p) {
  GeoPoint out;
  out.lat = p.lat + 0.00010696 * p.lat - 0.000017467 * p.lon - 0.0046020;
  out.lon = p.lon + 0.000046047 * p.lat + 0.000083049 * p.lon - 0.010041;
  return out;
}

bool ValidWgs84(const GeoPoint& p) {
  return p.lat >= -90.0 && p.lat <= 90.0 && p.lon >= -180.0 && p.lon <= 180.0;
}

}  // namespace

Result<GeoPoint> ConvertCrs(const GeoPoint& p, Crs from, Crs to) {
  if (!std::isfinite(p.lat) || !std::isfinite(p.lon)) {
    return Status::InvalidArgument("non-finite coordinates");
  }
  if (from == to) return p;
  // Route through WGS84.
  GeoPoint wgs = p;
  switch (from) {
    case Crs::kWgs84:
      if (!ValidWgs84(p)) {
        return Status::OutOfRange("WGS84 coordinates out of range: " +
                                  p.ToString());
      }
      break;
    case Crs::kWebMercator:
      wgs = MercatorToWgs84(p);
      break;
    case Crs::kTokyoDatum:
      if (!ValidWgs84(p)) {
        return Status::OutOfRange("Tokyo-datum coordinates out of range: " +
                                  p.ToString());
      }
      wgs = TokyoToWgs84(p);
      break;
  }
  switch (to) {
    case Crs::kWgs84:
      return wgs;
    case Crs::kWebMercator:
      return Wgs84ToMercator(wgs);
    case Crs::kTokyoDatum:
      return Wgs84ToTokyo(wgs);
  }
  return Status::Internal("unreachable CRS conversion");
}

}  // namespace sl::stt
