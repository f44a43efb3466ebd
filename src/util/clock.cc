#include "util/clock.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace sl {

namespace {

constexpr int kDaysPerMonth[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

bool IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int DaysInMonth(int year, int month) {
  if (month == 2 && IsLeapYear(year)) return 29;
  return kDaysPerMonth[month - 1];
}

// Days since 1970-01-01 for a (validated) civil date. Howard Hinnant's
// algorithm, restricted to years >= 1.
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y, int* m, int* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  *m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  *y = static_cast<int>(yy + (*m <= 2));
}

// Writes `v` in decimal, zero-padded to `width` digits (printf's
// "%0<width>u"), and returns the end of what it wrote.
char* PutPadded(char* p, uint32_t v, int width) {
  char digits[10];
  char* end = std::to_chars(digits, digits + sizeof(digits), v).ptr;
  for (int n = width - static_cast<int>(end - digits); n > 0; --n) *p++ = '0';
  return std::copy(digits, end, p);
}

}  // namespace

void AppendTimestamp(Timestamp ts, std::string* out) {
  int64_t ms = ts % 1000;
  int64_t secs = ts / 1000;
  if (ms < 0) {
    ms += 1000;
    secs -= 1;
  }
  int64_t days = secs / 86400;
  int64_t sod = secs % 86400;
  if (sod < 0) {
    sod += 86400;
    days -= 1;
  }
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  // Longest form: an 11-character year ("-2147483648") + 20 more.
  char buf[32];
  char* p = buf;
  if (y < 0) *p++ = '-';
  const uint32_t abs_year = y < 0 ? 0u - static_cast<uint32_t>(y)
                                  : static_cast<uint32_t>(y);
  p = PutPadded(p, abs_year, y < 0 ? 3 : 4);  // "%04d": the sign counts
  *p++ = '-';
  p = PutPadded(p, static_cast<uint32_t>(m), 2);
  *p++ = '-';
  p = PutPadded(p, static_cast<uint32_t>(d), 2);
  *p++ = 'T';
  p = PutPadded(p, static_cast<uint32_t>(sod / 3600), 2);
  *p++ = ':';
  p = PutPadded(p, static_cast<uint32_t>(sod / 60 % 60), 2);
  *p++ = ':';
  p = PutPadded(p, static_cast<uint32_t>(sod % 60), 2);
  *p++ = '.';
  p = PutPadded(p, static_cast<uint32_t>(ms), 3);
  *p++ = 'Z';
  out->append(buf, p);
}

std::string FormatTimestamp(Timestamp ts) {
  std::string out;
  AppendTimestamp(ts, &out);
  return out;
}

bool ParseTimestamp(const std::string& text, Timestamp* out) {
  int y = 0, mo = 0, d = 0, h = 0, mi = 0, s = 0, ms = 0;
  const char* p = text.c_str();
  int n = 0;
  // The year may exceed 4 digits (distant-future timestamps round-trip).
  if (std::sscanf(p, "%9d-%2d-%2d%n", &y, &mo, &d, &n) != 3) return false;
  p += n;
  if (*p == 'T' || *p == ' ') {
    ++p;
    if (std::sscanf(p, "%2d:%2d%n", &h, &mi, &n) != 2) return false;
    p += n;
    if (*p == ':') {
      ++p;
      if (std::sscanf(p, "%2d%n", &s, &n) != 1) return false;
      p += n;
      if (*p == '.') {
        ++p;
        if (std::sscanf(p, "%3d%n", &ms, &n) != 1) return false;
        p += n;
      }
    }
  }
  if (*p == 'Z') ++p;
  if (*p != '\0') return false;
  if (y < 1 || mo < 1 || mo > 12 || d < 1 || d > DaysInMonth(y, mo))
    return false;
  if (h > 23 || mi > 59 || s > 59) return false;
  int64_t days = DaysFromCivil(y, mo, d);
  *out = ((days * 86400 + h * 3600 + mi * 60 + s) * 1000) + ms;
  return true;
}

std::string FormatDuration(Duration d) {
  // Lossless: the largest unit that divides the duration exactly (the
  // DSN serializer round-trips these strings). Half units keep the
  // common "1.5s" style readable and remain exact.
  char buf[48];
  const char* sign = d < 0 ? "-" : "";
  int64_t a = d < 0 ? -d : d;
  struct UnitDef {
    Duration scale;
    const char* suffix;
  };
  static constexpr UnitDef kUnits[] = {
      {duration::kDay, "d"},
      {duration::kHour, "h"},
      {duration::kMinute, "m"},
      {duration::kSecond, "s"},
  };
  for (const auto& u : kUnits) {
    if (a >= u.scale && a % u.scale == 0) {
      std::snprintf(buf, sizeof(buf), "%s%lld%s", sign,
                    static_cast<long long>(a / u.scale), u.suffix);
      return buf;
    }
    if (a >= u.scale && a % (u.scale / 2) == 0) {
      std::snprintf(buf, sizeof(buf), "%s%lld.5%s", sign,
                    static_cast<long long>(a / u.scale), u.suffix);
      return buf;
    }
  }
  std::snprintf(buf, sizeof(buf), "%s%lldms", sign,
                static_cast<long long>(a));
  return buf;
}

bool ParseDuration(const std::string& text, Duration* out) {
  const char* p = text.c_str();
  while (*p == ' ' || *p == '\t') ++p;
  bool negative = false;
  if (*p == '-') {
    negative = true;
    ++p;
  }
  char* end = nullptr;
  double value = std::strtod(p, &end);
  if (end == p || value < 0) return false;
  std::string unit;
  for (const char* q = end; *q; ++q) {
    if (*q != ' ' && *q != '\t') unit.push_back(*q);
  }
  double scale;
  if (unit.empty() || unit == "ms") scale = duration::kMillisecond;
  else if (unit == "s" || unit == "sec") scale = duration::kSecond;
  else if (unit == "m" || unit == "min") scale = duration::kMinute;
  else if (unit == "h" || unit == "hour") scale = duration::kHour;
  else if (unit == "d" || unit == "day") scale = duration::kDay;
  else return false;
  double ms = value * scale;
  if (ms != static_cast<double>(static_cast<Duration>(ms))) return false;
  *out = static_cast<Duration>(ms) * (negative ? -1 : 1);
  return true;
}

}  // namespace sl
