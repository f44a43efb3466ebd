// StreamLoader: virtual time.
//
// The entire system is event-driven over a virtual clock so that runs are
// deterministic, seedable and much faster than wall-clock time. Timestamps
// are milliseconds since the Unix epoch; durations are milliseconds.

#ifndef STREAMLOADER_UTIL_CLOCK_H_
#define STREAMLOADER_UTIL_CLOCK_H_

#include <cstdint>
#include <string>

namespace sl {

/// Milliseconds since the Unix epoch (virtual).
using Timestamp = int64_t;

/// A span of virtual time in milliseconds.
using Duration = int64_t;

/// Common duration constants, in milliseconds.
namespace duration {
inline constexpr Duration kMillisecond = 1;
inline constexpr Duration kSecond = 1000;
inline constexpr Duration kMinute = 60 * kSecond;
inline constexpr Duration kHour = 60 * kMinute;
inline constexpr Duration kDay = 24 * kHour;
}  // namespace duration

/// \brief Appends `ts` as "YYYY-MM-DDTHH:MM:SS.mmmZ" (UTC) to `out`. The
/// year is printed as printf's "%04d" prints it: year -1 as "-001",
/// year 10000 as "10000".
void AppendTimestamp(Timestamp ts, std::string* out);

/// \brief Formats a timestamp as AppendTimestamp does.
std::string FormatTimestamp(Timestamp ts);

/// \brief Parses "YYYY-MM-DD[THH:MM[:SS[.mmm]]][Z]" into a Timestamp.
/// Returns false when the text does not match the pattern or encodes an
/// impossible date (e.g. month 13, February 30th).
bool ParseTimestamp(const std::string& text, Timestamp* out);

/// \brief Formats a duration compactly and losslessly, e.g. "1.5s",
/// "250ms", "2m", "3h" (ParseDuration inverts it exactly).
std::string FormatDuration(Duration d);

/// \brief Parses a duration like "500ms", "1.5s", "2m", "1h" or a bare
/// number of milliseconds; unlike granularities, zero is allowed.
bool ParseDuration(const std::string& text, Duration* out);

/// \brief A monotonically advancing virtual clock.
///
/// Owned by the event loop; everything else reads it. Advancing backwards
/// is an internal error and is ignored.
class VirtualClock {
 public:
  /// Creates a clock starting at `start` (defaults to the epoch).
  explicit VirtualClock(Timestamp start = 0) : now_(start) {}

  /// Current virtual time.
  Timestamp Now() const { return now_; }

  /// Advances to `t` if it is in the future; otherwise keeps the current
  /// time (the clock never moves backwards).
  void AdvanceTo(Timestamp t) {
    if (t > now_) now_ = t;
  }

  /// Advances by a non-negative duration.
  void AdvanceBy(Duration d) {
    if (d > 0) now_ += d;
  }

 private:
  Timestamp now_;
};

}  // namespace sl

#endif  // STREAMLOADER_UTIL_CLOCK_H_
