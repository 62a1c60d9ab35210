/**
 * @file
 * Virtual time representation for the CoServe discrete-event core.
 *
 * All simulated time is kept as a signed 64-bit count of nanoseconds so
 * that event ordering is exact and runs are bit-reproducible across
 * platforms. Helper literals/constructors convert from human units.
 */

#ifndef COSERVE_UTIL_TIME_H
#define COSERVE_UTIL_TIME_H

#include <cstdint>
#include <string>

namespace coserve {

/** Virtual timestamp / duration in nanoseconds. */
using Time = std::int64_t;

/** Sentinel for "no deadline / unset". */
inline constexpr Time kTimeNever = INT64_MAX;

/** Construct a duration from nanoseconds (identity; for readability). */
constexpr Time nanoseconds(std::int64_t ns) { return ns; }

/** Construct a duration from microseconds. */
constexpr Time microseconds(double us)
{
    return static_cast<Time>(us * 1e3);
}

/** Construct a duration from milliseconds. */
constexpr Time milliseconds(double ms)
{
    return static_cast<Time>(ms * 1e6);
}

/** Construct a duration from seconds. */
constexpr Time seconds(double s)
{
    return static_cast<Time>(s * 1e9);
}

/** Convert a duration to (fractional) milliseconds. */
constexpr double toMilliseconds(Time t) { return static_cast<double>(t) / 1e6; }

/** Convert a duration to (fractional) seconds. */
constexpr double toSeconds(Time t) { return static_cast<double>(t) / 1e9; }

/**
 * Render a duration with an auto-selected unit, e.g. "3.21 ms".
 *
 * @param t duration in nanoseconds.
 * @return human-readable string.
 */
std::string formatTime(Time t);

} // namespace coserve

#endif // COSERVE_UTIL_TIME_H
