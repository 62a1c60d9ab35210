/**
 * @file
 * String/number formatting helpers shared by reports and benches.
 */

#ifndef COSERVE_UTIL_STRUTIL_H
#define COSERVE_UTIL_STRUTIL_H

#include <cstdint>
#include <string>

namespace coserve {

/** Render a byte count with binary units, e.g. "1.50 GiB". */
std::string formatBytes(std::int64_t bytes);

/** Render a double with fixed @p digits decimals. */
std::string formatDouble(double x, int digits = 2);

/** Render "x.yz%" from a fraction in [0, 1]. */
std::string formatPercent(double fraction, int digits = 1);

} // namespace coserve

#endif // COSERVE_UTIL_STRUTIL_H
