/**
 * @file
 * Minimal logging / error-reporting facility in the spirit of gem5's
 * base/logging.hh.
 *
 *  - inform(): normal status messages.
 *  - warn():   suspicious but survivable conditions.
 *  - fatal():  unrecoverable *user* error (bad configuration); exits.
 *  - panic():  unrecoverable *internal* error (a CoServe bug); aborts.
 */

#ifndef COSERVE_UTIL_LOGGING_H
#define COSERVE_UTIL_LOGGING_H

#include <cstdlib>
#include <sstream>
#include <string>

namespace coserve {

/** Verbosity levels for runtime log filtering. */
enum class LogLevel { Silent = 0, Warn = 1, Info = 2, Debug = 3 };

/** Set the global log verbosity (default: Warn). */
void setLogLevel(LogLevel level);

/** @return the current global log verbosity. */
LogLevel logLevel();

namespace detail {

/** Emit one log record to stderr if @p level passes the global filter. */
void emit(LogLevel level, const std::string &tag, const std::string &msg);

/** Concatenate arbitrary streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/** Informative message; users should know but not worry. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::emit(LogLevel::Info, "info",
                 detail::concat(std::forward<Args>(args)...));
}

/** Debug-level message, compiled in but filtered by default. */
template <typename... Args>
void
debugLog(Args &&...args)
{
    detail::emit(LogLevel::Debug, "debug",
                 detail::concat(std::forward<Args>(args)...));
}

/** Something looks wrong but the run can continue. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emit(LogLevel::Warn, "warn",
                 detail::concat(std::forward<Args>(args)...));
}

/** Unrecoverable user error (bad config / arguments): print and exit(1). */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::emit(LogLevel::Silent, "fatal",
                 detail::concat(std::forward<Args>(args)...));
    std::exit(1);
}

/** Unrecoverable internal error (a bug): print and abort(). */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::emit(LogLevel::Silent, "panic",
                 detail::concat(std::forward<Args>(args)...));
    std::abort();
}

/** Assert-like check that survives NDEBUG; panics with a message. */
#define COSERVE_CHECK(cond, ...)                                          \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::coserve::panic("check failed: ", #cond, ": ",               \
                             ::coserve::detail::concat(__VA_ARGS__),      \
                             " (", __FILE__, ":", __LINE__, ")");         \
        }                                                                 \
    } while (0)

} // namespace coserve

#endif // COSERVE_UTIL_LOGGING_H
