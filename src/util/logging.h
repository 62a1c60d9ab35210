/**
 * @file
 * Minimal error-reporting facility in the spirit of gem5's
 * base/logging.hh.
 *
 *  - fatal():  unrecoverable *user* error (bad configuration); exits.
 *  - panic():  unrecoverable *internal* error (a CoServe bug); aborts.
 */

#ifndef COSERVE_UTIL_LOGGING_H
#define COSERVE_UTIL_LOGGING_H

#include <cstdlib>
#include <sstream>
#include <string>

namespace coserve {

namespace detail {

/** Write one tagged record to stderr. */
void emit(const std::string &tag, const std::string &msg);

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

/** Unrecoverable user error (bad config / arguments): print and exit(1). */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::emit("fatal", detail::concat(std::forward<Args>(args)...));
    std::exit(1);
}

/** Unrecoverable internal error (a bug): print and abort(). */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::emit("panic", detail::concat(std::forward<Args>(args)...));
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
