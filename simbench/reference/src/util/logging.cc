#include "util/logging.h"

#include <cstdio>

namespace coserve {

namespace {

LogLevel gLevel = LogLevel::Warn;

} // namespace

void
setLogLevel(LogLevel level)
{
    gLevel = level;
}

LogLevel
logLevel()
{
    return gLevel;
}

namespace detail {

void
emit(LogLevel level, const std::string &tag, const std::string &msg)
{
    if (level > gLevel)
        return;
    std::fprintf(stderr, "[coserve:%s] %s\n", tag.c_str(), msg.c_str());
}

} // namespace detail

} // namespace coserve
