#include "util/logging.h"

#include <cstdio>

namespace coserve {

namespace detail {

void
emit(const std::string &tag, const std::string &msg)
{
    std::fprintf(stderr, "[coserve:%s] %s\n", tag.c_str(), msg.c_str());
}

} // namespace detail

} // namespace coserve
