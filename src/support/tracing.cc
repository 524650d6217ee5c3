#include "support/tracing.h"

#include <chrono>

namespace overlap {

double
NowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace overlap
