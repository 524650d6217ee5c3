#include "support/strings.h"

#include <array>
#include <cmath>
#include <cstdio>

namespace overlap {
namespace {

std::string
FormatScaled(double value, const char* const* suffixes, int count,
             double base, const char* unit)
{
    int idx = 0;
    double v = value;
    while (std::fabs(v) >= base && idx < count - 1) {
        v /= base;
        ++idx;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f %s%s", v, suffixes[idx], unit);
    return buf;
}

}  // namespace

std::vector<std::string>
StrSplit(const std::string& text, char sep)
{
    std::vector<std::string> parts;
    std::string current;
    for (char c : text) {
        if (c == sep) {
            parts.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    parts.push_back(current);
    return parts;
}

std::string
JsonEscape(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

std::string
HumanBytes(double bytes)
{
    static const char* kSuffixes[] = {"", "K", "M", "G", "T", "P"};
    return FormatScaled(bytes, kSuffixes, 6, 1024.0, "B");
}

std::string
HumanTime(double seconds)
{
    if (seconds >= 1.0) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.3f s", seconds);
        return buf;
    }
    if (seconds >= 1e-3) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.3f ms", seconds * 1e3);
        return buf;
    }
    if (seconds >= 1e-6) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.3f us", seconds * 1e6);
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f ns", seconds * 1e9);
    return buf;
}

std::string
HumanFlops(double flops)
{
    static const char* kSuffixes[] = {"", "K", "M", "G", "T", "P", "E"};
    return FormatScaled(flops, kSuffixes, 7, 1000.0, "FLOP");
}

}  // namespace overlap
