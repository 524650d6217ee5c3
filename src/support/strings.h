#ifndef OVERLAP_SUPPORT_STRINGS_H_
#define OVERLAP_SUPPORT_STRINGS_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace overlap {

/** Joins the elements of `items` with `sep`, using operator<< to format. */
template <typename Container>
std::string
StrJoin(const Container& items, const std::string& sep)
{
    std::ostringstream out;
    bool first = true;
    for (const auto& item : items) {
        if (!first) out << sep;
        out << item;
        first = false;
    }
    return out.str();
}

/**
 * Concatenates all arguments using operator<< formatting. Builds one
 * std::ostringstream per call, so it stays off per-instruction paths
 * (messages, dumps and reports only).
 */
template <typename... Args>
std::string
StrCat(const Args&... args)
{
    std::ostringstream out;
    (out << ... << args);
    return out.str();
}

/** Splits `text` on `sep`, keeping empty fields. */
std::vector<std::string> StrSplit(const std::string& text, char sep);

/** Parses the whole of `text` as a decimal integer, or nothing. */
template <typename T>
std::optional<T>
ParseWhole(const char* text)
{
    T value{};
    const char* end = text + std::strlen(text);
    auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end || ptr == text) return std::nullopt;
    return value;
}

/**
 * Parses the value of command-line flag `flag` as a whole decimal
 * integer of at least `min_value`; reports a malformed one ("abc",
 * "4x", "0" for a count) on stderr and returns nothing, so a tool
 * exits instead of running with a truncated or defaulted value.
 */
template <typename T>
std::optional<T>
ParseFlag(const std::string& flag, const char* text, T min_value)
{
    std::optional<T> value = ParseWhole<T>(text);
    if (!value || *value < min_value) {
        std::fprintf(stderr, "%s\n",
                     StrCat(flag, " needs an integer >= ", min_value,
                            ", got '", text, "'")
                         .c_str());
        return std::nullopt;
    }
    return value;
}

/**
 * Backslash-escapes the quotes and backslashes in `text` for a JSON
 * string literal (enough for the instruction, pass and device names the
 * reports and traces emit).
 */
std::string JsonEscape(const std::string& text);

/** Formats a byte count with an SI suffix, e.g. "1.50 GB". */
std::string HumanBytes(double bytes);

/** Formats a duration in seconds, e.g. "1.23 ms". */
std::string HumanTime(double seconds);

/** Formats a FLOP count, e.g. "2.40 TFLOP". */
std::string HumanFlops(double flops);

}  // namespace overlap

#endif  // OVERLAP_SUPPORT_STRINGS_H_
