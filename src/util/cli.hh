/**
 * @file
 * Tiny argument-parsing helpers shared by the CLI binaries
 * (sonic_fleet, sonic_sweep, sonic_plan, sonic_oracle, sonic_zoo, ...).
 * Header-only.
 */

#ifndef SONIC_UTIL_CLI_HH
#define SONIC_UTIL_CLI_HH

#include <charconv>
#include <cmath>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "util/fmt.hh"
#include "util/types.hh"

namespace sonic::cli
{

/** Match `--name=value`; on match store the value and return true. */
inline bool
consumeFlag(const std::string &arg, const char *name, std::string *out)
{
    const std::string prefix = std::string(name) + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    *out = arg.substr(prefix.size());
    return true;
}

/** Split a comma-separated list, dropping empty parts. */
inline std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> parts;
    std::istringstream is(s);
    std::string part;
    while (std::getline(is, part, ','))
        if (!part.empty())
            parts.push_back(part);
    return parts;
}

/**
 * Parse a numeric flag value that must be exactly one number in
 * [lo, hi]. Rejects an empty value, leading whitespace or '+', a '-'
 * on an unsigned type, trailing characters, overflow and, for floating
 * point, NaN and infinities — nothing is truncated or wrapped. On
 * failure returns nullopt and, when error is non-null, sets a one-line
 * diagnostic naming the flag, the accepted range and the value given.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view flag, std::string_view text, T lo, T hi,
            std::string *error = nullptr)
{
    static_assert(std::is_arithmetic_v<T>);
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    bool ok = ec == std::errc() && ptr == end && lo <= value
              && value <= hi;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value);
    if (ok)
        return value;
    if (error != nullptr) {
        const auto show = [](T v) {
            if constexpr (std::is_floating_point_v<T>)
                return fmtF64(static_cast<f64>(v));
            else
                return std::to_string(v);
        };
        *error = std::string(flag) + " expects "
               + (std::is_floating_point_v<T> ? "a finite number"
                                              : "an integer")
               + " in [" + show(lo) + ", " + show(hi) + "], got '"
               + std::string(text) + "'";
    }
    return std::nullopt;
}

/**
 * parseNumber() for a CLI flag: store the value in *out, or print the
 * diagnostic to stderr and return false (the caller exits 2).
 */
template <typename T>
bool
numberFlag(std::string_view flag, std::string_view text, T lo, T hi,
           T *out)
{
    std::string error;
    const auto parsed = parseNumber(flag, text, lo, hi, &error);
    if (!parsed) {
        std::cerr << error << "\n";
        return false;
    }
    *out = *parsed;
    return true;
}

/** --threads cap shared by the CLIs (0 = hardware concurrency): every
 * worker is an OS thread. */
inline constexpr u32 kMaxThreads = 1024;

/** Fleet --horizon bounds (sonic_fleet, sonic_plan): a millisecond to
 * about 31.7 years. */
inline constexpr f64 kMinHorizonSeconds = 1e-3;
inline constexpr f64 kMaxHorizonSeconds = 1e9;

} // namespace sonic::cli

#endif // SONIC_UTIL_CLI_HH
