// Strict numeric flag values for the command-line tools.
//
// std::atoi / std::atof accept anything: "abc" reads as 0 and "-1" cast
// to size_t becomes SIZE_MAX. ParseFlagValue instead requires the WHOLE
// token to parse (std::from_chars: no sign on unsigned types, no
// whitespace, no trailing characters) and the value to lie in [lo, hi].
// On failure it names the flag on stderr and returns false, so a tool can
// exit 2 before it loads input or starts a thread.
#ifndef TDB_TOOLS_CLI_FLAGS_H_
#define TDB_TOOLS_CLI_FLAGS_H_

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>

namespace tdb {

/// T is deduced from `out` alone, so literal bounds convert to it.
template <typename T>
bool ParseFlagValue(const std::string& flag, const char* text,
                    std::type_identity_t<T> lo, std::type_identity_t<T> hi,
                    T* out) {
  static_assert(std::is_arithmetic_v<T>);
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  // Written as !(in range) so a parsed NaN is rejected too.
  if (text == end || ec != std::errc() || ptr != end ||
      !(value >= lo && value <= hi)) {
    if constexpr (std::is_floating_point_v<T>) {
      std::fprintf(stderr,
                   "invalid value for %s: '%s' (expected a number in "
                   "[%g, %g])\n",
                   flag.c_str(), text, static_cast<double>(lo),
                   static_cast<double>(hi));
    } else {
      std::fprintf(stderr,
                   "invalid value for %s: '%s' (expected an integer in "
                   "[%s, %s])\n",
                   flag.c_str(), text, std::to_string(lo).c_str(),
                   std::to_string(hi).c_str());
    }
    return false;
  }
  *out = value;
  return true;
}

}  // namespace tdb

#endif  // TDB_TOOLS_CLI_FLAGS_H_
