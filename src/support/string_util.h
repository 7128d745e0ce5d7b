// String formatting helpers used for diagnostics and bench output.
#ifndef SPACEFUSION_SRC_SUPPORT_STRING_UTIL_H_
#define SPACEFUSION_SRC_SUPPORT_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace spacefusion {

// Concatenates any streamable arguments into one string.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream out;
  ((out << args), ...);  // a comma fold: StrCat() is well-formed and warning-free
  return out.str();
}

// Joins container elements with a separator; each element must be streamable.
template <typename Container>
std::string StrJoin(const Container& parts, const std::string& sep) {
  std::ostringstream out;
  bool first = true;
  for (const auto& part : parts) {
    if (!first) {
      out << sep;
    }
    out << part;
    first = false;
  }
  return out.str();
}

// Splits a string on a single-character delimiter; empty pieces are kept.
std::vector<std::string> StrSplit(const std::string& text, char delim);

// True if `text` starts with `prefix`.
bool StartsWith(const std::string& text, const std::string& prefix);

// `text` with ASCII letters lowercased (for case-insensitive name lookups).
std::string ToLower(std::string text);

// `text` as a positive decimal integer that fits in int64: digits only, with
// no sign, space, exponent or suffix. nullopt for anything else, 0 included.
std::optional<std::int64_t> ParsePositiveInt(const std::string& text);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_SUPPORT_STRING_UTIL_H_
