#include "src/support/string_util.h"

#include <charconv>

namespace spacefusion {

std::vector<std::string> StrSplit(const std::string& text, char delim) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    if (c == delim) {
      out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  out.push_back(current);
  return out;
}

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.size() >= prefix.size() && text.compare(0, prefix.size(), prefix) == 0;
}

std::string ToLower(std::string text) {
  for (char& c : text) {
    if (c >= 'A' && c <= 'Z') {
      c = static_cast<char>(c - 'A' + 'a');
    }
  }
  return text;
}

std::optional<std::int64_t> ParsePositiveInt(const std::string& text) {
  const char* const first = text.data();
  const char* const last = first + text.size();
  std::int64_t value = 0;
  // from_chars takes no '+' and no space; the checks reject '-', trailing
  // characters and out-of-range values.
  const std::from_chars_result parsed = std::from_chars(first, last, value);
  if (parsed.ec != std::errc() || parsed.ptr != last || value < 1) {
    return std::nullopt;
  }
  return value;
}

}  // namespace spacefusion
