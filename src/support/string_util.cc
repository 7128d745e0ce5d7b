#include "src/support/string_util.h"

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

}  // namespace spacefusion
