// Minimal JSON text helpers for the result, trace and layer files.
#ifndef RFIDBENCH_JSON_H_
#define RFIDBENCH_JSON_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace rfidbench {

inline std::string JsonStr(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Shortest text that reads back as the same double: values are printed
/// as measured, never rounded to a display precision.
inline std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace rfidbench

#endif  // RFIDBENCH_JSON_H_
