#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

/// \file json.hpp
/// Minimal JSON emission helpers shared by the telemetry exporters
/// (obs/chrome_trace.hpp) and the bench report writer (bench/bench_util.hpp).
/// Emission only — parsing stays out of the library (the tests carry their
/// own validator).

namespace logpc::obs {

/// `s` with every character JSON cannot hold raw escaped (quotes,
/// backslash, control characters).  Returns the escaped body only; the
/// caller adds the surrounding quotes.
[[nodiscard]] inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `s` as a quoted JSON string literal.
[[nodiscard]] inline std::string json_string(std::string_view s) {
  std::string out(1, '"');
  out += json_escape(s);
  out += '"';
  return out;
}

/// A finite double as a JSON number ("%.17g" keeps round-trips exact);
/// NaN/Inf — which JSON cannot express — become null.
[[nodiscard]] inline std::string json_number(double v) {
  if (!(v == v) || v > 1.7976931348623157e308 || v < -1.7976931348623157e308) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace logpc::obs
