#include "logp/params.hpp"

#include <charconv>
#include <ostream>
#include <stdexcept>

namespace logpc {

void Params::require_valid() const {
  if (!valid()) {
    throw std::invalid_argument("invalid LogP parameters: " + to_string());
  }
}

std::string Params::to_string() const {
  // Built with appends, not a stream: every plan-cache miss formats it.
  std::string out = "LogP(P=";
  char buf[24];
  const auto num = [&out, &buf](auto v) {
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  num(P);
  out += ", L=";
  num(L);
  out += ", o=";
  num(o);
  out += ", g=";
  num(g);
  out += ")";
  return out;
}

std::ostream& operator<<(std::ostream& os, const Params& p) {
  return os << p.to_string();
}

}  // namespace logpc
