#include "viz/digraph.hpp"

#include <sstream>

namespace logpc::viz {

namespace {

std::string vertex_name(const bcast::BlockDigraph& g, int v) {
  const int label = g.labels[static_cast<std::size_t>(v)];
  if (label < 0) return "source";
  if (v == g.receive_only_vertex) return "[0] (recv-only)";
  std::string out = "[";
  out += std::to_string(label);
  out += "] (block ";
  out += std::to_string(v);
  out += ")";
  return out;
}

}  // namespace

std::string render_digraph(const bcast::BlockDigraph& g) {
  std::ostringstream os;
  for (int v = 0; v < static_cast<int>(g.labels.size()); ++v) {
    os << vertex_name(g, v);
    bool first = true;
    for (const auto& e : g.edges) {
      if (e.from != v) continue;
      os << (first ? "  " : ",") << (e.active ? " ==> " : " -> ")
         << "[" << g.labels[static_cast<std::size_t>(e.to)] << "]";
      if (e.to == g.receive_only_vertex) os << "(recv-only)";
      else if (g.labels[static_cast<std::size_t>(e.to)] >= 0) {
        os << "(block " << e.to << ")";
      }
      if (e.weight != 1) os << " x" << e.weight;
      first = false;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace logpc::viz
