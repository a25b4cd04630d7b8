#include "viz/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <vector>

namespace logpc::viz {

std::string reception_table(const Schedule& s) {
  const Time span = s.makespan() + 1;
  const auto P = static_cast<std::size_t>(s.params().P);
  std::vector<std::vector<std::string>> cells(
      P, std::vector<std::string>(static_cast<std::size_t>(span)));
  for (const auto& init : s.initials()) {
    auto& cell = cells[static_cast<std::size_t>(init.proc)]
                      [static_cast<std::size_t>(init.time)];
    if (!cell.empty()) cell += ",";
    cell += "(";
    cell += std::to_string(init.item + 1);
    cell += ")";
  }
  for (const auto& op : s.sends()) {
    const Time at = s.available_at(op);
    const bool delayed =
        op.recv_start != kNever &&
        op.recv_start != op.start + s.params().o + s.params().L;
    auto& cell =
        cells[static_cast<std::size_t>(op.to)][static_cast<std::size_t>(at)];
    if (!cell.empty()) cell += ",";
    if (delayed) cell += "[";
    cell += std::to_string(op.item + 1);
    if (delayed) cell += "]";
  }
  std::size_t width = 2;
  for (const auto& row : cells) {
    for (const auto& cell : row) width = std::max(width, cell.size() + 1);
  }
  std::ostringstream os;
  os << "proc |";
  for (Time t = 0; t < span; ++t) {
    os << std::setw(static_cast<int>(width)) << t;
  }
  os << "\n-----+" << std::string(static_cast<std::size_t>(span) * width, '-')
     << "\n";
  for (std::size_t p = 0; p < P; ++p) {
    os << "P" << std::left << std::setw(3) << p << std::right << " |";
    for (Time t = 0; t < span; ++t) {
      os << std::setw(static_cast<int>(width))
         << cells[p][static_cast<std::size_t>(t)];
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace logpc::viz
