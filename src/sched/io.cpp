#include "sched/io.hpp"

#include <sstream>
#include <stdexcept>

namespace logpc {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("schedule text, line " + std::to_string(line) +
                              ": " + what);
}

}  // namespace

void write_text(std::ostream& os, const Schedule& s) {
  Schedule sorted = s;
  sorted.sort();
  os << "logpc-schedule v1\n";
  os << "params " << sorted.params().P << " " << sorted.params().L << " "
     << sorted.params().o << " " << sorted.params().g << "\n";
  os << "items " << sorted.num_items() << "\n";
  for (const auto& init : sorted.initials()) {
    os << "init " << init.item << " " << init.proc << " " << init.time
       << "\n";
  }
  for (const auto& op : sorted.sends()) {
    os << "send " << op.start << " " << op.from << " " << op.to << " "
       << op.item;
    if (op.recv_start != kNever) os << " " << op.recv_start;
    os << "\n";
  }
}

std::string to_text(const Schedule& s) {
  std::ostringstream os;
  write_text(os, s);
  return os.str();
}

Schedule read_text(std::istream& is) {
  std::string line;
  std::size_t lineno = 0;
  auto next_line = [&]() -> bool {
    while (std::getline(is, line)) {
      ++lineno;
      const auto first = line.find_first_not_of(" \t");
      if (first == std::string::npos || line[first] == '#') continue;
      return true;
    }
    return false;
  };

  if (!next_line() || line != "logpc-schedule v1") {
    fail(lineno, "expected header 'logpc-schedule v1'");
  }
  if (!next_line()) fail(lineno, "missing params line");
  Params params;
  {
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag >> params.P >> params.L >> params.o >> params.g) ||
        tag != "params") {
      fail(lineno, "malformed params line");
    }
    if (!params.valid()) fail(lineno, "invalid LogP parameters");
  }
  if (!next_line()) fail(lineno, "missing items line");
  int num_items = 0;
  {
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag >> num_items) || tag != "items" || num_items < 1) {
      fail(lineno, "malformed items line");
    }
  }
  Schedule s(params, num_items);
  auto check_proc = [&](ProcId p) {
    if (p < 0 || p >= params.P) fail(lineno, "processor id out of range");
  };
  auto check_item = [&](ItemId i) {
    if (i < 0 || i >= num_items) fail(lineno, "item id out of range");
  };
  while (next_line()) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "init") {
      InitialPlacement init;
      if (!(ls >> init.item >> init.proc >> init.time)) {
        fail(lineno, "malformed init line");
      }
      check_proc(init.proc);
      check_item(init.item);
      s.add_initial(init.item, init.proc, init.time);
    } else if (tag == "send") {
      SendOp op;
      if (!(ls >> op.start >> op.from >> op.to >> op.item)) {
        fail(lineno, "malformed send line");
      }
      Time recv = kNever;
      if (ls >> recv) op.recv_start = recv;
      check_proc(op.from);
      check_proc(op.to);
      check_item(op.item);
      s.add_send(op);
    } else {
      fail(lineno, "unknown record '" + tag + "'");
    }
  }
  s.sort();
  return s;
}

Schedule schedule_from_text(const std::string& text) {
  std::istringstream is(text);
  return read_text(is);
}

}  // namespace logpc
