#include "sum/lazy.hpp"

#include <algorithm>
#include <string>

namespace logpc::sum {

namespace {

using validate::CheckResult;
using validate::Rule;
using validate::Violation;

void add(CheckResult& r, Rule rule, std::string detail) {
  r.violations.push_back(Violation{rule, std::move(detail)});
}

std::string P(ProcId p) {
  std::string out = "P";
  out += std::to_string(p);
  return out;
}

}  // namespace

validate::CheckResult check_plan(const SummationPlan& plan) {
  CheckResult result;
  const Time o = plan.params.o;
  const Time g = plan.params.g;
  const Time L = plan.params.L;
  const auto n = plan.procs.size();

  // Index plans by processor for cross-referencing.
  std::vector<const ProcPlan*> by_proc(static_cast<std::size_t>(plan.params.P),
                                       nullptr);
  int roots = 0;
  for (const auto& pp : plan.procs) {
    if (pp.proc < 0 || pp.proc >= plan.params.P) {
      add(result, Rule::kBadProcessor, P(pp.proc));
      return result;
    }
    if (by_proc[static_cast<std::size_t>(pp.proc)] != nullptr) {
      add(result, Rule::kBadProcessor, P(pp.proc) + " appears twice");
      return result;
    }
    by_proc[static_cast<std::size_t>(pp.proc)] = &pp;
    if (pp.send_to == kNoProc) {
      ++roots;
      if (pp.proc != plan.root) {
        add(result, Rule::kBadProcessor,
            P(pp.proc) + " has no parent but is not the root");
      }
      if (pp.send_time != plan.t) {
        add(result, Rule::kLatency,
            "root finishes at " + std::to_string(pp.send_time) + " != t=" +
                std::to_string(plan.t));
      }
    }
  }
  if (roots != 1) {
    add(result, Rule::kBadProcessor,
        std::to_string(roots) + " roots (expected 1)");
  }

  Count total = 0;
  for (const auto& pp : plan.procs) {
    const auto k = static_cast<Time>(pp.recv_times.size());
    // Local operand count must be positive.
    if (pp.send_time < (o + 1) * k) {
      add(result, Rule::kItemNotHeld,
          P(pp.proc) + " has negative local operand count");
      continue;
    }
    total = sat_add(total, pp.local_operands(o));
    // Receptions chronological, spaced >= g, and lazy: reception j of k
    // starts exactly at S - (o+1) - (k-1-j)g for j = 0..k-1 (chronological).
    for (Time j = 0; j < k; ++j) {
      const Time expected =
          pp.send_time - (o + 1) - (k - 1 - j) * g;
      const Time actual = pp.recv_times[static_cast<std::size_t>(j)];
      if (actual != expected) {
        add(result, Rule::kRecvGap,
            P(pp.proc) + " reception " + std::to_string(j) + " at " +
                std::to_string(actual) + ", lazy position is " +
                std::to_string(expected));
      }
      if (actual < 0) {
        add(result, Rule::kLatency,
            P(pp.proc) + " reception before cycle 0");
      }
    }
    // Message consistency: each reception's sender must exist, name this
    // processor as its parent, and have sent exactly o+L before.
    if (pp.recv_from.size() != pp.recv_times.size()) {
      add(result, Rule::kBadProcessor,
          P(pp.proc) + " recv_from/recv_times size mismatch");
      continue;
    }
    for (std::size_t j = 0; j < pp.recv_from.size(); ++j) {
      const ProcId child = pp.recv_from[j];
      if (child < 0 || child >= plan.params.P ||
          by_proc[static_cast<std::size_t>(child)] == nullptr) {
        add(result, Rule::kBadProcessor,
            P(pp.proc) + " receives from unknown " + P(child));
        continue;
      }
      const ProcPlan& cp = *by_proc[static_cast<std::size_t>(child)];
      if (cp.send_to != pp.proc) {
        add(result, Rule::kBadProcessor,
            P(child) + " does not send to " + P(pp.proc));
      }
      if (cp.send_time + o + L != pp.recv_times[j]) {
        add(result, Rule::kLatency,
            P(child) + " sends at " + std::to_string(cp.send_time) +
                " but " + P(pp.proc) + " receives at " +
                std::to_string(pp.recv_times[j]));
      }
    }
  }
  if (total != plan.total_operands) {
    add(result, Rule::kBadItem,
        "total_operands=" + std::to_string(plan.total_operands) +
            " but per-processor counts sum to " + std::to_string(total));
  }
  (void)n;
  return result;
}

bool is_valid_plan(const SummationPlan& plan) {
  return check_plan(plan).ok();
}

}  // namespace logpc::sum
