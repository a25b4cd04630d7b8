#include "validate/checker.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>

#include "sched/metrics.hpp"

namespace logpc::validate {

namespace {

/// Joins message pieces (strings, and numbers through std::to_string) by
/// appending to one std::string; "literal" + std::string chains trip a
/// false -Wrestrict in GCC 12's std::string at -O3.
template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::string out;
  const auto append = [&out](const auto& part) {
    if constexpr (std::is_arithmetic_v<std::decay_t<decltype(part)>>) {
      out += std::to_string(part);
    } else {
      out += part;
    }
  };
  (append(parts), ...);
  return out;
}

class Checker {
 public:
  Checker(const Schedule& s, const CheckOptions& opts) : s_(s), opts_(opts) {}

  CheckResult run() {
    if (!check_ids()) return std::move(result_);
    check_holdings();
    check_gaps_and_overheads();
    check_latency_and_buffers();
    if (opts_.forbid_duplicate_receive) check_duplicates();
    if (opts_.check_capacity) check_capacity();
    if (opts_.require_complete) check_completeness();
    return std::move(result_);
  }

 private:
  const Schedule& s_;
  const CheckOptions& opts_;
  CheckResult result_;
  bool truncated_ = false;

  bool add(Rule rule, std::string detail) {
    if (truncated_) return false;
    if (opts_.max_violations != 0 &&
        result_.violations.size() >= opts_.max_violations) {
      truncated_ = true;
      return false;
    }
    result_.violations.push_back(Violation{rule, std::move(detail)});
    return true;
  }

  static std::string op_str(const Schedule& s, const SendOp& op) {
    std::ostringstream os;
    os << "item " << op.item << " P" << op.from << "->P" << op.to << " @t="
       << op.start << " (recv " << s.recv_start(op) << ")";
    return os.str();
  }

  // Structural sanity; the remaining checks index by id, so bail out on
  // failure here.
  bool check_ids() {
    const int P = s_.params().P;
    const int K = s_.num_items();
    bool ok = true;
    for (const auto& init : s_.initials()) {
      if (init.proc < 0 || init.proc >= P) {
        add(Rule::kBadProcessor, cat("initial placement at P", init.proc));
        ok = false;
      }
      if (init.item < 0 || init.item >= K) {
        add(Rule::kBadItem, cat("initial placement of item ", init.item));
        ok = false;
      }
    }
    for (const auto& op : s_.sends()) {
      if (op.from < 0 || op.from >= P || op.to < 0 || op.to >= P) {
        add(Rule::kBadProcessor, op_str(s_, op));
        ok = false;
      }
      if (op.item < 0 || op.item >= K) {
        add(Rule::kBadItem, op_str(s_, op));
        ok = false;
      }
      if (op.from == op.to) {
        add(Rule::kSelfSend, op_str(s_, op));
        ok = false;
      }
    }
    return ok;
  }

  // Every send must be of an item its sender already holds.  Availability is
  // well-founded: an arrival strictly postdates its send start, so chains of
  // justification ground out in initial placements.
  void check_holdings() {
    const auto avail = availability_matrix(s_);
    for (const auto& op : s_.sends()) {
      const Time have = avail[static_cast<std::size_t>(op.item)]
                             [static_cast<std::size_t>(op.from)];
      if (have == kNever || have > op.start) {
        add(Rule::kItemNotHeld, op_str(s_, op));
      }
    }
  }

  void check_gaps_and_overheads() {
    const Time g = s_.params().g;
    const Time o = s_.params().o;
    const auto P = static_cast<std::size_t>(s_.params().P);
    std::vector<std::vector<Time>> sends(P), recvs(P);
    for (const auto& op : s_.sends()) {
      sends[static_cast<std::size_t>(op.from)].push_back(op.start);
      recvs[static_cast<std::size_t>(op.to)].push_back(s_.recv_start(op));
    }
    for (std::size_t p = 0; p < P; ++p) {
      std::sort(sends[p].begin(), sends[p].end());
      std::sort(recvs[p].begin(), recvs[p].end());
      for (std::size_t i = 1; i < sends[p].size(); ++i) {
        if (sends[p][i] - sends[p][i - 1] < g) {
          add(Rule::kSendGap, cat("P", p, " sends at t=", sends[p][i - 1],
                                  " and t=", sends[p][i]));
        }
      }
      for (std::size_t i = 1; i < recvs[p].size(); ++i) {
        if (recvs[p][i] - recvs[p][i - 1] < g) {
          add(Rule::kRecvGap, cat("P", p, " receives at t=", recvs[p][i - 1],
                                  " and t=", recvs[p][i]));
        }
      }
      if (o > 0 && !opts_.allow_duplex_overhead) {
        // Send and receive overheads both occupy the processor; they may
        // interleave but not overlap.
        for (const Time st : sends[p]) {
          for (const Time rt : recvs[p]) {
            if (st < rt + o && rt < st + o) {
              add(Rule::kOverheadOverlap,
                  cat("P", p, " send@", st, " vs recv@", rt));
            }
          }
        }
      }
    }
  }

  void check_latency_and_buffers() {
    const Time o = s_.params().o;
    const Time L = s_.params().L;
    // Buffer occupancy events per processor: +1 at arrival, -1 at receive.
    std::map<ProcId, std::vector<std::pair<Time, int>>> events;
    for (const auto& op : s_.sends()) {
      const Time arrival = op.start + o + L;
      const Time recv = s_.recv_start(op);
      if (!opts_.buffered) {
        if (recv != arrival) add(Rule::kLatency, op_str(s_, op));
      } else if (recv < arrival) {
        add(Rule::kLatency, op_str(s_, op) + " received before arrival");
      } else if (opts_.buffer_limit >= 0) {
        events[op.to].emplace_back(arrival, +1);
        events[op.to].emplace_back(recv, -1);
      }
    }
    if (opts_.buffered && opts_.buffer_limit >= 0) {
      for (auto& [proc, evs] : events) {
        // At equal times, drain before filling: a receive at t frees the
        // slot for an arrival at t.
        std::sort(evs.begin(), evs.end());
        int depth = 0;
        int worst = 0;
        for (const auto& [t, d] : evs) {
          depth += d;
          worst = std::max(worst, depth);
        }
        if (worst > opts_.buffer_limit) {
          add(Rule::kBufferOverflow,
              cat("P", proc, " holds ", worst, " buffered items (limit ",
                  opts_.buffer_limit, ")"));
        }
      }
    }
  }

  void check_duplicates() {
    std::set<std::pair<ProcId, ItemId>> seen;
    for (const auto& op : s_.sends()) {
      if (!seen.insert({op.to, op.item}).second) {
        add(Rule::kDuplicateReceive, op_str(s_, op));
      }
    }
  }

  // Sweep the wire intervals [start+o, start+o+L): at every instant, at most
  // ceil(L/g) messages may be in transit from any processor, and at most
  // that many to any processor.
  void check_capacity() {
    const Time o = s_.params().o;
    const Time L = s_.params().L;
    const long cap = s_.params().capacity();
    auto sweep = [&](bool by_sender) {
      std::map<ProcId, std::vector<std::pair<Time, int>>> events;
      for (const auto& op : s_.sends()) {
        const ProcId key = by_sender ? op.from : op.to;
        events[key].emplace_back(op.start + o, +1);
        events[key].emplace_back(op.start + o + L, -1);
      }
      for (auto& [proc, evs] : events) {
        std::sort(evs.begin(), evs.end());
        long depth = 0;
        for (const auto& [t, d] : evs) {
          depth += d;
          if (depth > cap) {
            add(Rule::kCapacity,
                cat(by_sender ? "from" : "to", " P", proc, " at t=", t, ": ",
                    depth, " in transit (cap ", cap, ")"));
            break;  // one report per processor/direction is enough
          }
        }
      }
    };
    sweep(true);
    // The modified model of Section 3.5 lets several items enter one
    // processor's buffer in a step ("more than one item may enter a
    // processor's buffer at a given time step"), replacing the receive-side
    // capacity bound with the buffer-occupancy bound checked above.
    if (!opts_.buffered) sweep(false);
  }

  void check_completeness() {
    const auto avail = availability_matrix(s_);
    for (std::size_t item = 0; item < avail.size(); ++item) {
      for (std::size_t proc = 0; proc < avail[item].size(); ++proc) {
        if (avail[item][proc] == kNever) {
          if (!add(Rule::kIncomplete,
                   cat("item ", item, " never reaches P", proc))) {
            return;
          }
        }
      }
    }
  }
};

}  // namespace

CheckResult check(const Schedule& s, CheckOptions options) {
  s.params().require_valid();
  return Checker(s, options).run();
}

bool is_valid(const Schedule& s, CheckOptions options) {
  return check(s, options).ok();
}

std::vector<std::vector<DeliveryRecord>> planned_deliveries(
    const Schedule& plan) {
  std::vector<std::vector<DeliveryRecord>> out(
      static_cast<std::size_t>(plan.params().P));
  // (available cycle, schedule position) orders each processor's receives;
  // position breaks ties deterministically for o == 0 machines.
  std::vector<std::vector<std::pair<std::pair<Time, std::size_t>,
                                    DeliveryRecord>>>
      keyed(out.size());
  const auto& sends = plan.sends();
  for (std::size_t i = 0; i < sends.size(); ++i) {
    const SendOp& op = sends[i];
    keyed[static_cast<std::size_t>(op.to)].push_back(
        {{plan.available_at(op), i}, DeliveryRecord{op.from, op.item}});
  }
  for (std::size_t p = 0; p < out.size(); ++p) {
    std::sort(keyed[p].begin(), keyed[p].end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    out[p].reserve(keyed[p].size());
    for (const auto& [key, rec] : keyed[p]) out[p].push_back(rec);
  }
  return out;
}

CheckResult check_delivery_order(
    const Schedule& plan,
    const std::vector<std::vector<DeliveryRecord>>& observed) {
  CheckResult result;
  const auto expected = planned_deliveries(plan);
  auto add = [&result](std::string detail) {
    result.violations.push_back(
        Violation{Rule::kDeliveryOrder, std::move(detail)});
  };
  if (observed.size() != expected.size()) {
    add(cat("observed ", observed.size(), " processors, plan has ",
            expected.size()));
    return result;
  }
  for (std::size_t p = 0; p < expected.size(); ++p) {
    const auto& exp = expected[p];
    const auto& obs = observed[p];
    if (exp.size() != obs.size()) {
      add(cat("P", p, ": ", obs.size(),
              " receptions executed, plan prescribes ", exp.size()));
      continue;
    }
    for (std::size_t i = 0; i < exp.size(); ++i) {
      if (!(exp[i] == obs[i])) {
        add(cat("P", p, " reception ", i, ": got item ", obs[i].item,
                " from P", obs[i].from, ", plan says item ", exp[i].item,
                " from P", exp[i].from));
      }
    }
  }
  return result;
}

CheckResult check_exactly_once(
    const std::vector<std::vector<DeliveryRecord>>& observed) {
  CheckResult result;
  for (std::size_t p = 0; p < observed.size(); ++p) {
    const auto& obs = observed[p];
    for (std::size_t i = 0; i < obs.size(); ++i) {
      for (std::size_t j = i + 1; j < obs.size(); ++j) {
        if (obs[i] == obs[j]) {
          result.violations.push_back(Violation{
              Rule::kDuplicateReceive,
              cat("P", p, " accepted item ", obs[i].item, " from P",
                  obs[i].from, " twice (receptions ", i, " and ", j,
                  ") — a duplicate delivery leaked through")});
        }
      }
    }
  }
  return result;
}

}  // namespace logpc::validate
