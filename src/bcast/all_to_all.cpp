#include "bcast/all_to_all.hpp"

#include <stdexcept>

#include "sched/metrics.hpp"

namespace logpc::bcast {

namespace {

void require_k(int k) {
  if (k < 1) throw std::invalid_argument("all_to_all: k >= 1");
}

}  // namespace

Time all_to_all_lower_bound(const Params& params, int k) {
  params.require_valid();
  require_k(k);
  if (params.P == 1) return 0;
  return params.L + 2 * params.o +
         (static_cast<Time>(k) * (params.P - 1) - 1) * params.g;
}

Schedule all_to_all(const Params& params) { return all_to_all_k(params, 1); }

Schedule all_to_all_k(const Params& params, int k) {
  params.require_valid();
  require_k(k);
  const int P = params.P;
  Schedule s(params, P * k);
  for (ProcId p = 0; p < P; ++p) {
    for (int j = 0; j < k; ++j) {
      s.add_initial(p * k + j, p, 0);
    }
  }
  // Round r (r = 0 .. k(P-1)-1): processor i sends item copy r/(P-1) to
  // processor i + (r mod (P-1)) + 1: one message to every processor per
  // round (conflict-free), added in sort() order (round, then sender).
  const auto n = static_cast<std::size_t>(P);
  s.reserve_sends(n * (n - 1) * static_cast<std::size_t>(k));
  for (int r = 0; r < k * (P - 1); ++r) {
    const int j = r / (P - 1);
    const int offset = r % (P - 1) + 1;
    const Time start = static_cast<Time>(r) * params.g;
    for (ProcId i = 0; i < P; ++i) {
      const auto to = static_cast<ProcId>((i + offset) % P);
      s.add_send(start, i, to, i * k + j);
    }
  }
  return s;
}

Schedule all_to_all_personalized(const Params& params) {
  params.require_valid();
  const int P = params.P;
  Schedule s(params, P * P);
  for (ProcId p = 0; p < P; ++p) {
    for (ProcId d = 0; d < P; ++d) {
      if (d != p) s.add_initial(p * P + d, p, 0);
    }
  }
  for (int r = 0; r < P - 1; ++r) {
    const Time start = static_cast<Time>(r) * params.g;
    for (ProcId i = 0; i < P; ++i) {
      const auto to = static_cast<ProcId>((i + r + 1) % P);
      s.add_send(start, i, to, i * P + to);
    }
  }
  s.sort();
  return s;
}

bool personalized_complete(const Schedule& s) {
  const int P = s.params().P;
  const auto avail = availability_matrix(s);
  for (ProcId src = 0; src < P; ++src) {
    for (ProcId dst = 0; dst < P; ++dst) {
      if (src == dst) continue;
      if (avail[static_cast<std::size_t>(src * P + dst)]
               [static_cast<std::size_t>(dst)] == kNever) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace logpc::bcast
