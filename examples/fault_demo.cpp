/// Fault-injection demo: break the network on purpose and watch the
/// runtime put the collective back together.
///
///   1. broadcast on P=8 under a lossy network (every message has a 50%
///      chance of being dropped on delivery) — each dropped delivery is
///      resent, and every byte gets through exactly once,
///   2. kill rank 3 mid-collective — the engine finds no live rank able
///      to advance and names rank 3, the Communicator re-plans the broadcast over the 7 survivors
///      (the tree is universal, so the degraded plan is itself optimal)
///      and re-runs to completion,
///   3. print the injected-fault event log, which is a pure function of
///      the seed: re-run with the same LOGPC_FAULT_SEED and the log is
///      byte-identical.
///
///   LOGPC_FAULT_SEED=7 ./fault_demo

#include <cstdlib>
#include <iostream>
#include <span>
#include <string>

#include "api/communicator.hpp"
#include "fault/fault.hpp"

int main() {
  using namespace logpc;

  const char* env = std::getenv("LOGPC_FAULT_SEED");
  const std::uint64_t seed =
      (env != nullptr && *env != '\0') ? std::strtoull(env, nullptr, 10) : 1;

  const Params machine{8, 4, 1, 2};
  const api::Communicator comm(machine);
  const std::string text = "broadcast that refuses to die";
  const auto* raw = reinterpret_cast<const std::byte*>(text.data());
  const exec::Bytes payload(raw, raw + text.size());
  const std::span<const std::byte> view(payload);

  std::cout << "machine: " << machine.to_string() << ", fault seed " << seed
            << "\n\n";

  // 1. A lossy network: drops force resends, never corruption.
  fault::FaultSpec lossy;
  lossy.seed = seed;
  lossy.drop_prob = 0.5;
  api::FtRunOptions lossy_opt;
  lossy_opt.faults = lossy;
  const api::FtRunResult dropped = comm.run_broadcast_ft(view, 0, lossy_opt);
  int copies = 0;
  for (ProcId p = 0; p < comm.size(); ++p) {
    copies += dropped.report.item_at(p, 0) == payload ? 1 : 0;
  }
  std::cout << "lossy network (drop p=0.5): " << copies << "/" << comm.size()
            << " byte-exact copies, " << dropped.report.retries
            << " deliveries resent, took " << dropped.report.wall_ns / 1000
            << " us\n";

  // 2. A mortal processor: rank 3 dies before its first instruction.
  fault::FaultSpec mortal;
  mortal.seed = seed;
  mortal.dead_rank = 3;
  mortal.dead_after_instrs = 0;
  api::FtRunOptions mortal_opt;
  mortal_opt.faults = mortal;
  const api::FtRunResult killed = comm.run_broadcast_ft(view, 0, mortal_opt);

  std::cout << "\nrank 3 killed mid-run: status "
            << (killed.status == api::RunStatus::kRecovered ? "RECOVERED"
                : killed.status == api::RunStatus::kOk      ? "OK"
                                                            : "FAILED")
            << ", " << killed.attempts << " attempts, re-plan and re-run took "
            << killed.recovery_ns / 1000 << " us\n";
  std::cout << "survivors:";
  for (const ProcId r : killed.survivors) std::cout << " P" << r;
  std::cout << "\n";
  copies = 0;
  for (std::size_t p = 0; p < killed.survivors.size(); ++p) {
    copies +=
        killed.report.item_at(static_cast<ProcId>(p), 0) == payload ? 1 : 0;
  }
  std::cout << "payload: " << copies << "/" << killed.survivors.size()
            << " byte-exact copies on the survivors\n";

  // 3. The injected-fault log — deterministic in the seed.
  std::cout << "\ninjected faults (degraded run, survivor-rank ids):\n";
  for (std::size_t p = 0; p < killed.report.fault_events.size(); ++p) {
    for (const fault::FaultEvent& fe : killed.report.fault_events[p]) {
      std::cout << "  P" << p << ": " << fault::fault_kind_name(fe.kind)
                << " (peer " << fe.peer << ", seq " << fe.seq << ")\n";
    }
  }
  std::cout << "\nre-run with LOGPC_FAULT_SEED=" << seed
            << " and this log is identical; change the seed and the faults "
               "move.\n";
  return 0;
}
