/// Execution-engine demo: take the plans the paper's algorithms produce
/// and actually run them — one resumable cursor per logical LogP
/// processor, exchanging payload bytes through the engine's bounded
/// per-link mailboxes.
///
///   1. broadcast a string to P processors and check every copy,
///   2. reduce per-processor strings with non-commutative concatenation
///      (the paper's footnote case: order is part of the answer),
///   3. fit effective (L, o, g) from the run's timestamps, and
///   4. write exec_trace.json: the executed run's span (process 1)
///      next to the plan's simulated timeline (process 2), so the
///      predicted and actual shapes sit in one Perfetto view.
///
///   ./exec_demo [outdir]

#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "api/communicator.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"
#include "sim/trace.hpp"

int main(int argc, char** argv) {
  using namespace logpc;
  const std::string outdir = argc >= 2 ? std::string(argv[1]) + "/" : "";

  const Params machine{8, 4, 1, 2};
  api::Communicator comm(machine);
  std::cout << "machine: " << machine.to_string() << " -> "
            << machine.capacity() << " message(s) in flight per link\n\n";

  // 1. Broadcast: one payload, P byte-exact copies, on the engine.
  const std::string text = "optimal broadcast, executed";
  const auto* raw = reinterpret_cast<const std::byte*>(text.data());
  const exec::Bytes payload(raw, raw + text.size());
  const exec::ExecReport bcast =
      comm.run_broadcast(std::span<const std::byte>(payload));
  int copies = 0;
  for (ProcId p = 0; p < comm.size(); ++p) {
    copies += bcast.item_at(p, 0) == payload ? 1 : 0;
  }
  std::cout << "broadcast: " << copies << "/" << comm.size()
            << " byte-exact copies, " << bcast.messages << " messages, "
            << "predicted " << bcast.predicted_makespan << " cycles, took "
            << bcast.wall_ns / 1000 << " us\n";

  // 2. Reduction with a NON-commutative operator: concatenation.  The plan
  //    fixes the fold order, so the result is deterministic — any engine
  //    reordering would scramble the string.
  std::vector<exec::Bytes> values;
  for (int p = 0; p < comm.size(); ++p) {
    const std::string s = "[p" + std::to_string(p) + "]";
    const auto* b = reinterpret_cast<const std::byte*>(s.data());
    values.emplace_back(b, b + s.size());
  }
  const exec::ExecReport reduce = comm.run_reduce(
      values,
      exec::CombineFn([](exec::Bytes& acc, std::span<const std::byte> rhs) {
        acc.insert(acc.end(), rhs.begin(), rhs.end());
      }),
      /*root=*/0);
  const exec::Bytes& folded = reduce.folded_at(0);
  std::cout << "reduce (concat): root folded to \""
            << std::string(reinterpret_cast<const char*>(folded.data()),
                           folded.size())
            << "\"\n";

  // 3. What did the machine actually look like?  Profile the run: fit
  //    (L, o, g) from its send/recv timestamps and scale the plan's cycles
  //    onto that fit.
  const obs::RunProfile profile = obs::analyze(bcast);
  const obs::MeasuredLogP& fit = profile.fit;
  std::cout << "measured: L=" << static_cast<long>(fit.L_ns)
            << "ns o=" << static_cast<long>(fit.o_ns)
            << "ns g=" << static_cast<long>(fit.g_ns) << "ns over "
            << fit.latency_samples << " link samples, "
            << profile.ns_per_cycle << " ns per model cycle\n";

  // 4. One Perfetto timeline, two processes: the spans the engine
  //    recorded while executing, and the plan's simulated
  //    per-processor overhead intervals.
  obs::ChromeTraceWriter trace;
  trace.add(obs::TraceRecorder::global(), 1, "executed (engine)");
  trace.add(sim::Trace::from(comm.bcast()), 2,
            "planned broadcast " + machine.to_string());
  const std::string trace_path = outdir + "exec_trace.json";
  {
    std::ofstream out(trace_path);
    trace.write(out);
  }
  std::cout << "\nwrote " << trace_path << " (" << trace.num_events()
            << " events; load at ui.perfetto.dev or chrome://tracing)\n";
  return 0;
}
