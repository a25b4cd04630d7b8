#include "exec/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exec/wait.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"

namespace logpc::exec {

namespace {

using Clock = std::chrono::steady_clock;

// Acked-delivery timings (runs with a fault::Injector).  The first
// retransmit waits kAckTimeout; each later wait doubles, kMaxRetries
// times, up to kMaxBackoff, then the cadence stays there until the ack
// lands.  A peer whose heartbeat has not moved for kSuspectAfter while
// someone is blocked on it is declared dead.
constexpr std::chrono::microseconds kAckTimeout{200};
constexpr std::int64_t kBackoffFactor = 2;
constexpr std::chrono::microseconds kMaxBackoff{5000};
constexpr int kMaxRetries = 6;
constexpr std::chrono::milliseconds kSuspectAfter{25};

std::uint64_t ns_since(Clock::time_point epoch) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

/// Shared failure latch: the first error wins, everyone else bails out of
/// their spin loops promptly.  `failed_rank` distinguishes a declared rank
/// death (recoverable: run_broadcast_ft re-plans around it) from a plain
/// engine error.
struct Failure {
  std::atomic<bool> abort{false};
  std::atomic<ProcId> failed_rank{kNoProc};
  std::mutex mu;
  std::string message;

  void fail(const std::string& m) {
    {
      std::lock_guard lock(mu);
      if (message.empty()) message = m;
    }
    abort.store(true, std::memory_order_release);
  }

  void fail_rank(ProcId rank, const std::string& m) {
    ProcId expected = kNoProc;
    failed_rank.compare_exchange_strong(expected, rank,
                                        std::memory_order_relaxed);
    fail(m);
  }
};

}  // namespace

Engine& Engine::shared() {
  static Engine* engine = new Engine();  // leaked: outlives static teardown
  return *engine;
}

void Engine::prewarm(int procs) {
  if (procs <= 0) return;
  pool_.reserve(static_cast<unsigned>(procs));
}

ExecReport Engine::run(const Program& program, const Inputs& inputs,
                       const fault::Injector* injector) {
  // --- resolve and validate the inputs against the program ---------------
  // The one validation point for every run.  Exactly one of these views is
  // set — the one matching program.mode, checked first — and the workers
  // read it directly.
  const auto* payload = std::get_if<Payload>(&inputs);
  const auto* items = std::get_if<Items>(&inputs);
  const auto* fold_values = std::get_if<FoldValues>(&inputs);
  const auto* operands = std::get_if<Operands>(&inputs);
  static constexpr std::array<Mode, std::variant_size_v<Inputs>> kModeOf{
      Mode::kMove, Mode::kMove, Mode::kFold, Mode::kSum};
  static constexpr std::array<const char*, std::variant_size_v<Inputs>>
      kMismatch{"payload needs a move-mode program",
                "items need a move-mode program",
                "fold values need a fold-mode program",
                "operands need a summation-mode program"};
  if (kModeOf[inputs.index()] != program.mode) {
    throw std::invalid_argument(std::string("Engine::run: ") +
                                kMismatch[inputs.index()]);
  }
  program.params.require_valid();
  const auto P = static_cast<std::size_t>(program.params.P);
  if (program.procs.size() != P) {
    throw std::invalid_argument("Engine::run: program/params size mismatch");
  }
  const auto num_items = static_cast<std::size_t>(program.num_items);
  if (items != nullptr && items->values.size() != num_items) {
    throw std::invalid_argument(
        "Engine::run: expected " + std::to_string(num_items) +
        " item payloads, got " + std::to_string(items->values.size()));
  }
  if (payload != nullptr && payload->bytes.empty() && num_items > 1) {
    throw std::invalid_argument(
        "Engine::run: a multi-item payload run needs a non-empty payload");
  }
  if (fold_values != nullptr && fold_values->values.size() != P) {
    throw std::invalid_argument(
        "Engine::run: expected one value per processor");
  }
  if (operands != nullptr) {
    for (const ProcProgram& pp : program.procs) {
      if (pp.sum_index < 0) continue;
      const auto idx = static_cast<std::size_t>(pp.sum_index);
      if (idx >= operands->operands.size() ||
          operands->operands[idx].size() != pp.num_operands) {
        throw std::invalid_argument(
            "Engine::run: operand count mismatch at plan index " +
            std::to_string(idx) + " (want " +
            std::to_string(pp.num_operands) + ")");
      }
    }
  }
  const Combiner* op = fold_values != nullptr ? &fold_values->op
                       : operands != nullptr  ? &operands->op
                                              : nullptr;
  if (op != nullptr && !op->valid()) {
    throw std::invalid_argument("Engine::run: combiner has no operator");
  }

  const auto cap = static_cast<std::size_t>(program.params.capacity());
  if (cap == 0) {
    throw std::invalid_argument(
        "Engine::run: mailbox capacity is 0 for " +
        program.params.to_string() +
        " — a network admitting no in-flight message cannot run any "
        "schedule; fix the machine parameters instead of clamping");
  }

  const bool reliable = injector != nullptr;
  const KernelFn kernel = op != nullptr ? op->kernel() : nullptr;

  // Serialize runs on this engine *before* starting the watchdog clock:
  // a run queued behind another must not burn its timeout budget waiting
  // for the pool.
  std::lock_guard run_lock(run_mu_);

  // --- run state: the engine's warm per-run context ----------------------
  // Threads are warm when the pool already holds a worker per processor;
  // buffers are warm when the context's previous shape matches and
  // prepare() recycled every ring and queue without allocating.
  const bool pool_warm =
      pool_.size() >= static_cast<unsigned>(program.params.P);
  RunShape shape;
  shape.links = program.links.size();
  shape.capacity = cap;
  shape.reliable = reliable;
  shape.procs = P;
  const bool buffers_warm = ctx_.prepare(shape);
  std::vector<std::unique_ptr<SpscMailbox>>& mailboxes = ctx_.mailboxes;
  std::vector<PendingQ>& pending = ctx_.pending;
  std::vector<std::unique_ptr<AckRing>>& acks = ctx_.acks;
  std::vector<std::uint64_t>& send_seq = ctx_.send_seq;
  std::vector<std::uint64_t>& acked = ctx_.acked;
  std::vector<std::uint64_t>& accepted = ctx_.accepted;
  std::vector<std::uint64_t>& attempts = ctx_.attempts;
  Heartbeat* const hearts = ctx_.hearts.get();

  ExecReport report;
  report.params = program.params;
  report.mode = program.mode;
  report.label = program.label;
  report.predicted_makespan = program.predicted_makespan;
  report.messages = program.num_messages;
  report.mailbox_capacity = cap;
  report.warm_pool = pool_warm;
  report.warm_buffers = buffers_warm;
  report.events.resize(P);
  report.deliveries.resize(P);
  report.fault_events.resize(P);
  report.folded.resize(P);

  // --- kMove slots: in place in the report's result buffers -------------
  // Every (processor, item) slot the plan touches is sized in its final
  // ExecReport::items buffer before workers start, so seeding is one
  // memcpy from the caller's bytes, each receive is one memcpy into its
  // slot, and nothing is copied out afterwards.  No allocator call runs on
  // a worker thread.  A Payload run gives each touched processor one
  // buffer the size of the whole payload, each slot aliasing its range.
  // Whether a slot is used comes from the table, never from its pointer.
  std::vector<Slot>& slots = ctx_.slots;
  auto slot_index = [num_items](std::size_t p, std::size_t item) {
    return p * num_items + item;
  };
  if (program.mode == Mode::kMove) {
    // Item i's source bytes: the i-th of num_items near-equal contiguous
    // ranges of a Payload (longer ranges first), or Items::values[i].
    auto source = [&](std::size_t i) -> std::span<const std::byte> {
      if (payload == nullptr) return items->values[i];
      const std::size_t q = payload->bytes.size() / num_items;
      const std::size_t r = payload->bytes.size() % num_items;
      return payload->bytes.subspan(i * q + std::min(i, r),
                                    q + (i < r ? 1 : 0));
    };
    const bool coalesced = payload != nullptr;
    report.items.assign(P, std::vector<Bytes>(coalesced ? 1 : num_items));
    slots.assign(P * num_items, Slot{});
    std::vector<char>& used = ctx_.slot_used;
    used.assign(P * num_items, 0);
    for (const InitialPlacement& init : program.initials) {
      used[slot_index(static_cast<std::size_t>(init.proc),
                      static_cast<std::size_t>(init.item))] = 1;
    }
    for (std::size_t p = 0; p < P; ++p) {
      for (const Instr& ins : program.procs[p].instrs) {
        if (ins.op == OpCode::kRecv) {
          used[slot_index(p, static_cast<std::size_t>(ins.item))] = 1;
        }
      }
    }
    for (std::size_t p = 0; p < P; ++p) {
      std::size_t off = 0;
      for (std::size_t i = 0; i < num_items; ++i) {
        const std::size_t size = source(i).size();
        if (used[slot_index(p, i)]) {
          // A cache line of spare capacity keeps the next rank's buffer
          // off this one's last line: no false sharing between ranks.
          Bytes& buf = report.items[p][coalesced ? 0 : i];
          const std::size_t n = coalesced ? payload->bytes.size() : size;
          buf.reserve(n + 64);
          buf.resize(n);
          slots[slot_index(p, i)] = Slot{buf.data() + off, size};
        }
        if (coalesced) off += size;
      }
    }
    for (const InitialPlacement& init : program.initials) {
      const auto item = static_cast<std::size_t>(init.item);
      const Slot& s = slots[slot_index(static_cast<std::size_t>(init.proc),
                                       item)];
      if (s.size != 0) std::memcpy(s.data, source(item).data(), s.size);
    }
  } else if (program.mode == Mode::kFold) {
    for (std::size_t p = 0; p < P; ++p) {
      report.folded[p] = fold_values->values[p];
    }
  }

  std::vector<std::size_t> bytes_moved(P, 0);
  std::vector<std::size_t> retries(P, 0);
  std::vector<std::size_t> duplicates(P, 0);
  std::vector<std::size_t> kernel_folds(P, 0);
  std::vector<std::size_t> generic_folds(P, 0);
  std::vector<std::size_t> kernel_bytes(P, 0);
  std::vector<std::vector<double>> backoffs_ns(P);  // lapsed retransmit waits
  Failure failure;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::milliseconds(opts_.timeout_ms);

  auto worker = [&](int wi) {
    const auto p = static_cast<std::size_t>(wi);
    const auto rank = static_cast<ProcId>(wi);
    const ProcProgram& stream = program.procs[p];
    obs::Span span("exec.worker", "exec");
    if (span.active()) {
      span.set_arg("p" + std::to_string(wi) + " " + program.label);
    }

    auto beat = [&] {
      if (reliable) hearts[p].v.fetch_add(1, std::memory_order_relaxed);
    };

    // Liveness watch on one peer: last observed heartbeat + when it last
    // moved.  suspect() accuses the peer dead once the heartbeat has been
    // frozen for kSuspectAfter of blocked waiting.
    struct Watch {
      std::uint64_t hb;
      Clock::time_point changed;
    };
    auto watch_of = [&](ProcId peer) {
      return Watch{hearts[static_cast<std::size_t>(peer)].v.load(
                       std::memory_order_relaxed),
                   Clock::now()};
    };
    auto suspect = [&](ProcId peer, Watch& w) -> bool {
      const std::uint64_t cur =
          hearts[static_cast<std::size_t>(peer)].v.load(
              std::memory_order_relaxed);
      const Clock::time_point now = Clock::now();
      if (cur != w.hb) {
        w.hb = cur;
        w.changed = now;
        return false;
      }
      if (now - w.changed < kSuspectAfter) return false;
      failure.fail_rank(
          peer, "exec::Engine: rank " + std::to_string(peer) +
                    " declared dead (heartbeat frozen while P" +
                    std::to_string(wi) + " waited on it, " + program.label +
                    ")");
      return true;
    };

    // Plain blocking wait (fault-free path): walk the wait ladder —
    // cpu_relax spins, then yields with slow ticks that check the watchdog
    // deadline.
    auto blocking = [&](auto&& attempt) -> bool {
      Waiter w;
      while (!attempt()) {
        if (failure.abort.load(std::memory_order_acquire)) return false;
        if (w.should_tick()) {
          if (Clock::now() > deadline) {
            failure.fail("exec::Engine: timeout at P" + std::to_string(wi) +
                         " (" + program.label + ")");
            return false;
          }
          w.idle();
        }
      }
      return true;
    };

    // Reliable blocking wait: additionally keeps our heartbeat moving and
    // runs the failure detector against the peer we are blocked on.
    auto blocking_on = [&](ProcId peer, auto&& attempt) -> bool {
      Watch watch = watch_of(peer);
      Waiter w;
      while (!attempt()) {
        beat();
        if (failure.abort.load(std::memory_order_acquire)) return false;
        if (w.should_tick()) {
          if (Clock::now() > deadline) {
            failure.fail("exec::Engine: timeout at P" + std::to_string(wi) +
                         " (" + program.label + ")");
            return false;
          }
          if (suspect(peer, watch)) return false;
          w.idle();
        }
      }
      return true;
    };

    // Busy-stall (injected delay / slow-rank stall) that stays alive to
    // the failure detector.
    auto stall = [&](std::uint64_t ns) -> bool {
      const Clock::time_point until =
          Clock::now() + std::chrono::nanoseconds(ns);
      while (Clock::now() < until) {
        beat();
        if (failure.abort.load(std::memory_order_acquire)) return false;
        std::this_thread::yield();
      }
      return true;
    };

    // Sender side of acked delivery: drain cumulative acks; once the ack
    // timeout lapses, retransmit with exponential backoff (kMaxRetries
    // ramp steps, then a steady kMaxBackoff cadence) until the ack lands
    // or the heartbeat detector / watchdog ends the wait.
    auto await_ack = [&](ProcId peer, std::size_t link, const Message& m,
                         SpscMailbox& mb) -> bool {
      AckRing& ar = *acks[link];
      auto drained = [&] {
        std::uint64_t a = 0;
        while (ar.try_pop(a)) acked[link] = std::max(acked[link], a);
        return acked[link] >= m.seq;
      };
      Watch watch = watch_of(peer);
      std::chrono::microseconds backoff = kAckTimeout;
      Clock::time_point next_retx = Clock::now() + backoff;
      int retries_left = kMaxRetries;
      Waiter w;
      while (!drained()) {
        beat();
        if (failure.abort.load(std::memory_order_acquire)) return false;
        if (w.should_tick()) {
          const Clock::time_point now = Clock::now();
          if (now > deadline) {
            failure.fail("exec::Engine: ack timeout at P" +
                         std::to_string(wi) + " (" + program.label + ")");
            return false;
          }
          if (suspect(peer, watch)) return false;
          if (now >= next_retx) {
            // Retransmit for as long as the ack is missing: a receiver
            // that was busy on another link while the exponential ramp
            // ran out may still drop the queued copies, and a sender
            // that stops resending would deadlock the pair until the
            // watchdog.  kMaxRetries bounds the backoff RAMP; past it
            // the cadence stays at kMaxBackoff until the ack lands, the
            // peer is declared dead, or the deadline fires.
            backoffs_ns[p].push_back(static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(backoff)
                    .count()));
            // try_push: if the ring is full the original copy is still
            // queued, so there is nothing to retransmit past.
            if (mb.try_push(m)) ++retries[p];
            if (retries_left > 0) {
              --retries_left;
              backoff = std::min(backoff * kBackoffFactor, kMaxBackoff);
            }
            next_retx = now + backoff;
          }
          w.idle();
        }
      }
      return true;
    };

    // kFold seeds the accumulator with the processor's own value (already
    // copied into report.folded); kSum starts empty.  A typed combiner
    // takes the fused kernel on every size-matched fold; anything else —
    // including the first contribution, which is assigned — goes through
    // the generic lane.  The fold ORDER is the instruction stream either
    // way, so non-commutative combination_order survives intact.
    Bytes& acc = report.folded[p];
    bool acc_have = program.mode == Mode::kFold;
    std::size_t operand_pos = 0;
    auto fold = [&](std::span<const std::byte> rhs) {
      if (!acc_have) {
        acc.assign(rhs.begin(), rhs.end());
        acc_have = true;
        return;
      }
      if (kernel != nullptr && acc.size() == rhs.size()) {
        kernel(acc.data(), rhs.data(), acc.size());
        ++kernel_folds[p];
        kernel_bytes[p] += rhs.size();
      } else {
        (op->generic())(acc, rhs);
        ++generic_folds[p];
      }
    };

    const bool slow = injector != nullptr && injector->is_slow(rank);
    if (slow && !stream.instrs.empty()) {
      report.fault_events[p].push_back(
          fault::FaultEvent{fault::FaultKind::kSlow, rank, kNoProc, 0});
    }

    report.events[p].reserve(stream.instrs.size());
    std::size_t ii = 0;
    for (const Instr& ins : stream.instrs) {
      const std::size_t instr_index = ii++;
      beat();
      if (injector != nullptr && injector->dies_at(rank, instr_index)) {
        // Crash-stop: no more sends, receives, acks, or heartbeats.  The
        // peers' failure detectors take it from here.
        report.fault_events[p].push_back(fault::FaultEvent{
            fault::FaultKind::kDead, rank, kNoProc, instr_index});
        return;
      }
      if (slow && !stall(injector->slow_stall_ns())) return;

      switch (ins.op) {
        case OpCode::kSend: {
          ExecEvent ev;
          ev.kind = ExecEvent::Kind::kSend;
          ev.peer = ins.peer;
          ev.item = ins.item;
          ev.planned = ins.when;
          ev.start_ns = ns_since(start);
          const std::byte* payload_data;
          std::size_t payload_size;
          if (program.mode == Mode::kMove) {
            const Slot& s = slots[slot_index(p, static_cast<std::size_t>(ins.item))];
            payload_data = s.data;
            payload_size = s.size;
          } else {
            payload_data = acc.data();
            payload_size = acc.size();
          }
          const auto link = static_cast<std::size_t>(ins.link);
          SpscMailbox& mb = *mailboxes[link];
          Message m{ins.item, payload_data, payload_size, 0};
          if (reliable) {
            m.seq = ++send_seq[link];
            const std::uint64_t delay =
                injector != nullptr
                    ? injector->send_delay_ns(rank, ins.link, m.seq)
                    : 0;
            if (delay > 0) {
              report.fault_events[p].push_back(fault::FaultEvent{
                  fault::FaultKind::kDelay, rank, ins.peer, m.seq});
              if (!stall(delay)) return;
            }
            if (!blocking_on(ins.peer, [&] { return mb.try_push(m); })) return;
            ev.xfer_ns = ns_since(start);
            if (!await_ack(ins.peer, link, m, mb)) return;
          } else {
            if (!blocking([&] { return mb.try_push(m); })) return;
            ev.xfer_ns = ns_since(start);
          }
          ev.end_ns = ns_since(start);
          bytes_moved[p] += payload_size;
          report.events[p].push_back(ev);
          break;
        }
        case OpCode::kRecv: {
          ExecEvent ev;
          ev.kind = ExecEvent::Kind::kRecv;
          ev.peer = ins.peer;
          ev.item = ins.item;
          ev.planned = ins.when;
          ev.start_ns = ns_since(start);
          const auto link = static_cast<std::size_t>(ins.link);
          SpscMailbox& mb = *mailboxes[link];
          Message m;
          if (reliable) {
            AckRing& ar = *acks[link];
            const std::uint64_t expect = accepted[link] + 1;
            for (;;) {
              if (!blocking_on(ins.peer, [&] { return mb.try_pop(m); })) {
                return;
              }
              if (m.seq < expect) {
                // A retransmitted copy of a message already accepted:
                // discard exactly-once, re-ack best-effort so the sender
                // stops resending.
                ++duplicates[p];
                ar.try_push(accepted[link]);
                continue;
              }
              if (m.seq > expect) {
                failure.fail("exec::Engine: P" + std::to_string(wi) +
                             " sequence gap on link from P" +
                             std::to_string(ins.peer) + " (got " +
                             std::to_string(m.seq) + ", expected " +
                             std::to_string(expect) + ")");
                return;
              }
              const std::uint64_t attempt = ++attempts[link];
              if (injector != nullptr &&
                  injector->drop_delivery(rank, ins.link, m.seq, attempt)) {
                // Discarded in transit: no ack, so the sender retransmits.
                report.fault_events[p].push_back(fault::FaultEvent{
                    fault::FaultKind::kDrop, rank, ins.peer, m.seq});
                continue;
              }
              break;
            }
            accepted[link] = m.seq;
            attempts[link] = 0;
            if (!blocking_on(ins.peer,
                             [&] { return ar.try_push(accepted[link]); })) {
              return;
            }
          } else {
            // Fast lane: drain every message this stream consumes
            // back-to-back on this link (Instr::chain) in one bulk pop —
            // one acquire/release round for the whole batch instead of
            // one per message.  Unchained receives (chain <= 1, e.g.
            // all-to-all's rotating links) take a plain pop: a
            // single-message bulk pop adds queue bookkeeping on top of
            // the same ring round-trip.
            PendingQ& pq = pending[link];
            if (pq.head < pq.buf.size()) {
              m = pq.buf[pq.head++];
            } else if (ins.chain <= 1) {
              if (!blocking([&] { return mb.try_pop(m); })) {
                return;
              }
            } else {
              // Chained receive with nothing pending: block for the head
              // message exactly like the unchained path (a drip-feeding
              // pipeline pays nothing over a plain pop), then claim
              // whatever the producer already queued behind it — up to the
              // rest of the chain — in one bulk pop.  A burst left while
              // this worker was descheduled is drained with a single
              // acquire/release round instead of one per message.
              if (!blocking([&] { return mb.try_pop(m); })) {
                return;
              }
              pq.buf.clear();
              pq.head = 0;
              (void)mb.pop_bulk(pq.buf,
                                static_cast<std::size_t>(ins.chain) - 1);
            }
          }
          ev.xfer_ns = ns_since(start);
          if (m.item != ins.item) {
            failure.fail("exec::Engine: P" + std::to_string(wi) +
                         " expected item " + std::to_string(ins.item) +
                         " from P" + std::to_string(ins.peer) + ", got " +
                         std::to_string(m.item));
            return;
          }
          if (program.mode == Mode::kMove) {
            const Slot& slot =
                slots[slot_index(p, static_cast<std::size_t>(m.item))];
            if (slot.size != m.size) {
              failure.fail("exec::Engine: P" + std::to_string(wi) +
                           " received item " + std::to_string(m.item) +
                           " with unexpected payload size " +
                           std::to_string(m.size));
              return;
            }
            if (m.size != 0) std::memcpy(slot.data, m.data, m.size);
          } else {
            fold(std::span<const std::byte>(m.data, m.size));
          }
          report.deliveries[p].push_back(
              validate::DeliveryRecord{ins.peer, m.item});
          ev.end_ns = ns_since(start);
          report.events[p].push_back(ev);
          break;
        }
        case OpCode::kCombineLocal: {
          const auto& local =
              operands->operands[static_cast<std::size_t>(stream.sum_index)];
          for (std::int32_t c = 0; c < ins.count; ++c) {
            fold(std::span<const std::byte>(local[operand_pos].data(),
                                            local[operand_pos].size()));
            ++operand_pos;
          }
          break;
        }
      }
    }
  };

  {
    obs::Span run_span("exec.run", "exec");
    if (run_span.active()) {
      run_span.set_arg(program.label + " P=" +
                       std::to_string(program.params.P));
    }
    pool_.run(static_cast<int>(P), worker);
    report.wall_ns = ns_since(start);
  }

#ifndef NDEBUG
  // The documented ordering guarantee of ExecReport::events: one worker
  // records its events sequentially on a monotonic clock, so per-processor
  // logs are non-decreasing in start_ns and op intervals never overlap.
  for (const auto& evs : report.events) {
    for (std::size_t i = 1; i < evs.size(); ++i) {
      assert(evs[i].start_ns >= evs[i - 1].start_ns &&
             "ExecReport::events must be non-decreasing in start_ns");
      assert(evs[i].start_ns >= evs[i - 1].end_ns &&
             "ExecReport::events intervals must not overlap");
    }
  }
#endif

  for (const std::size_t r : retries) report.retries += r;
  for (const std::size_t d : duplicates) report.duplicates += d;
  for (const std::size_t k : kernel_folds) report.kernel_folds += k;
  for (const std::size_t g : generic_folds) report.generic_folds += g;

  if (failure.abort.load(std::memory_order_acquire)) {
    // All workers have rejoined the epoch barrier, so nothing is producing
    // or consuming: drain every ring so an aborted run leaves no stale
    // message (or stale ack) behind for a later run to trip on.  (The
    // context re-drains on its next prepare() as well, but a throwing run
    // must not leave the shared rings dirty in between.)
    Message m;
    for (const auto& mb : mailboxes) {
      while (mb->try_pop(m)) {
      }
    }
    std::uint64_t a = 0;
    for (const auto& ar : acks) {
      while (ar->try_pop(a)) {
      }
    }
    const ProcId fr = failure.failed_rank.load(std::memory_order_relaxed);
    std::string message;
    {
      std::lock_guard lock(failure.mu);
      message = failure.message;
    }
    if (obs::enabled() && fr != kNoProc) {
      obs::MetricsRegistry::global()
          .counter("logpc_fault_rank_failures_total",
                   "ranks declared dead by the engine failure detector")
          .inc();
    }
    if (fr != kNoProc) throw RankFailure(fr, message);
    throw std::runtime_error(message);
  }

  for (const std::size_t b : bytes_moved) report.payload_bytes += b;
  for (const auto& mb : mailboxes) {
    report.max_mailbox_occupancy =
        std::max(report.max_mailbox_occupancy, mb->max_occupancy());
  }

  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    const std::string labels = "collective=\"" + program.label + "\"";
    reg.counter("logpc_exec_runs_total",
                "collective executions on the real-thread engine", labels)
        .inc();
    reg.counter("logpc_exec_messages_total",
                "messages moved through exec mailboxes", labels)
        .inc(report.messages);
    reg.counter("logpc_exec_payload_bytes_total",
                "payload bytes moved through exec mailboxes", labels)
        .inc(report.payload_bytes);
    reg.histogram("logpc_exec_run_latency_ns",
                  obs::default_latency_buckets_ns(),
                  "wall-clock duration of one executed collective", labels)
        .observe(static_cast<double>(report.wall_ns));
    reg.counter(report.warm_pool ? "logpc_exec_warm_runs_total"
                                 : "logpc_exec_cold_starts_total",
                report.warm_pool
                    ? "runs dispatched onto already-resident worker threads"
                    : "runs that spawned worker threads on the request path",
                labels)
        .inc();
    if (op != nullptr && op->typed()) {
      const std::string klabels = "op=\"" + std::string(op_name(op->spec().op)) +
                                  "\",dtype=\"" +
                                  dtype_name(op->spec().dtype) + "\"";
      if (report.kernel_folds > 0) {
        reg.counter("logpc_exec_kernel_folds_total",
                    "folds executed by typed SIMD combine kernels", klabels)
            .inc(report.kernel_folds);
        std::size_t kb = 0;
        for (const std::size_t b : kernel_bytes) kb += b;
        reg.counter("logpc_exec_kernel_fold_bytes_total",
                    "payload bytes folded by typed combine kernels", klabels)
            .inc(kb);
      }
      if (report.generic_folds > 0) {
        reg.counter("logpc_exec_kernel_fallback_folds_total",
                    "folds a typed combiner routed to the generic lane "
                    "(operand size mismatch)",
                    klabels)
            .inc(report.generic_folds);
      }
    }
    if (reliable) {
      std::array<std::size_t, 4> by_kind{};
      for (const auto& evs : report.fault_events) {
        for (const fault::FaultEvent& fe : evs) {
          ++by_kind[static_cast<std::size_t>(fe.kind)];
        }
      }
      for (std::size_t k = 0; k < by_kind.size(); ++k) {
        if (by_kind[k] == 0) continue;
        const auto kind = static_cast<fault::FaultKind>(k);
        reg.counter("logpc_fault_injected_total", "injected faults by kind",
                    "kind=\"" + std::string(fault::fault_kind_name(kind)) +
                        "\"")
            .inc(by_kind[k]);
      }
      if (report.retries > 0) {
        reg.counter("logpc_fault_retries_total",
                    "retransmissions under acked delivery")
            .inc(report.retries);
      }
      if (report.duplicates > 0) {
        reg.counter("logpc_fault_duplicates_total",
                    "retransmitted duplicates discarded exactly-once")
            .inc(report.duplicates);
      }
      auto& backoff_hist = reg.histogram(
          "logpc_fault_backoff_ns", obs::default_latency_buckets_ns(),
          "retransmit backoff lapsed before each retry");
      for (const auto& per_worker : backoffs_ns) {
        for (const double b : per_worker) backoff_hist.observe(b);
      }
    }
  }
  return report;
}

}  // namespace logpc::exec
