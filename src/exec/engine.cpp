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

#include "exec/arena.hpp"
#include "exec/wait.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"

namespace logpc::exec {

namespace {

using Clock = std::chrono::steady_clock;

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

ExecReport Engine::run(const Program& program,
                       const std::vector<Bytes>& item_values,
                       const fault::Injector* injector) {
  if (program.mode != Mode::kMove) {
    throw std::invalid_argument("Engine::run: program is not move-mode");
  }
  return run_impl(program, &item_values, nullptr, nullptr, nullptr, nullptr,
                  injector);
}

ExecReport Engine::run_segmented(const Program& program,
                                 const SegmentRun& seg,
                                 const fault::Injector* injector) {
  if (program.mode != Mode::kMove) {
    throw std::invalid_argument(
        "Engine::run: segmented run needs a move-mode program");
  }
  if (seg.segments != program.num_items) {
    throw std::invalid_argument(
        "Engine::run: SegmentRun::segments (" +
        std::to_string(seg.segments) + ") must equal the program's num_items (" +
        std::to_string(program.num_items) + ")");
  }
  if (seg.payload.empty()) {
    throw std::invalid_argument(
        "Engine::run: segmented run needs a non-empty payload");
  }
  return run_impl(program, nullptr, &seg, nullptr, nullptr, nullptr, injector);
}

ExecReport Engine::run(const Program& program, const std::vector<Bytes>& values,
                       const Combiner& op, const fault::Injector* injector) {
  if (program.mode != Mode::kFold) {
    throw std::invalid_argument("Engine::run: program is not fold-mode");
  }
  if (!op.valid()) {
    throw std::invalid_argument("Engine::run: combiner has no operator");
  }
  return run_impl(program, nullptr, nullptr, &values, nullptr, &op, injector);
}

ExecReport Engine::run(const Program& program,
                       const std::vector<std::vector<Bytes>>& operands,
                       const Combiner& op, const fault::Injector* injector) {
  if (program.mode != Mode::kSum) {
    throw std::invalid_argument("Engine::run: program is not summation-mode");
  }
  if (!op.valid()) {
    throw std::invalid_argument("Engine::run: combiner has no operator");
  }
  return run_impl(program, nullptr, nullptr, nullptr, &operands, &op,
                  injector);
}

ExecReport Engine::run_impl(const Program& program,
                            const std::vector<Bytes>* item_values,
                            const SegmentRun* seg,
                            const std::vector<Bytes>* fold_values,
                            const std::vector<std::vector<Bytes>>* operands,
                            const Combiner* op,
                            const fault::Injector* injector) {
  program.params.require_valid();
  const auto P = static_cast<std::size_t>(program.params.P);
  if (program.procs.size() != P) {
    throw std::invalid_argument("Engine::run: program/params size mismatch");
  }
  const auto num_items = static_cast<std::size_t>(program.num_items);

  // --- validate payload inputs against the program -----------------------
  if (program.mode == Mode::kMove) {
    if (item_values != nullptr && item_values->size() != num_items) {
      throw std::invalid_argument("Engine::run: expected " +
                                  std::to_string(num_items) +
                                  " item payloads, got " +
                                  std::to_string(item_values->size()));
    }
  } else if (program.mode == Mode::kFold) {
    if (fold_values->size() != P) {
      throw std::invalid_argument(
          "Engine::run: expected one value per processor");
    }
  } else {
    for (const ProcProgram& pp : program.procs) {
      if (pp.sum_index < 0) continue;
      const auto idx = static_cast<std::size_t>(pp.sum_index);
      if (idx >= operands->size() ||
          (*operands)[idx].size() != pp.num_operands) {
        throw std::invalid_argument(
            "Engine::run: operand count mismatch at plan index " +
            std::to_string(idx) + " (want " +
            std::to_string(pp.num_operands) + ")");
      }
    }
  }

  const std::size_t cap = opts_.mailbox_capacity != 0
                              ? opts_.mailbox_capacity
                              : static_cast<std::size_t>(
                                    program.params.capacity());
  if (cap == 0) {
    throw std::invalid_argument(
        "Engine::run: mailbox capacity is 0 for " +
        program.params.to_string() +
        " — a network admitting no in-flight message cannot run any "
        "schedule; fix the machine parameters instead of clamping");
  }

  const bool reliable = injector != nullptr || opts_.recovery.enabled;
  const Recovery& rec = opts_.recovery;
  const KernelFn kernel = op != nullptr ? op->kernel() : nullptr;

  // Serialize runs on this engine *before* starting the watchdog clock:
  // a run queued behind another must not burn its timeout budget waiting
  // for the pool.
  std::lock_guard run_lock(run_mu_);

  // --- run state: the engine's warm per-run context ----------------------
  // Threads are warm when the pool already holds a worker per processor;
  // buffers are warm when the context's previous shape matches and
  // prepare() recycled every ring/queue/arena chunk without allocating.
  const bool pool_warm =
      pool_.size() >= static_cast<unsigned>(program.params.P);
  RunShape shape;
  shape.links = program.links.size();
  shape.capacity = cap;
  shape.mailbox_stats = opts_.mailbox_stats;
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

  // --- kMove payload staging: the context's warm buffer arena ------------
  // Every (processor, item) slot the plan touches is carved 64-byte-aligned
  // out of one bump arena before workers start, so the receive hot path is
  // a plain memcpy — no allocator calls on any worker thread.  The arena
  // and slot tables live in the run context (rewound by prepare(), chunks
  // kept warm across runs) and outlive the pool epoch below.
  std::vector<Slot>& slots = ctx_.slots;
  std::vector<char>& slot_filled = ctx_.slot_filled;
  auto slot_index = [num_items](std::size_t p, std::size_t item) {
    return p * num_items + item;
  };
  BufferArena& arena = ctx_.arena;
  if (program.mode == Mode::kMove) {
    // A segmented run coalesces: one result buffer per proc, not one per
    // item (the per-item slots alias ranges of it, see below).
    report.items.assign(P, std::vector<Bytes>(seg != nullptr ? 1 : num_items));
    slots.assign(P * num_items, Slot{});
    slot_filled.assign(P * num_items, 0);
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
    if (seg != nullptr) {
      // Coalesced segmented layout: every processor the plan touches gets
      // ONE contiguous result buffer the size of the whole payload, and
      // each segment's slot aliases its range of it.  Deliveries then land
      // in their final position — the arena and the post-run publication
      // pass below are skipped entirely, so a k-segment run pays no more
      // serial memcpy than a bulk single-item run.
      const std::size_t total = seg->payload.size();
      const std::size_t base = total / num_items;
      const std::size_t rem = total % num_items;
      const auto seg_off = [base, rem](std::size_t i) {
        return i * base + std::min(i, rem);
      };
      const auto seg_len = [base, rem](std::size_t i) {
        return base + (i < rem ? 1 : 0);
      };
      for (std::size_t p = 0; p < P; ++p) {
        bool touched = false;
        for (std::size_t i = 0; i < num_items; ++i) {
          touched = touched || used[slot_index(p, i)] != 0;
        }
        if (!touched) continue;
        Bytes& buf = report.items[p][0];
        buf.resize(total);
        for (std::size_t i = 0; i < num_items; ++i) {
          if (!used[slot_index(p, i)]) continue;
          slots[slot_index(p, i)] = Slot{buf.data() + seg_off(i), seg_len(i)};
        }
      }
      for (const InitialPlacement& init : program.initials) {
        const auto item = static_cast<std::size_t>(init.item);
        const Slot& s = slots[slot_index(static_cast<std::size_t>(init.proc),
                                         item)];
        if (s.size != 0) {
          std::memcpy(s.data, seg->payload.data() + seg_off(item), s.size);
        }
        slot_filled[slot_index(static_cast<std::size_t>(init.proc), item)] = 1;
      }
    } else {
      for (std::size_t p = 0; p < P; ++p) {
        for (std::size_t i = 0; i < num_items; ++i) {
          if (!used[slot_index(p, i)]) continue;
          const std::size_t size = (*item_values)[i].size();
          slots[slot_index(p, i)] = Slot{arena.allocate(size), size};
        }
      }
      for (const InitialPlacement& init : program.initials) {
        const Slot& s = slots[slot_index(static_cast<std::size_t>(init.proc),
                                         static_cast<std::size_t>(init.item))];
        const Bytes& v = (*item_values)[static_cast<std::size_t>(init.item)];
        if (!v.empty()) std::memcpy(s.data, v.data(), v.size());
        slot_filled[slot_index(static_cast<std::size_t>(init.proc),
                               static_cast<std::size_t>(init.item))] = 1;
      }
    }
  } else if (program.mode == Mode::kFold) {
    for (std::size_t p = 0; p < P; ++p) report.folded[p] = (*fold_values)[p];
  }
  report.arena_bytes = arena.bytes_used();

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
  const auto suspect_after = std::chrono::milliseconds(rec.suspect_after_ms);

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
    // frozen for suspect_after_ms of blocked waiting.
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
      if (now - w.changed < suspect_after) return false;
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
    // timeout lapses, retransmit with exponential backoff (max_retries
    // ramp steps, then a steady max_backoff cadence) until the ack lands
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
      auto backoff = std::chrono::microseconds(rec.ack_timeout_us);
      const auto max_backoff = std::chrono::microseconds(rec.max_backoff_us);
      Clock::time_point next_retx = Clock::now() + backoff;
      int retries_left = rec.max_retries;
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
            // watchdog.  max_retries bounds the backoff RAMP; past it
            // the cadence stays at max_backoff until the ack lands, the
            // peer is declared dead, or the deadline fires.
            backoffs_ns[p].push_back(static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(backoff)
                    .count()));
            // try_push: if the ring is full the original copy is still
            // queued, so there is nothing to retransmit past.
            if (mb.try_push(m)) ++retries[p];
            if (retries_left > 0) {
              --retries_left;
              backoff = std::min(backoff * static_cast<std::int64_t>(
                                               std::max<std::uint64_t>(
                                                   rec.backoff_factor, 1)),
                                 max_backoff);
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
            const std::size_t si =
                slot_index(p, static_cast<std::size_t>(m.item));
            const Slot& slot = slots[si];
            if (slot.data == nullptr || slot.size != m.size) {
              failure.fail("exec::Engine: P" + std::to_string(wi) +
                           " received item " + std::to_string(m.item) +
                           " with unexpected payload size " +
                           std::to_string(m.size));
              return;
            }
            if (m.size != 0) std::memcpy(slot.data, m.data, m.size);
            slot_filled[si] = 1;
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
              (*operands)[static_cast<std::size_t>(stream.sum_index)];
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

  // Publish the arena-staged kMove slots into the report's user-facing
  // vectors.  This runs after wall_ns is captured and after the pool
  // barrier published every worker's writes, so it is single-threaded and
  // outside the measured makespan.  Segmented runs already delivered in
  // place (their slots alias the report buffers) and skip it.
  if (program.mode == Mode::kMove && seg == nullptr) {
    for (std::size_t p = 0; p < P; ++p) {
      for (std::size_t i = 0; i < num_items; ++i) {
        const std::size_t si = slot_index(p, i);
        if (!slot_filled[si]) continue;
        const Slot& s = slots[si];
        report.items[p][i].assign(s.data, s.data + s.size);
      }
    }
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
