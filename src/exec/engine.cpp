#include "exec/engine.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "exec/wait.hpp"
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

/// Blocked ranks a deadlock or timeout message names before it summarizes.
constexpr std::size_t kNamedBlocked = 8;

/// Phases in which a rank waits on its current instruction's peer.
bool waits_on_peer(Phase ph) {
  return ph == Phase::kPush || ph == Phase::kAck || ph == Phase::kPop ||
         ph == Phase::kAckBack;
}

/// One run of one Program: steps every rank's cursor on the calling thread
/// until each has finished its stream (or crash-stopped), throwing on a
/// deadlock, a declared rank death, a timeout or a malformed delivery.
/// Run-level tallies accumulate straight into the report.
class Stepper {
 public:
  Stepper(const Program& program, const fault::Injector* injector,
          const Combiner* op, const Operands* operands, RunContext& ctx,
          ExecReport& report, Clock::time_point start,
          std::chrono::milliseconds timeout)
      : program_(program),
        injector_(injector),
        reliable_(injector != nullptr),
        op_(op),
        kernel_(op != nullptr ? op->kernel() : nullptr),
        operands_(operands),
        ctx_(ctx),
        report_(report),
        start_(start),
        deadline_(start + timeout) {}

  /// Steps runnable ranks in sweeps until every cursor is done or dead.
  /// Each sweep steps the ranks made runnable during the previous one, in
  /// the order they became runnable; the first sweep steps every rank in
  /// rank order.
  void run() {
    std::vector<Cursor>& cursors = ctx_.cursors;
    const bool fold_mode = program_.mode == Mode::kFold;
    for (std::size_t p = 0; p < cursors.size(); ++p) {
      const ProcProgram& stream = program_.procs[p];
      Cursor& c = cursors[p];
      c.acc_have = fold_mode;
      report_.events[p].reserve(stream.instrs.size());
      if (stream.instrs.empty()) {
        c.phase = Phase::kDone;
        continue;
      }
      ++remaining_;
      c.queued = true;
      ctx_.ready.push_back(static_cast<std::uint32_t>(p));
      if (injector_ != nullptr && injector_->is_slow(static_cast<ProcId>(p))) {
        report_.fault_events[p].push_back(fault::FaultEvent{
            fault::FaultKind::kSlow, static_cast<ProcId>(p), kNoProc, 0});
      }
    }
    while (remaining_ > 0) {
      for (const std::uint32_t p : ctx_.ready) {
        cursors[p].queued = false;
        step(p);
      }
      ctx_.ready.clear();
      std::swap(ctx_.ready, ctx_.next);
      if (!ctx_.ready.empty() || remaining_ == 0) continue;
      if (!reliable_) {
        throw std::runtime_error("exec::Engine: deadlock in " +
                                 program_.label + ", no rank can advance: " +
                                 blocked_ranks());
      }
      wait();
      std::swap(ctx_.ready, ctx_.next);
    }
  }

  std::size_t kernel_bytes = 0;    ///< payload bytes the typed kernel folded
  std::vector<double> backoffs_ns;  ///< lapsed retransmit waits

 private:
  [[nodiscard]] std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  /// Makes rank r runnable in the next sweep (no-op when it already is,
  /// or has finished).
  void wake(ProcId r) {
    Cursor& c = ctx_.cursors[static_cast<std::size_t>(r)];
    if (c.queued || c.phase >= Phase::kDone) return;
    c.queued = true;
    ctx_.next.push_back(static_cast<std::uint32_t>(r));
  }

  /// Runs rank p until it finishes, crash-stops, or blocks.
  void step(std::size_t p) {
    Cursor& c = ctx_.cursors[p];
    const std::vector<Instr>& instrs = program_.procs[p].instrs;
    ++c.beats;  // a live rank's heartbeat moves whenever it is visited
    while (c.pc < instrs.size()) {
      const Instr& ins = instrs[c.pc];
      if (c.phase <= Phase::kSlow && !fetch(p, c)) return;
      switch (ins.op) {
        case OpCode::kSend:
          if (!send(p, c, ins)) return;
          break;
        case OpCode::kRecv:
          if (!recv(p, c, ins)) return;
          break;
        case OpCode::kCombineLocal: {
          const auto& local = operands_->operands[static_cast<std::size_t>(
              program_.procs[p].sum_index)];
          for (std::int32_t i = 0; i < ins.count; ++i) {
            const Bytes& operand = local[c.operand_pos++];
            fold(p, c, std::span<const std::byte>(operand.data(),
                                                  operand.size()));
          }
          break;
        }
      }
      ++c.pc;
      c.phase = Phase::kFetch;
    }
    c.phase = Phase::kDone;
    --remaining_;
  }

  /// Instruction-boundary faults: the crash-stop, then the slow-rank
  /// stall.  False while the rank cannot begin its instruction.
  bool fetch(std::size_t p, Cursor& c) {
    if (c.phase == Phase::kFetch) {
      c.phase = Phase::kStart;
      if (injector_ == nullptr) return true;
      const auto rank = static_cast<ProcId>(p);
      if (injector_->dies_at(rank, c.pc)) {
        // Crash-stop: no more sends, receives, acks, or heartbeats.  The
        // peers' failure detectors take it from here.
        report_.fault_events[p].push_back(fault::FaultEvent{
            fault::FaultKind::kDead, rank, kNoProc, c.pc});
        c.phase = Phase::kDead;
        --remaining_;
        return false;
      }
      if (!injector_->is_slow(rank)) return true;
      c.not_before =
          Clock::now() + std::chrono::nanoseconds(injector_->slow_stall_ns());
      c.phase = Phase::kSlow;
    }
    if (Clock::now() < c.not_before) return false;
    c.phase = Phase::kStart;
    return true;
  }

  /// Starts watching `peer`'s heartbeat for a wait that may begin now.
  void watch(Cursor& c, ProcId peer) {
    if (!reliable_) return;
    c.peer_beats = ctx_.cursors[static_cast<std::size_t>(peer)].beats;
    c.peer_changed = Clock::now();
  }

  /// One send, resumed at c.phase.  True once complete.
  bool send(std::size_t p, Cursor& c, const Instr& ins) {
    const auto link = static_cast<std::size_t>(ins.link);
    SpscMailbox& mb = *ctx_.mailboxes[link];
    if (c.phase == Phase::kStart) {
      c.start_ns = now_ns();
      if (program_.mode == Mode::kMove) {
        const Slot& s = slot(p, ins.item);
        c.m = Message{ins.item, s.data, s.size, 0};
      } else {
        const Bytes& acc = report_.folded[p];
        c.m = Message{ins.item, acc.data(), acc.size(), 0};
      }
      c.phase = Phase::kPush;
      if (reliable_) {
        c.m.seq = ++ctx_.send_seq[link];
        const std::uint64_t delay = injector_->send_delay_ns(
            static_cast<ProcId>(p), ins.link, c.m.seq);
        if (delay > 0) {
          report_.fault_events[p].push_back(fault::FaultEvent{
              fault::FaultKind::kDelay, static_cast<ProcId>(p), ins.peer,
              c.m.seq});
          c.not_before = Clock::now() + std::chrono::nanoseconds(delay);
          c.phase = Phase::kDelay;
        } else {
          watch(c, ins.peer);
        }
      }
    }
    if (c.phase == Phase::kDelay) {
      if (Clock::now() < c.not_before) return false;
      c.phase = Phase::kPush;
      watch(c, ins.peer);
    }
    if (c.phase == Phase::kPush) {
      if (!mb.try_push(c.m)) return false;
      wake(ins.peer);
      c.xfer_ns = now_ns();
      if (reliable_) {
        c.phase = Phase::kAck;
        c.backoff = kAckTimeout;
        c.next_retx = Clock::now() + c.backoff;
        c.retries_left = kMaxRetries;
        watch(c, ins.peer);
      }
    }
    if (c.phase == Phase::kAck) {
      AckRing& ar = *ctx_.acks[link];
      std::uint64_t& acked = ctx_.acked[link];
      std::uint64_t a = 0;
      bool drained = false;
      while (ar.try_pop(a)) {
        acked = std::max(acked, a);
        drained = true;
      }
      if (drained) wake(ins.peer);  // its ack push may have found no room
      if (acked < c.m.seq) return false;
    }
    const std::uint64_t end = reliable_ ? now_ns() : c.xfer_ns;
    report_.events[p].push_back(ExecEvent{ExecEvent::Kind::kSend, ins.peer,
                                          ins.item, c.start_ns, c.xfer_ns,
                                          end, ins.when});
    report_.payload_bytes += c.m.size;
    return true;
  }

  /// One receive, resumed at c.phase.  True once complete.
  bool recv(std::size_t p, Cursor& c, const Instr& ins) {
    const auto link = static_cast<std::size_t>(ins.link);
    if (c.phase == Phase::kStart) {
      c.start_ns = now_ns();
      c.phase = Phase::kPop;
      watch(c, ins.peer);
    }
    if (c.phase == Phase::kPop &&
        !(reliable_ ? pop_acked(p, c, ins, link) : pop(c, ins, link))) {
      return false;
    }
    if (c.phase == Phase::kAckBack) {
      if (!ctx_.acks[link]->try_push(ctx_.accepted[link])) return false;
      wake(ins.peer);
    }
    c.xfer_ns = now_ns();
    const Message& m = c.m;
    if (m.item != ins.item) {
      throw std::runtime_error(
          "exec::Engine: P" + std::to_string(p) + " expected item " +
          std::to_string(ins.item) + " from P" + std::to_string(ins.peer) +
          ", got " + std::to_string(m.item));
    }
    if (program_.mode == Mode::kMove) {
      const Slot& s = slot(p, m.item);
      if (s.size != m.size) {
        throw std::runtime_error(
            "exec::Engine: P" + std::to_string(p) + " received item " +
            std::to_string(m.item) + " with unexpected payload size " +
            std::to_string(m.size));
      }
      if (m.size != 0) std::memcpy(s.data, m.data, m.size);
    } else {
      fold(p, c, std::span<const std::byte>(m.data, m.size));
    }
    report_.deliveries[p].push_back(validate::DeliveryRecord{ins.peer, m.item});
    report_.events[p].push_back(ExecEvent{ExecEvent::Kind::kRecv, ins.peer,
                                          ins.item, c.start_ns, c.xfer_ns,
                                          now_ns(), ins.when});
    return true;
  }

  /// Fault-free pop into c.m.  A chained receive (Instr::chain > 1) that
  /// pops its head message also claims whatever the producer already
  /// queued behind it — up to the rest of the chain — in one bulk pop, and
  /// the following receives take from that batch without touching the
  /// ring.  Unchained receives (e.g. all-to-all's rotating links) take a
  /// plain pop.
  bool pop(Cursor& c, const Instr& ins, std::size_t link) {
    PendingQ& pq = ctx_.pending[link];
    if (pq.head < pq.buf.size()) {
      c.m = pq.buf[pq.head++];
      return true;
    }
    SpscMailbox& mb = *ctx_.mailboxes[link];
    if (!mb.try_pop(c.m)) return false;
    if (ins.chain > 1) {
      pq.buf.clear();
      pq.head = 0;
      (void)mb.pop_bulk(pq.buf, static_cast<std::size_t>(ins.chain) - 1);
    }
    wake(ins.peer);  // its push may have found the ring full
    return true;
  }

  /// Acked pop: discards retransmitted duplicates exactly-once (re-acking
  /// best-effort so the sender stops resending), applies injected drops,
  /// and on acceptance moves to kAckBack.  False while nothing acceptable
  /// has arrived.
  bool pop_acked(std::size_t p, Cursor& c, const Instr& ins,
                 std::size_t link) {
    SpscMailbox& mb = *ctx_.mailboxes[link];
    AckRing& ar = *ctx_.acks[link];
    std::uint64_t& accepted = ctx_.accepted[link];
    const std::uint64_t expect = accepted + 1;
    while (mb.try_pop(c.m)) {
      wake(ins.peer);
      if (c.m.seq < expect) {
        ++report_.duplicates;
        ar.try_push(accepted);
        continue;
      }
      if (c.m.seq > expect) {
        throw std::runtime_error(
            "exec::Engine: P" + std::to_string(p) +
            " sequence gap on link from P" + std::to_string(ins.peer) +
            " (got " + std::to_string(c.m.seq) + ", expected " +
            std::to_string(expect) + ")");
      }
      const std::uint64_t attempt = ++ctx_.attempts[link];
      if (injector_->drop_delivery(static_cast<ProcId>(p), ins.link, c.m.seq,
                                   attempt)) {
        // Discarded in transit: no ack, so the sender retransmits.
        report_.fault_events[p].push_back(
            fault::FaultEvent{fault::FaultKind::kDrop, static_cast<ProcId>(p),
                              ins.peer, c.m.seq});
        continue;
      }
      accepted = c.m.seq;
      ctx_.attempts[link] = 0;
      c.phase = Phase::kAckBack;
      watch(c, ins.peer);
      return true;
    }
    return false;
  }

  // kFold seeds the accumulator with the processor's own value (already
  // copied into report.folded); kSum starts empty.  A typed combiner takes
  // the fused kernel on every size-matched fold; anything else — including
  // the first contribution, which is assigned — goes through the generic
  // lane.  The fold ORDER is the instruction stream either way, so
  // non-commutative combination_order survives intact.
  void fold(std::size_t p, Cursor& c, std::span<const std::byte> rhs) {
    Bytes& acc = report_.folded[p];
    if (!c.acc_have) {
      acc.assign(rhs.begin(), rhs.end());
      c.acc_have = true;
      return;
    }
    if (kernel_ != nullptr && acc.size() == rhs.size()) {
      kernel_(acc.data(), rhs.data(), acc.size());
      ++report_.kernel_folds;
      kernel_bytes += rhs.size();
    } else {
      (op_->generic())(acc, rhs);
      ++report_.generic_folds;
    }
  }

  [[nodiscard]] const Slot& slot(std::size_t p, ItemId item) const {
    return ctx_.slots[p * static_cast<std::size_t>(program_.num_items) +
                      static_cast<std::size_t>(item)];
  }

  /// Acked delivery with no rank runnable: walks the wait ladder until a
  /// stall ends or a slow tick's bookkeeping makes a rank runnable.
  void wait() {
    Waiter w;
    for (;;) {
      const Clock::time_point now = Clock::now();
      for (std::size_t p = 0; p < ctx_.cursors.size(); ++p) {
        const Cursor& c = ctx_.cursors[p];
        if ((c.phase == Phase::kSlow || c.phase == Phase::kDelay) &&
            now >= c.not_before) {
          wake(static_cast<ProcId>(p));
        }
      }
      if (!ctx_.next.empty()) return;
      if (w.should_tick()) {
        tick();
        if (!ctx_.next.empty()) return;
        w.idle();
      }
    }
  }

  /// The slow-tick bookkeeping: the watchdog deadline, then — after every
  /// live rank's heartbeat has moved — the failure detector and the
  /// retransmit clock of every blocked rank.
  void tick() {
    const Clock::time_point now = Clock::now();
    if (now > deadline_) {
      throw std::runtime_error("exec::Engine: timeout in " + program_.label +
                               ": " + blocked_ranks());
    }
    for (Cursor& c : ctx_.cursors) {
      if (c.phase < Phase::kDone) ++c.beats;
    }
    for (std::size_t p = 0; p < ctx_.cursors.size(); ++p) {
      Cursor& c = ctx_.cursors[p];
      if (!waits_on_peer(c.phase)) continue;
      const Instr& ins = program_.procs[p].instrs[c.pc];
      suspect(p, c, ins.peer, now);
      if (c.phase == Phase::kAck && now >= c.next_retx) retransmit(c, ins, now);
    }
  }

  /// Accuses `peer` dead once its heartbeat has stayed frozen for
  /// kSuspectAfter while rank p waited on it.
  void suspect(std::size_t p, Cursor& c, ProcId peer, Clock::time_point now) {
    const std::uint64_t cur =
        ctx_.cursors[static_cast<std::size_t>(peer)].beats;
    if (cur != c.peer_beats) {
      c.peer_beats = cur;
      c.peer_changed = now;
      return;
    }
    if (now - c.peer_changed < kSuspectAfter) return;
    if (obs::enabled()) {
      obs::MetricsRegistry::global()
          .counter("logpc_fault_rank_failures_total",
                   "ranks declared dead by the engine failure detector")
          .inc();
    }
    throw RankFailure(peer, "exec::Engine: rank " + std::to_string(peer) +
                                " declared dead (heartbeat frozen while P" +
                                std::to_string(p) + " waited on it, " +
                                program_.label + ")");
  }

  /// Resends an unacked message for as long as the ack is missing: a
  /// receiver that was busy on another link while the exponential ramp ran
  /// out may still drop the queued copies, and a sender that stops
  /// resending would deadlock the pair until the watchdog.  kMaxRetries
  /// bounds the backoff RAMP; past it the cadence stays at kMaxBackoff
  /// until the ack lands, the peer is declared dead, or the deadline
  /// fires.
  void retransmit(Cursor& c, const Instr& ins, Clock::time_point now) {
    backoffs_ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(c.backoff)
            .count()));
    // try_push: if the ring is full the original copy is still queued, so
    // there is nothing to retransmit past.
    if (ctx_.mailboxes[static_cast<std::size_t>(ins.link)]->try_push(c.m)) {
      ++report_.retries;
      wake(ins.peer);
    }
    if (c.retries_left > 0) {
      --c.retries_left;
      c.backoff = std::min(c.backoff * kBackoffFactor, kMaxBackoff);
    }
    c.next_retx = now + c.backoff;
  }

  /// "P3 recv item 0 from P1 (instr 2); ..." for every unfinished rank,
  /// the first kNamedBlocked by name.
  [[nodiscard]] std::string blocked_ranks() const {
    std::string out;
    std::size_t named = 0;
    std::size_t more = 0;
    for (std::size_t p = 0; p < ctx_.cursors.size(); ++p) {
      const Cursor& c = ctx_.cursors[p];
      if (c.phase >= Phase::kDone) continue;
      if (named == kNamedBlocked) {
        ++more;
        continue;
      }
      const Instr& ins = program_.procs[p].instrs[c.pc];
      out += (named++ == 0 ? "P" : "; P") + std::to_string(p);
      if (ins.op == OpCode::kCombineLocal) {
        out += " combine";
      } else if (ins.op == OpCode::kSend) {
        out += " send item " + std::to_string(ins.item) + " to P" +
               std::to_string(ins.peer);
      } else {
        out += " recv item " + std::to_string(ins.item) + " from P" +
               std::to_string(ins.peer);
      }
      out += " (instr " + std::to_string(c.pc) + ")";
    }
    if (more > 0) out += "; and " + std::to_string(more) + " more";
    return out;
  }

  const Program& program_;
  const fault::Injector* injector_;
  const bool reliable_;
  const Combiner* op_;
  const KernelFn kernel_;
  const Operands* operands_;
  RunContext& ctx_;
  ExecReport& report_;
  const Clock::time_point start_;
  const Clock::time_point deadline_;
  std::size_t remaining_ = 0;  ///< cursors neither done nor dead
};

}  // namespace

Engine& Engine::shared() {
  static Engine* engine = new Engine();  // leaked: outlives static teardown
  return *engine;
}

ExecReport Engine::run(const Program& program, const Inputs& inputs,
                       const fault::Injector* injector) {
  // --- resolve and validate the inputs against the program ---------------
  // The one validation point for every run.  Exactly one of these views is
  // set — the one matching program.mode, checked first — and the stepper
  // reads it directly.
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


  // Serialize runs on this engine *before* starting the watchdog clock:
  // a run queued behind another must not burn its timeout budget waiting.
  std::lock_guard run_lock(run_mu_);

  // --- run state: the engine's warm per-run context ----------------------
  // Buffers are warm when the context's previous shape matches and
  // prepare() recycled every ring and queue without allocating.
  RunShape shape;
  shape.links = program.links.size();
  shape.capacity = cap;
  shape.reliable = injector != nullptr;
  shape.procs = P;

  ExecReport report;
  report.params = program.params;
  report.mode = program.mode;
  report.label = program.label;
  report.predicted_makespan = program.predicted_makespan;
  report.messages = program.num_messages;
  report.mailbox_capacity = cap;
  report.warm_buffers = ctx_.prepare(shape);
  report.events.resize(P);
  report.deliveries.resize(P);
  report.fault_events.resize(P);
  report.folded.resize(P);

  // --- kMove slots: in place in the report's result buffers -------------
  // Every (processor, item) slot the plan touches is sized in its final
  // ExecReport::items buffer before the first step, so seeding is one
  // memcpy from the caller's bytes, each receive is one memcpy into its
  // slot, and nothing is copied out afterwards.  No allocator call runs
  // while ranks step.  A Payload run gives each touched processor one
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


  const Clock::time_point start = Clock::now();
  Stepper stepper(program, injector, op, operands, ctx_, report, start,
                  std::chrono::milliseconds(opts_.timeout_ms));
  {
    obs::Span run_span("exec.run", "exec");
    if (run_span.active()) {
      run_span.set_arg(program.label + " P=" +
                       std::to_string(program.params.P));
    }
    try {
      stepper.run();
    } catch (...) {
      // Drain every ring so an aborted run leaves no stale message (or
      // stale ack) behind for a later run to trip on.  (The context
      // re-drains on its next prepare() as well, but a throwing run must
      // not leave the shared rings dirty in between.)
      Message m;
      for (const auto& mb : ctx_.mailboxes) {
        while (mb->try_pop(m)) {
        }
      }
      std::uint64_t a = 0;
      for (const auto& ar : ctx_.acks) {
        while (ar->try_pop(a)) {
        }
      }
      throw;
    }
    report.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  }

#ifndef NDEBUG
  // The documented ordering guarantee of ExecReport::events: a rank's
  // cursor records its events sequentially on a monotonic clock, so
  // per-processor logs are non-decreasing in start_ns and op intervals
  // never overlap.
  for (const auto& evs : report.events) {
    for (std::size_t i = 1; i < evs.size(); ++i) {
      assert(evs[i].start_ns >= evs[i - 1].start_ns &&
             "ExecReport::events must be non-decreasing in start_ns");
      assert(evs[i].start_ns >= evs[i - 1].end_ns &&
             "ExecReport::events intervals must not overlap");
    }
  }
#endif

  for (const auto& mb : ctx_.mailboxes) {
    report.max_mailbox_occupancy =
        std::max(report.max_mailbox_occupancy, mb->max_occupancy());
  }
  if (obs::enabled()) {
    record_metrics(report, op, injector != nullptr, stepper.kernel_bytes,
                   stepper.backoffs_ns);
  }
  return report;
}

void Engine::record_metrics(const ExecReport& report, const Combiner* op,
                            bool reliable, std::size_t kernel_bytes,
                            const std::vector<double>& backoffs_ns) {
  auto& reg = obs::MetricsRegistry::global();
  auto found = label_metrics_.find(report.label);
  if (found == label_metrics_.end()) {
    const std::string labels = "collective=\"" + report.label + "\"";
    found = label_metrics_
                .emplace(report.label,
                         LabelMetrics{
                             &reg.counter("logpc_exec_runs_total",
                                          "collective executions on the "
                                          "exec engine",
                                          labels),
                             &reg.counter("logpc_exec_messages_total",
                                          "messages moved through exec "
                                          "mailboxes",
                                          labels),
                             &reg.counter("logpc_exec_payload_bytes_total",
                                          "payload bytes moved through exec "
                                          "mailboxes",
                                          labels),
                             &reg.counter("logpc_exec_warm_runs_total",
                                          "runs that started no thread on "
                                          "the request path",
                                          labels),
                             &reg.histogram("logpc_exec_run_latency_ns",
                                            obs::default_latency_buckets_ns(),
                                            "wall-clock duration of one "
                                            "executed collective",
                                            labels)})
                .first;
  }
  const LabelMetrics& m = found->second;
  m.runs->inc();
  m.messages->inc(report.messages);
  m.payload_bytes->inc(report.payload_bytes);
  m.latency->observe(static_cast<double>(report.wall_ns));
  m.warm_runs->inc();

  if (op != nullptr && op->typed() &&
      (report.kernel_folds > 0 || report.generic_folds > 0)) {
    const KernelSpec spec = op->spec();
    KernelMetrics& k =
        kernel_metrics_[static_cast<std::size_t>(spec.op) * kNumDTypes +
                        static_cast<std::size_t>(spec.dtype)];
    const auto klabels = [&spec] {
      return "op=\"" + std::string(op_name(spec.op)) + "\",dtype=\"" +
             dtype_name(spec.dtype) + "\"";
    };
    if (report.kernel_folds > 0) {
      if (k.folds == nullptr) {
        k.folds = &reg.counter("logpc_exec_kernel_folds_total",
                               "folds executed by typed SIMD combine kernels",
                               klabels());
        k.fold_bytes =
            &reg.counter("logpc_exec_kernel_fold_bytes_total",
                         "payload bytes folded by typed combine kernels",
                         klabels());
      }
      k.folds->inc(report.kernel_folds);
      k.fold_bytes->inc(kernel_bytes);
    }
    if (report.generic_folds > 0) {
      if (k.fallback_folds == nullptr) {
        k.fallback_folds =
            &reg.counter("logpc_exec_kernel_fallback_folds_total",
                         "folds a typed combiner routed to the generic lane "
                         "(operand size mismatch)",
                         klabels());
      }
      k.fallback_folds->inc(report.generic_folds);
    }
  }

  if (!reliable) return;
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
                "kind=\"" + std::string(fault::fault_kind_name(kind)) + "\"")
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
  for (const double b : backoffs_ns) backoff_hist.observe(b);
}

}  // namespace logpc::exec
