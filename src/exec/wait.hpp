#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

/// \file wait.hpp
/// The engine's one wait strategy.  Only an acked-delivery run ever waits:
/// when no rank can advance, it is waiting for time to pass (a stall to
/// end, a retransmit to come due, a silent peer to be declared dead), and
/// it walks this adaptive ladder:
///
///   tier 1  spin with cpu_relax() (PAUSE/YIELD) for kRelaxSpins attempts:
///           the cheapest reaction when the condition flips within a few
///           hundred cycles;
///   tier 2  yield once per failed attempt, ceding the core to other
///           threads of the process (another engine's dispatcher, say),
///           with a *slow tick* every kSlowTickSpins attempts where the
///           caller runs its deadline / failure-detector / retransmit
///           bookkeeping and then a capped exponential yield burst (1, 2,
///           4, ... up to kMaxYieldBurst extra yields).
///
/// A waiter never sleeps, so heartbeats and deadline checks keep running
/// at the slow-tick cadence for as long as it waits.

namespace logpc::exec {

/// One PAUSE/YIELD-class hint to the core that we are spinning.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Per-blocking-wait cursor through the ladder.  Usage:
///
///   Waiter w;
///   while (!attempt()) {
///     if (abort) return false;
///     if (w.should_tick()) {
///       ... deadline / suspect / retransmit bookkeeping ...
///       w.idle();
///     }
///   }
class Waiter {
 public:
  /// Tier-1 attempts before yielding begins.  Deliberately short: PAUSE
  /// costs ~100+ cycles on modern x86.
  static constexpr std::uint32_t kRelaxSpins = 8;
  /// Failed attempts between two slow ticks (bookkeeping runs).
  static constexpr std::uint32_t kSlowTickSpins = 256;
  /// Cap on the yield burst a slow tick adds.
  static constexpr std::uint32_t kMaxYieldBurst = 16;

  /// Advances one failed attempt.  Returns true when the caller should run
  /// its slow-path bookkeeping and then call idle(); returns false after
  /// one tier-1 cpu_relax or tier-2 yield.
  bool should_tick() noexcept {
    ++attempts_;
    if (ticks_ == 0 && attempts_ <= kRelaxSpins) {
      cpu_relax();
      return false;
    }
    if (attempts_ < kSlowTickSpins) {
      // Past tier 1 the condition is not flipping soon: cede the core.
      std::this_thread::yield();
      return false;
    }
    attempts_ = 0;
    ++ticks_;
    return true;
  }

  /// The yield burst after the caller's slow-path checks passed.
  void idle() noexcept {
    for (std::uint32_t i = 0; i < burst_; ++i) std::this_thread::yield();
    burst_ = burst_ < kMaxYieldBurst ? burst_ * 2 : kMaxYieldBurst;
  }

 private:
  std::uint32_t attempts_ = 0;
  std::uint32_t burst_ = 1;
  std::uint64_t ticks_ = 0;
};

}  // namespace logpc::exec
