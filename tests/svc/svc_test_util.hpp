#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <mutex>
#include <span>
#include <utility>

#include "svc/request.hpp"

/// Helpers shared by the service test suites: a gate that holds a run in
/// progress, so a test can keep an engine lent while it queues work
/// behind it.

namespace logpc::svc::testutil {

inline bool ready_now(const std::future<Response>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Holds a run inside its combiner until released: the test learns the
/// run is in progress (wait_entered) and decides when it may finish.
class Gate {
 public:
  void pass() {
    std::unique_lock lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  void wait_entered() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void release() {
    std::lock_guard lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
};

/// `r` (a reduce) with a generic combiner that waits at `gate` before
/// every fold, so its run completes only after gate.release().  The
/// request never fuses: a gated run must hold its engine alone.
inline Request gated(Request r, Gate& gate) {
  r.combine = exec::Combiner(
      [&gate, fold = std::move(r.combine)](exec::Bytes& acc,
                                           std::span<const std::byte> rhs) {
        gate.pass();
        fold(acc, rhs);
      });
  r.combine_tag.clear();
  return r;
}

}  // namespace logpc::svc::testutil
