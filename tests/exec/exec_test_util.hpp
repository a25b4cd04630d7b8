#pragma once

#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/engine.hpp"

/// Shared payload helpers for the exec test suites: fixed-width integers
/// and variable-length strings in and out of exec::Bytes, plus the two
/// combine operators the paper's summation footnote distinguishes (a
/// commutative one and a non-commutative one), and an independent oracle
/// for the causality the engine records on each receive.

namespace logpc::exec::testutil {

inline Bytes of_u64(std::uint64_t v) {
  Bytes b(sizeof v);
  std::memcpy(b.data(), &v, sizeof v);
  return b;
}

inline std::uint64_t to_u64(const Bytes& b) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data(), std::min(b.size(), sizeof v));
  return v;
}

inline Bytes of_str(const std::string& s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return Bytes(p, p + s.size());
}

inline std::string to_str(const Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

/// Commutative: 64-bit addition.
inline CombineFn add_u64() {
  return [](Bytes& acc, std::span<const std::byte> rhs) {
    std::uint64_t a = 0, r = 0;
    std::memcpy(&a, acc.data(), std::min(acc.size(), sizeof a));
    std::memcpy(&r, rhs.data(), std::min(rhs.size(), sizeof r));
    a += r;
    acc.resize(sizeof a);
    std::memcpy(acc.data(), &a, sizeof a);
  };
}

/// Associative but NOT commutative: byte concatenation.  Any reordering of
/// the fold shows up as a different string.
inline CombineFn concat() {
  return [](Bytes& acc, std::span<const std::byte> rhs) {
    acc.insert(acc.end(), rhs.begin(), rhs.end());
  };
}

/// Checks every receive's recorded ExecEvent::match against the per-link
/// FIFO pairing rebuilt from the logs alone — the i-th receive on a
/// directed link pairs with the i-th send on it, which holds on the
/// acked path too, since receivers accept each link's messages in
/// sequence order.  A send must carry ExecEvent::kNoMatch.  Returns ""
/// when every event agrees, else a description of the first mismatch.
inline std::string match_errors(const ExecReport& report) {
  std::map<std::pair<ProcId, ProcId>, std::vector<std::uint32_t>> sends;
  for (std::size_t p = 0; p < report.events.size(); ++p) {
    for (std::size_t i = 0; i < report.events[p].size(); ++i) {
      const ExecEvent& ev = report.events[p][i];
      if (ev.kind == ExecEvent::Kind::kSend) {
        sends[{static_cast<ProcId>(p), ev.peer}].push_back(
            static_cast<std::uint32_t>(i));
      }
    }
  }
  std::map<std::pair<ProcId, ProcId>, std::size_t> popped;
  for (std::size_t p = 0; p < report.events.size(); ++p) {
    for (std::size_t i = 0; i < report.events[p].size(); ++i) {
      const ExecEvent& ev = report.events[p][i];
      std::uint32_t want = ExecEvent::kNoMatch;
      if (ev.kind == ExecEvent::Kind::kRecv) {
        const std::pair<ProcId, ProcId> link{ev.peer, static_cast<ProcId>(p)};
        const std::vector<std::uint32_t>& fifo = sends[link];
        const std::size_t k = popped[link]++;
        if (k < fifo.size()) want = fifo[k];
      }
      if (ev.match != want) {
        return "P" + std::to_string(p) + " event " + std::to_string(i) +
               ": match " + std::to_string(ev.match) + ", FIFO pairing " +
               std::to_string(want);
      }
    }
  }
  return "";
}

}  // namespace logpc::exec::testutil
