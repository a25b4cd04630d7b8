#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

/// \file kernels.hpp
/// Typed combine kernels: the exec engine's fast lane for fold traffic.
///
/// PRs 3-4 route every kFold/kSum combine through a type-erased
/// `std::function` (`CombineFn`), which is the right *generic* contract —
/// any associative operator over raw bytes — but pays an indirect call,
/// per-element `memcpy` staging and no vectorization on the hottest loop
/// the engine owns.  This header adds a small registry of contiguous,
/// auto-vectorizable fused fold loops for the operator × dtype pairs that
/// dominate real summation traffic (sum/min/max over i32/i64/f32/f64),
/// dispatched at run time from a `KernelSpec`.
///
/// Semantics: a kernel folds acc[i] <- op(acc[i], rhs[i]) elementwise over
/// the leading floor(bytes / sizeof(T)) elements; trailing bytes that do
/// not fill an element are left untouched in the accumulator.  The generic
/// reference path (`generic_combine`) implements exactly the same
/// semantics one element at a time through memcpy staging — it is both the
/// engine's fallback when a payload disagrees with the spec (size
/// mismatch) and the baseline `bench_kernels` reports speedups against.
/// Kernels never require aligned pointers: misaligned operands take a
/// scalar memcpy lane, so arbitrary byte offsets stay UB-free under
/// UBSan.  The engine folds into `Bytes` accumulators, whose operator-new
/// storage (aligned to at least 16) covers every dtype's alignment, so in
/// practice the vector lane runs.
///
/// Order preservation: kernels change how one fold step executes, never
/// which fold steps run or in what order — the compiled instruction
/// streams (including non-commutative kSum `combination_order`
/// interleaving) are untouched, so a typed run is step-for-step the same
/// fold sequence as the generic run.

namespace logpc::exec {

using Bytes = std::vector<std::byte>;

/// Left-fold step for kFold/kSum runs: acc <- op(acc, rhs).  Must be
/// associative; need not be commutative — the engine folds in exactly the
/// plan's combination order.  The very first contribution is assigned, not
/// folded (the engine handles that; `op` never sees an empty accumulator).
using CombineFn =
    std::function<void(Bytes& acc, std::span<const std::byte> rhs)>;

enum class Op : std::uint8_t { kSum = 0, kMin = 1, kMax = 2 };
enum class DType : std::uint8_t { kI32 = 0, kI64 = 1, kF32 = 2, kF64 = 3 };

inline constexpr std::size_t kNumOps = 3;
inline constexpr std::size_t kNumDTypes = 4;

[[nodiscard]] const char* op_name(Op op) noexcept;
[[nodiscard]] const char* dtype_name(DType t) noexcept;
[[nodiscard]] std::size_t elem_size(DType t) noexcept;

/// One registry key: an elementwise operator over a dtype.
struct KernelSpec {
  Op op = Op::kSum;
  DType dtype = DType::kF64;

  friend bool operator==(const KernelSpec& a, const KernelSpec& b) {
    return a.op == b.op && a.dtype == b.dtype;
  }
  [[nodiscard]] std::string name() const {
    return std::string(op_name(op)) + "_" + dtype_name(dtype);
  }
};

/// A fused fold loop: acc[i] <- op(acc[i], rhs[i]) over floor(bytes/elem)
/// elements.  acc and rhs must not overlap.
using KernelFn = void (*)(std::byte* acc, const std::byte* rhs,
                          std::size_t bytes);

/// Runtime dispatch; never null — every (Op, DType) pair has a kernel.
[[nodiscard]] KernelFn lookup(const KernelSpec& spec) noexcept;

/// The erased reference path for `spec`, as a type-erased CombineFn: one
/// element at a time, each application through a std::function, so it
/// keeps the dispatch cost the engine paid before the typed registry,
/// when combines were per-item std::function calls over scalar-sized
/// items (no fusing, unrolling or vectorization across elements).
/// Byte-identical to the kernel for every input (same per-element
/// operations in the same order).
[[nodiscard]] CombineFn generic_combine(const KernelSpec& spec);

/// What the engine folds with: either a generic type-erased CombineFn, or
/// a KernelSpec whose typed kernel handles every size-matched fold with
/// `generic_combine(spec)` as the fallback lane.
class Combiner {
 public:
  Combiner() = default;
  /*implicit*/ Combiner(CombineFn fn) : generic_(std::move(fn)) {}
  explicit Combiner(const KernelSpec& spec)
      : generic_(generic_combine(spec)),
        kernel_(lookup(spec)),
        spec_(spec),
        typed_(true) {}

  [[nodiscard]] bool valid() const { return static_cast<bool>(generic_); }
  [[nodiscard]] bool typed() const { return typed_; }
  /// nullptr when untyped.
  [[nodiscard]] KernelFn kernel() const { return typed_ ? kernel_ : nullptr; }
  [[nodiscard]] const KernelSpec& spec() const { return spec_; }
  [[nodiscard]] const CombineFn& generic() const { return generic_; }

  /// One fold step with the engine's dispatch rule: the typed kernel when
  /// the operand sizes agree, the generic lane otherwise.
  void operator()(Bytes& acc, std::span<const std::byte> rhs) const {
    if (typed_ && acc.size() == rhs.size()) {
      kernel_(acc.data(), rhs.data(), acc.size());
    } else {
      generic_(acc, rhs);
    }
  }

 private:
  CombineFn generic_;
  KernelFn kernel_ = nullptr;
  KernelSpec spec_{};
  bool typed_ = false;
};

}  // namespace logpc::exec
