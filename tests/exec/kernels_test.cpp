#include "exec/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bcast/all_to_all.hpp"
#include "bcast/reduction.hpp"
#include "bcast/single_item.hpp"
#include "exec/engine.hpp"
#include "exec_test_util.hpp"
#include "runtime/planner.hpp"
#include "sum/executor.hpp"
#include "sum/summation_tree.hpp"

/// Property tests for the exec fast lane: typed combine kernels must be
/// byte-for-byte interchangeable with the scalar generic reference on every
/// input (same per-element ops in the same order — true even for floats),
/// the engine must produce bitwise-identical results whichever lane it
/// takes, and fault injection under it must not change any observable
/// result.

namespace logpc::exec {
namespace {

namespace tu = testutil;

const Op kAllOps[] = {Op::kSum, Op::kMin, Op::kMax};
const DType kAllDTypes[] = {DType::kI32, DType::kI64, DType::kF32,
                            DType::kF64};

Bytes random_bytes(std::mt19937& rng, std::size_t n) {
  Bytes b(n);
  std::uniform_int_distribution<int> d(0, 255);
  for (auto& x : b) x = static_cast<std::byte>(d(rng));
  return b;
}

/// Random bytes that reinterpret as finite floats (and arbitrary ints):
/// keeps NaN out so min/max comparisons exercise the ordered path too.
Bytes random_finite(std::mt19937& rng, std::size_t n, DType t) {
  Bytes b = random_bytes(rng, n);
  std::uniform_real_distribution<double> d(-1e6, 1e6);
  if (t == DType::kF32) {
    for (std::size_t i = 0; i + sizeof(float) <= n; i += sizeof(float)) {
      const float v = static_cast<float>(d(rng));
      std::memcpy(b.data() + i, &v, sizeof v);
    }
  } else if (t == DType::kF64) {
    for (std::size_t i = 0; i + sizeof(double) <= n; i += sizeof(double)) {
      const double v = d(rng);
      std::memcpy(b.data() + i, &v, sizeof v);
    }
  }
  return b;
}

// ---------------------------------------------------------------------------
// Kernel <-> generic reference equivalence
// ---------------------------------------------------------------------------

TEST(Kernels, EverySpecHasAKernelAndAName) {
  for (const Op op : kAllOps) {
    for (const DType t : kAllDTypes) {
      const KernelSpec spec{op, t};
      EXPECT_NE(lookup(spec), nullptr) << spec.name();
      EXPECT_FALSE(spec.name().empty());
      EXPECT_TRUE(static_cast<bool>(generic_combine(spec))) << spec.name();
    }
  }
}

TEST(Kernels, KernelMatchesGenericReferenceBytewise) {
  std::mt19937 rng(1993);
  const std::size_t sizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                               63, 64, 65, 256, 1000, 4096, 4099};
  for (const Op op : kAllOps) {
    for (const DType t : kAllDTypes) {
      const KernelSpec spec{op, t};
      const KernelFn k = lookup(spec);
      const CombineFn g = generic_combine(spec);
      for (const std::size_t n : sizes) {
        const Bytes acc0 = random_finite(rng, n, t);
        const Bytes rhs = random_finite(rng, n, t);
        Bytes via_kernel = acc0;
        Bytes via_generic = acc0;
        k(via_kernel.data(), rhs.data(), n);
        g(via_generic, std::span<const std::byte>(rhs.data(), rhs.size()));
        EXPECT_EQ(via_kernel, via_generic) << spec.name() << " n=" << n;
        // Tail bytes past the last whole element are untouched.
        const std::size_t folded = (n / elem_size(t)) * elem_size(t);
        for (std::size_t i = folded; i < n; ++i) {
          EXPECT_EQ(via_kernel[i], acc0[i]) << spec.name() << " tail@" << i;
        }
      }
    }
  }
}

TEST(Kernels, KernelMatchesGenericOnArbitraryByteBits) {
  // Raw random bits: exercises NaN payloads, negative zero, denormals and
  // every integer pattern.  Both lanes run the identical per-element
  // operation, so even unordered float comparisons must agree bitwise.
  std::mt19937 rng(7);
  for (const Op op : kAllOps) {
    for (const DType t : kAllDTypes) {
      const KernelSpec spec{op, t};
      const KernelFn k = lookup(spec);
      const CombineFn g = generic_combine(spec);
      for (int round = 0; round < 8; ++round) {
        const std::size_t n = 8 * elem_size(t) + (round % 3);
        const Bytes acc0 = random_bytes(rng, n);
        const Bytes rhs = random_bytes(rng, n);
        Bytes via_kernel = acc0;
        Bytes via_generic = acc0;
        k(via_kernel.data(), rhs.data(), n);
        g(via_generic, std::span<const std::byte>(rhs.data(), rhs.size()));
        EXPECT_EQ(via_kernel, via_generic) << spec.name();
      }
    }
  }
}

TEST(Kernels, MisalignedOperandsMatchAlignedResults) {
  std::mt19937 rng(42);
  alignas(64) std::byte acc_store[4096 + 64];
  alignas(64) std::byte rhs_store[4096 + 64];
  for (const Op op : kAllOps) {
    for (const DType t : kAllDTypes) {
      const KernelSpec spec{op, t};
      const KernelFn k = lookup(spec);
      const CombineFn g = generic_combine(spec);
      const std::size_t n = 1024;
      for (const std::size_t a_off : {1UL, 3UL, 7UL}) {
        for (const std::size_t r_off : {0UL, 2UL, 5UL}) {
          const Bytes acc0 = random_finite(rng, n, t);
          const Bytes rhs = random_finite(rng, n, t);
          std::memcpy(acc_store + a_off, acc0.data(), n);
          std::memcpy(rhs_store + r_off, rhs.data(), n);
          k(acc_store + a_off, rhs_store + r_off, n);
          Bytes expected = acc0;
          g(expected, std::span<const std::byte>(rhs.data(), rhs.size()));
          EXPECT_EQ(std::memcmp(acc_store + a_off, expected.data(), n), 0)
              << spec.name() << " offsets " << a_off << "/" << r_off;
        }
      }
    }
  }
}

TEST(Kernels, SumUsesWraparoundForSignedIntegers) {
  const KernelSpec spec{Op::kSum, DType::kI32};
  const KernelFn k = lookup(spec);
  std::int32_t acc_v = INT32_MAX;
  const std::int32_t rhs_v = 1;
  k(reinterpret_cast<std::byte*>(&acc_v),
    reinterpret_cast<const std::byte*>(&rhs_v), sizeof acc_v);
  EXPECT_EQ(acc_v, INT32_MIN);  // two's-complement wrap, not UB
}

// ---------------------------------------------------------------------------
// Combiner dispatch
// ---------------------------------------------------------------------------

TEST(Combiner, TypedCombinerDispatchesBySizeMatch) {
  const Combiner typed{KernelSpec{Op::kSum, DType::kI64}};
  EXPECT_TRUE(typed.valid());
  EXPECT_TRUE(typed.typed());
  EXPECT_NE(typed.kernel(), nullptr);

  // Size match: kernel lane.
  Bytes acc = tu::of_u64(40);
  typed(acc, std::span<const std::byte>(tu::of_u64(2)));
  EXPECT_EQ(tu::to_u64(acc), 42u);

  // Size mismatch: generic lane folds the common prefix of whole elements.
  Bytes small = tu::of_u64(5);
  Bytes big(16);
  std::memcpy(big.data(), tu::of_u64(10).data(), 8);
  typed(small, std::span<const std::byte>(big.data(), big.size()));
  EXPECT_EQ(small.size(), 8u);
  EXPECT_EQ(tu::to_u64(small), 15u);
}

TEST(Combiner, UntypedCombinerWrapsPlainCombineFn) {
  const Combiner generic = Combiner(tu::concat());
  EXPECT_TRUE(generic.valid());
  EXPECT_FALSE(generic.typed());
  EXPECT_EQ(generic.kernel(), nullptr);
  Bytes acc = tu::of_str("ab");
  generic(acc, std::span<const std::byte>(tu::of_str("cd")));
  EXPECT_EQ(tu::to_str(acc), "abcd");
}

// ---------------------------------------------------------------------------
// Engine integration: typed lane == generic lane, counters, order
// ---------------------------------------------------------------------------

std::vector<Bytes> random_float_values(std::mt19937& rng, int count,
                                       std::size_t n, DType t) {
  std::vector<Bytes> v;
  v.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) v.push_back(random_finite(rng, n, t));
  return v;
}

TEST(EngineKernels, TypedReduceIsBitwiseIdenticalToGenericRun) {
  const Params params{8, 4, 1, 2};
  const bcast::ReductionPlan plan = bcast::optimal_reduction(params, 0);
  const Program prog = compile_reduction(plan);
  Engine engine;
  std::mt19937 rng(11);
  for (const DType t : {DType::kF32, DType::kF64, DType::kI64}) {
    const KernelSpec spec{Op::kSum, t};
    const std::vector<Bytes> values =
        random_float_values(rng, params.P, 1024, t);

    const ExecReport generic_run =
        engine.run(prog, FoldValues{values, generic_combine(spec)});
    const ExecReport typed_run =
        engine.run(prog, FoldValues{values, Combiner(spec)});

    // Same fold sequence, same per-element ops: bitwise equal, floats
    // included.
    EXPECT_EQ(typed_run.folded_at(0), generic_run.folded_at(0))
        << spec.name();
    // All P-1 partial-value folds are size-matched, so all take the kernel.
    EXPECT_EQ(typed_run.kernel_folds, static_cast<std::size_t>(params.P - 1))
        << spec.name();
    EXPECT_EQ(typed_run.generic_folds, 0u) << spec.name();
    EXPECT_EQ(generic_run.kernel_folds, 0u) << spec.name();
  }
}

TEST(EngineKernels, TypedSummationMatchesSequentialSum) {
  const Params params{8, 4, 1, 2};
  const sum::SummationPlan plan = sum::optimal_summation(params, 30);
  ASSERT_GT(plan.total_operands, 0u);
  const Program prog = compile_summation(plan);
  Engine engine;

  const auto layout = sum::operand_layout(plan);
  std::vector<std::vector<Bytes>> operands(plan.procs.size());
  std::uint64_t expected = 0;
  std::uint64_t v = 1;
  for (std::size_t i = 0; i < layout.size(); ++i) {
    for (std::size_t j = 0; j < layout[i].total(); ++j) {
      operands[i].push_back(tu::of_u64(v));
      expected += v;
      v += 3;
    }
  }

  const Combiner typed{KernelSpec{Op::kSum, DType::kI64}};
  const ExecReport report = engine.run(prog, Operands{operands, typed});
  EXPECT_EQ(tu::to_u64(report.folded_at(plan.root)), expected);
  EXPECT_GT(report.kernel_folds, 0u);
  EXPECT_EQ(report.generic_folds, 0u);
}

TEST(EngineKernels, NonCommutativeSummationOrderSurvivesTheFastLane) {
  // The fast lane must not change WHICH folds run or in what order: a
  // non-commutative operator (concatenation) through the Combiner wrapper
  // still reproduces the plan's exact combination order.
  const Params params{8, 4, 1, 2};
  const sum::SummationPlan plan = sum::optimal_summation(params, 30);
  const Program prog = compile_summation(plan);
  Engine engine;

  const auto layout = sum::operand_layout(plan);
  std::vector<std::vector<Bytes>> operands(plan.procs.size());
  std::vector<std::vector<std::string>> op_strings(plan.procs.size());
  std::vector<std::size_t> proc_to_index(static_cast<std::size_t>(params.P),
                                         0);
  for (std::size_t i = 0; i < plan.procs.size(); ++i) {
    proc_to_index[static_cast<std::size_t>(plan.procs[i].proc)] = i;
  }
  int next = 0;
  for (std::size_t i = 0; i < layout.size(); ++i) {
    for (std::size_t j = 0; j < layout[i].total(); ++j) {
      op_strings[i].push_back(
          std::string("[").append(std::to_string(next++)).append("]"));
      operands[i].push_back(tu::of_str(op_strings[i].back()));
    }
  }
  std::string expected;
  for (const auto& [proc, idx] : sum::combination_order(plan)) {
    expected +=
        op_strings[proc_to_index[static_cast<std::size_t>(proc)]][idx];
  }

  const ExecReport report =
      engine.run(prog, Operands{operands, tu::concat()});
  EXPECT_EQ(tu::to_str(report.folded_at(plan.root)), expected);
  // Concatenation grows the accumulator, so no fold is ever size-matched
  // for the (absent) kernel: everything goes through the generic lane.
  EXPECT_EQ(report.kernel_folds, 0u);
  EXPECT_GT(report.generic_folds, 0u);
}

TEST(EngineKernels, FloatSumStaysWithinAccumulationBoundOfLeftFold) {
  // The engine folds in the plan's tree order, not the sequential left
  // fold, so float results are not bitwise equal to the left fold — but
  // both are permutations-with-reassociation of the same sum, so the
  // difference is bounded by standard error accumulation.
  const Params params{8, 4, 1, 2};
  const sum::SummationPlan plan = sum::optimal_summation(params, 30);
  const Program prog = compile_summation(plan);
  Engine engine;

  const auto layout = sum::operand_layout(plan);
  std::vector<std::vector<Bytes>> operands(plan.procs.size());
  std::vector<std::size_t> proc_to_index(static_cast<std::size_t>(params.P),
                                         0);
  for (std::size_t i = 0; i < plan.procs.size(); ++i) {
    proc_to_index[static_cast<std::size_t>(plan.procs[i].proc)] = i;
  }
  std::mt19937 rng(23);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<std::vector<double>> values(plan.procs.size());
  for (std::size_t i = 0; i < layout.size(); ++i) {
    for (std::size_t j = 0; j < layout[i].total(); ++j) {
      const double x = d(rng);
      values[i].push_back(x);
      Bytes b(sizeof(double));
      std::memcpy(b.data(), &x, sizeof x);
      operands[i].push_back(std::move(b));
    }
  }
  double left_fold = 0.0;
  bool first = true;
  double magnitude = 0.0;
  for (const auto& [proc, idx] : sum::combination_order(plan)) {
    const double x = values[proc_to_index[static_cast<std::size_t>(proc)]][idx];
    left_fold = first ? x : left_fold + x;
    first = false;
    magnitude += std::abs(x);
  }

  const Combiner typed{KernelSpec{Op::kSum, DType::kF64}};
  const ExecReport report = engine.run(prog, Operands{operands, typed});
  double got = 0.0;
  std::memcpy(&got, report.folded_at(plan.root).data(), sizeof got);
  const double n = static_cast<double>(plan.total_operands);
  const double bound =
      2.0 * n * std::numeric_limits<double>::epsilon() * magnitude;
  EXPECT_LE(std::abs(got - left_fold), bound);
}

// ---------------------------------------------------------------------------
// Engine options
// ---------------------------------------------------------------------------

TEST(EngineOptions, MailboxOccupancyIsTrackedWithinCapacity) {
  const Params params{8, 4, 1, 2};
  const bcast::ReductionPlan plan = bcast::optimal_reduction(params, 0);
  const Program prog = compile_reduction(plan);
  std::vector<Bytes> values;
  std::uint64_t total = 0;
  for (int p = 0; p < params.P; ++p) {
    values.push_back(tu::of_u64(static_cast<std::uint64_t>(p + 1)));
    total += static_cast<std::uint64_t>(p + 1);
  }

  Engine tracked;
  const ExecReport tracked_report =
      tracked.run(prog, FoldValues{values, tu::add_u64()});
  EXPECT_EQ(tu::to_u64(tracked_report.folded_at(0)), total);
  EXPECT_GE(tracked_report.max_mailbox_occupancy, 1u);
  EXPECT_LE(tracked_report.max_mailbox_occupancy,
            tracked_report.mailbox_capacity);
}

TEST(EngineKernels, BackToBackReceivesOnOneLinkAgreeWithAckedDelivery) {
  // A stream of back-to-back receives on one link, fed by sends that can
  // queue up to the mailbox bound: the fault-free run pops plainly, the
  // injector runs (lossless and lossy) number each message and resend the
  // dropped ones.  All must deliver identical items, and each receive must
  // name the send it popped.  The program is handcrafted so the receives
  // are guaranteed consecutive.
  const Params params{2, 4, 1, 1};  // capacity ceil(L/g) = 4: sends can queue
  constexpr int kItems = 4;
  Program prog;
  prog.params = params;
  prog.mode = Mode::kMove;
  prog.label = "chain";
  prog.num_items = kItems;
  prog.num_messages = kItems;
  prog.links.push_back(Link{0, 1});
  std::vector<std::vector<Instr>> streams(2);
  for (ItemId i = 0; i < kItems; ++i) {
    prog.initials.push_back(InitialPlacement{i, 0, 0});
    streams[0].push_back(
        Instr{OpCode::kSend, 1, i, 0, 0, static_cast<Time>(i)});
    streams[1].push_back(
        Instr{OpCode::kRecv, 0, i, 0, 0, static_cast<Time>(i + 4)});
  }
  tu::set_streams(prog, std::move(streams));

  std::vector<Bytes> items;
  for (int i = 0; i < kItems; ++i) {
    items.push_back(tu::of_str("itm" + std::to_string(i) + "-payload"));
  }
  Engine fast;
  const ExecReport fast_run = fast.run(prog, Items{items});

  // An injector over an empty spec injects nothing; the lossy one drops
  // every first delivery, so each receive accepts a resent copy.
  Engine reliable;
  const fault::Injector no_faults(fault::FaultSpec{});
  const ExecReport reliable_run =
      reliable.run(prog, Items{items}, &no_faults);
  fault::FaultSpec drops;
  drops.drop_prob = 1.0;
  drops.max_drops_per_message = 1;
  const fault::Injector lossy(drops);
  const ExecReport lossy_run = reliable.run(prog, Items{items}, &lossy);
  EXPECT_GT(lossy_run.retries, 0u);

  EXPECT_EQ(fast_run.items, reliable_run.items);
  EXPECT_EQ(fast_run.items, lossy_run.items);
  for (ItemId i = 0; i < kItems; ++i) {
    EXPECT_EQ(fast_run.item_at(1, i), items[static_cast<std::size_t>(i)]);
  }
  for (const ExecReport* run : {&fast_run, &reliable_run, &lossy_run}) {
    EXPECT_LE(run->max_mailbox_occupancy, run->mailbox_capacity);
    ASSERT_EQ(run->events[1].size(), static_cast<std::size_t>(kItems));
    for (std::uint32_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(run->events[1][i].match, i);  // the i-th send on rank 0
    }
  }
}

}  // namespace
}  // namespace logpc::exec
