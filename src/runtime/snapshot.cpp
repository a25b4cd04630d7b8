#include "runtime/snapshot.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "runtime/implicit_plan.hpp"
#include "sched/io.hpp"

namespace logpc::runtime {

namespace {

// One format: the header, then per plan the canonical key (problem,
// machine, k, root, membership mask, topology words), the scalar metadata,
// a flags word (bit 0: the schedule was materialized) and — only when it
// was — the schedule.  Implicit-only plans serialize as a few hundred
// bytes whatever P is; the generator is rebuilt from the key on load.
constexpr char kHeader[] = "logpc-plansnap v4\n";
constexpr std::size_t kHeaderLen = 18;

constexpr std::int64_t kFlagMaterialized = 1;

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("plan snapshot: " + what);
}

void put_i64(std::ostream& os, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((u >> (8 * i)) & 0xff);
  }
  os.write(bytes, 8);
}

std::int64_t get_i64(std::istream& is) {
  char bytes[8];
  if (!is.read(bytes, 8)) fail("truncated input");
  std::uint64_t u = 0;
  for (int i = 0; i < 8; ++i) {
    u |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i]))
         << (8 * i);
  }
  return static_cast<std::int64_t>(u);
}

void put_string(std::ostream& os, const std::string& s) {
  put_i64(os, static_cast<std::int64_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string get_string(std::istream& is) {
  const std::int64_t n = get_i64(is);
  if (n < 0 || n > (1 << 20)) fail("bad string length");
  std::string s(static_cast<std::size_t>(n), '\0');
  if (n > 0 && !is.read(s.data(), n)) fail("truncated string");
  return s;
}

void write_plan(std::ostream& os, const Plan& plan) {
  put_i64(os, static_cast<std::int64_t>(plan.key.problem));
  put_i64(os, plan.key.params.P);
  put_i64(os, plan.key.params.L);
  put_i64(os, plan.key.params.o);
  put_i64(os, plan.key.params.g);
  put_i64(os, plan.key.k);
  put_i64(os, plan.key.root);
  put_i64(os, static_cast<std::int64_t>(plan.key.mask));
  put_i64(os, plan.key.clusters);
  put_i64(os, plan.key.cross_L);
  put_i64(os, plan.key.cross_o);
  put_i64(os, plan.key.cross_g);
  put_i64(os, plan.completion);
  put_i64(os, plan.slack);
  put_i64(os, plan.max_buffer_depth);
  put_i64(os, static_cast<std::int64_t>(plan.total_operands));
  put_i64(os, plan.materialized ? kFlagMaterialized : 0);
  put_string(os, plan.method);
  if (plan.materialized) write_binary(os, plan.schedule);
}

Plan read_plan(std::istream& is) {
  const std::int64_t problem = get_i64(is);
  if (problem < 0 || problem >= kNumProblems) fail("unknown problem id");
  Params params;
  params.P = static_cast<int>(get_i64(is));
  params.L = get_i64(is);
  params.o = get_i64(is);
  params.g = get_i64(is);
  const std::int64_t k = get_i64(is);
  const auto root = static_cast<ProcId>(get_i64(is));
  const auto mask = static_cast<std::uint64_t>(get_i64(is));
  const auto clusters = static_cast<std::int32_t>(get_i64(is));
  const Time cross_L = get_i64(is);
  const Time cross_o = get_i64(is);
  const Time cross_g = get_i64(is);
  Plan plan;
  try {
    // Re-canonicalize: a key that round-trips differently (or is garbage)
    // must not enter the cache under a mismatched slot.
    plan.key = PlanKey::make(static_cast<Problem>(problem), params, k, root,
                             mask, clusters, cross_L, cross_o, cross_g);
  } catch (const std::invalid_argument& e) {
    fail(std::string("bad key: ") + e.what());
  }
  if (plan.key.params != params || plan.key.mask != mask ||
      plan.key.clusters != clusters) {
    fail("key not canonical");
  }
  plan.completion = get_i64(is);
  plan.slack = static_cast<int>(get_i64(is));
  plan.max_buffer_depth = static_cast<int>(get_i64(is));
  plan.total_operands = static_cast<std::uint64_t>(get_i64(is));
  plan.materialized = (get_i64(is) & kFlagMaterialized) != 0;
  plan.method = get_string(is);
  if (plan.materialized) {
    plan.schedule = read_binary(is);
  }
  // The generator form is derived state: rebuild it from the canonical key,
  // exactly as the planner derived it, rather than trusting (or paying for)
  // serialized tables.
  plan.implicit = implicit_form(plan.key);
  if (!plan.implicit && !plan.materialized) {
    fail("implicit-only plan for a key without an implicit form");
  }
  return plan;
}

}  // namespace

std::size_t save_snapshot(const PlanCache& cache, std::ostream& os) {
  // entries() is MRU-first per shard; write the reverse so loading replays
  // oldest first and ends with the hottest plans most recent.
  std::vector<PlanPtr> plans = cache.entries();
  std::reverse(plans.begin(), plans.end());
  os.write(kHeader, kHeaderLen);
  put_i64(os, static_cast<std::int64_t>(plans.size()));
  for (const PlanPtr& plan : plans) write_plan(os, *plan);
  return plans.size();
}

std::size_t save_snapshot(const PlanCache& cache, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("plan snapshot: cannot write " + path);
  const std::size_t n = save_snapshot(cache, os);
  os.flush();
  if (!os) throw std::runtime_error("plan snapshot: write failed: " + path);
  return n;
}

std::size_t load_snapshot(PlanCache& cache, std::istream& is) {
  char header[kHeaderLen];
  if (!is.read(header, kHeaderLen) ||
      std::string_view(header, kHeaderLen) != kHeader) {
    fail("bad header");
  }
  const std::int64_t count = get_i64(is);
  if (count < 0) fail("negative entry count");
  for (std::int64_t i = 0; i < count; ++i) {
    auto plan = std::make_shared<const Plan>(read_plan(is));
    cache.put(plan->key, plan);
  }
  return static_cast<std::size_t>(count);
}

std::size_t load_snapshot(PlanCache& cache, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("plan snapshot: cannot read " + path);
  return load_snapshot(cache, is);
}

}  // namespace logpc::runtime
