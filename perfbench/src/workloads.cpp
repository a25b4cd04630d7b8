#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

namespace perfbench {

namespace {

constexpr ShapeInfo kShapes[kNumShapes] = {
    {"bcast64/batch", svc::OpKind::kBroadcast, svc::QoS::kBatch, 64},
    {"bcast64/interactive", svc::OpKind::kBroadcast, svc::QoS::kInteractive,
     64},
    {"bcast4k/batch", svc::OpKind::kBroadcast, svc::QoS::kBatch, 4096},
    {"reduce256/batch", svc::OpKind::kReduce, svc::QoS::kBatch, 256},
    {"allgather64/batch", svc::OpKind::kAllgather, svc::QoS::kBatch, 64},
    {"bcast1m/batch", svc::OpKind::kBroadcast, svc::QoS::kBatch, 1u << 20},
};

exec::Bytes random_bytes(Rng& rng, std::size_t n) {
  exec::Bytes b(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t word = rng.next();
    std::memcpy(b.data() + i, &word, std::min<std::size_t>(8, n - i));
  }
  return b;
}

/// f64 operands that are integers in [-2^20, 2^20]: any fold order of P of
/// them is exact, so the benchmark's own sum is the bitwise reference.
exec::Bytes integer_doubles(Rng& rng, std::size_t bytes) {
  exec::Bytes b(bytes);
  for (std::size_t i = 0; i + sizeof(double) <= bytes; i += sizeof(double)) {
    const auto v = static_cast<double>(rng.range(-(1 << 20), 1 << 20));
    std::memcpy(b.data() + i, &v, sizeof v);
  }
  return b;
}

exec::Bytes f64_sum(const std::vector<exec::Bytes>& values) {
  exec::Bytes out(values.front().size());
  for (std::size_t i = 0; i + sizeof(double) <= out.size();
       i += sizeof(double)) {
    double acc = 0;
    for (const exec::Bytes& v : values) {
      double x = 0;
      std::memcpy(&x, v.data() + i, sizeof x);
      acc += x;
    }
    std::memcpy(out.data() + i, &acc, sizeof acc);
  }
  return out;
}

/// Byte equality through memcmp: vector<std::byte>::operator== compares
/// byte by byte, about 10x slower on the 8 MiB a 1 MiB broadcast returns.
bool same(const exec::Bytes& a, const exec::Bytes& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kSoloSmall, Workload::kFusedMix,
                           Workload::kLargeBcast, Workload::kPlanSweep}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSoloSmall: return "solo_small";
    case Workload::kFusedMix: return "fused_mix";
    case Workload::kLargeBcast: return "large_bcast";
    case Workload::kPlanSweep: return "plan_sweep";
  }
  return "?";
}

const ShapeInfo& shape_info(Shape s) {
  return kShapes[static_cast<std::size_t>(s)];
}

std::vector<MixEntry> request_mix(Workload w) {
  switch (w) {
    case Workload::kSoloSmall:
      return {{Shape::kBcast64Batch, 0.50},
              {Shape::kBcast64Interactive, 0.30},
              {Shape::kReduce256, 0.20}};
    case Workload::kFusedMix:
      return {{Shape::kBcast64Interactive, 0.20},
              {Shape::kBcast64Batch, 0.35},
              {Shape::kBcast4KBatch, 0.15},
              {Shape::kReduce256, 0.20},
              {Shape::kAllgather64, 0.10}};
    case Workload::kLargeBcast:
      return {{Shape::kBcast1MBatch, 1.0}};
    case Workload::kPlanSweep:
      return {};
  }
  return {};
}

RequestStream::RequestStream(Workload w, std::uint64_t seed,
                             std::uint32_t caller)
    : mix_(request_mix(w)),
      rng_(seed * 0x100000001b3ull + caller + 1) {}

RequestSpec RequestStream::next() {
  RequestSpec r;
  double draw = rng_.uniform();
  r.shape = mix_.back().shape;
  for (const MixEntry& e : mix_) {
    if (draw < e.share) {
      r.shape = e.shape;
      break;
    }
    draw -= e.share;
  }
  r.variant = static_cast<std::uint32_t>(rng_.next() % kVariants);
  return r;
}

InputPool::InputPool(Workload w, std::uint64_t seed)
    : inputs_(static_cast<std::size_t>(kNumShapes)) {
  Rng rng(seed ^ 0x5eed5eed5eed5eedull);
  for (const MixEntry& e : request_mix(w)) {
    const ShapeInfo& info = shape_info(e.shape);
    std::vector<Input>& pool = inputs_[static_cast<std::size_t>(e.shape)];
    for (std::uint32_t v = 0; v < kVariants; ++v) {
      Input in;
      switch (info.op) {
        case svc::OpKind::kBroadcast:
          in.payload = random_bytes(rng, info.bytes);
          break;
        case svc::OpKind::kReduce:
          for (int p = 0; p < kP; ++p) {
            in.values.push_back(integer_doubles(rng, info.bytes));
          }
          in.expected_sum = f64_sum(in.values);
          break;
        case svc::OpKind::kAllgather:
          for (int p = 0; p < kP; ++p) {
            in.values.push_back(random_bytes(rng, info.bytes));
          }
          break;
      }
      pool.push_back(std::move(in));
    }
  }
}

const Input& InputPool::at(const RequestSpec& r) const {
  return inputs_.at(static_cast<std::size_t>(r.shape)).at(r.variant);
}

svc::Request InputPool::request(const RequestSpec& r) const {
  const ShapeInfo& info = shape_info(r.shape);
  const Input& in = at(r);
  svc::Request req;
  req.op = info.op;
  req.qos = info.qos;
  req.payload = in.payload;
  req.values = in.values;
  if (info.op == svc::OpKind::kReduce) {
    req.combine =
        exec::Combiner(exec::KernelSpec{exec::Op::kSum, exec::DType::kF64});
  }
  return req;
}

bool InputPool::verify(const RequestSpec& r,
                       const svc::Response& response) const {
  if (response.status != svc::Status::kOk) return false;
  const exec::ExecReport& rep = response.report;
  const Input& in = at(r);
  switch (shape_info(r.shape).op) {
    case svc::OpKind::kBroadcast:
      if (rep.items.size() != static_cast<std::size_t>(kP)) return false;
      for (int p = 0; p < kP; ++p) {
        if (rep.items[static_cast<std::size_t>(p)].size() != 1 ||
            !same(rep.item_at(p, 0), in.payload)) {
          return false;
        }
      }
      return true;
    case svc::OpKind::kReduce:
      return rep.folded.size() == static_cast<std::size_t>(kP) &&
             same(rep.folded_at(0), in.expected_sum);
    case svc::OpKind::kAllgather:
      if (rep.items.size() != static_cast<std::size_t>(kP)) return false;
      for (int p = 0; p < kP; ++p) {
        if (rep.items[static_cast<std::size_t>(p)].size() !=
            static_cast<std::size_t>(kP)) {
          return false;
        }
        for (int q = 0; q < kP; ++q) {
          if (!same(rep.item_at(p, q), in.values[static_cast<std::size_t>(q)])) {
            return false;
          }
        }
      }
      return true;
  }
  return false;
}

double delivered_bytes(Shape s) {
  const ShapeInfo& info = shape_info(s);
  const auto bytes = static_cast<double>(info.bytes);
  switch (info.op) {
    case svc::OpKind::kBroadcast: return bytes * (kP - 1);
    case svc::OpKind::kAllgather: return bytes * kP * (kP - 1);
    case svc::OpKind::kReduce: return 0;  // the result lands on the root
  }
  return 0;
}

const char* family_name(Family f) {
  switch (f) {
    case Family::kBcast: return "bcast";
    case Family::kReduce: return "reduce";
    case Family::kKItem: return "kitem";
    case Family::kAllgather: return "allgather";
    case Family::kSummation: return "summation";
  }
  return "?";
}

std::vector<SweepKey> sweep_keys(std::uint64_t seed, std::size_t count) {
  // Family shares of the key set: the tree families span the widest P
  // range, so they get the most strata.
  constexpr double kShare[kNumFamilies] = {0.30, 0.30, 0.15, 0.10, 0.15};
  Rng rng(seed ^ 0x9a11ab1e9a11ab1eull);
  std::unordered_set<runtime::PlanKey, runtime::PlanKeyHash> seen;
  std::vector<SweepKey> out;
  out.reserve(count);
  std::size_t assigned = 0;
  for (int f = 0; f < kNumFamilies; ++f) {
    const auto fam = static_cast<Family>(f);
    const std::size_t n =
        f + 1 == kNumFamilies
            ? count - assigned
            : static_cast<std::size_t>(static_cast<double>(count) * kShare[f]);
    assigned += n;
    for (std::size_t i = 0; i < n; ++i) {
      // Stratum i of n: every seed places one key in each slice of the
      // family's P range, so key sets differ but cost the same to plan.
      for (int attempt = 0;; ++attempt) {
        if (attempt == 1000) {
          throw std::logic_error("sweep_keys: key space exhausted");
        }
        const double t =
            (static_cast<double>(i) + rng.uniform()) / static_cast<double>(n);
        SweepKey s;
        s.family = fam;
        logpc::Params m;
        m.o = rng.range(0, 2);
        m.g = rng.range(m.o + 1, m.o + 3);  // summation needs g >= o + 1
        m.L = rng.range(4, 16);
        switch (fam) {
          case Family::kBcast:
          case Family::kReduce:
            m.P = static_cast<int>(std::lround(std::exp2(3.0 + 17.0 * t)));
            s.problem = fam == Family::kBcast ? runtime::Problem::kBroadcast
                                              : runtime::Problem::kReduce;
            s.root = static_cast<logpc::ProcId>(rng.range(0, m.P - 1));
            break;
          case Family::kKItem:
            // k-item keys are postal: only L' = L + 2o matters.  L' in
            // [4, 9] stays clear of the build cliffs at L' = 2 and L' >= 10.
            m.P = 8 + static_cast<int>(t * 57.0);
            m.o = rng.range(0, 1);
            m.L = rng.range(4, 9 - 2 * m.o);
            s.problem = runtime::Problem::kKItemBroadcast;
            s.k = rng.range(2, 16);
            break;
          case Family::kAllgather:
            m.P = 8 + static_cast<int>(t * 121.0);
            s.problem = runtime::Problem::kAllToAll;
            break;
          case Family::kSummation:
            m.P = 8 + static_cast<int>(t * 57.0);
            s.problem = runtime::Problem::kSummation;
            s.k = std::lround(std::exp2(3.0 + 9.0 * rng.uniform()));
            break;
        }
        s.machine = m;
        s.key = runtime::PlanKey::make(s.problem, m, s.k, s.root);
        if (!seen.insert(s.key).second) continue;
        s.compile = m.P <= kCompileMaxP;
        out.push_back(s);
        break;
      }
    }
  }
  return out;
}

}  // namespace perfbench
