#include "svc/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace logpc::svc {

const char* qos_name(QoS q) noexcept {
  switch (q) {
    case QoS::kInteractive: return "interactive";
    case QoS::kBatch: return "batch";
    case QoS::kBestEffort: return "best_effort";
  }
  return "?";
}

Scheduler::Tenant& Scheduler::at(TenantId tenant) {
  if (tenant < 0 || static_cast<std::size_t>(tenant) >= tenants_.size()) {
    throw std::invalid_argument("svc::Scheduler: unknown tenant id " +
                                std::to_string(tenant));
  }
  return tenants_[static_cast<std::size_t>(tenant)];
}

const Scheduler::Tenant& Scheduler::at(TenantId tenant) const {
  return const_cast<Scheduler*>(this)->at(tenant);
}

TenantId Scheduler::add_tenant(TenantConfig cfg) {
  // A NaN rate or burst would never compare below a token and so turn the
  // limit off silently; a negative one has no meaning.
  if (!std::isfinite(cfg.rate_per_sec) || cfg.rate_per_sec < 0 ||
      !std::isfinite(cfg.burst) || cfg.burst < 0) {
    throw std::invalid_argument(
        "svc::Scheduler: rate_per_sec and burst must be finite and >= 0");
  }
  cfg.weight = std::max<std::uint32_t>(cfg.weight, 1);
  cfg.queue_capacity = std::max<std::size_t>(cfg.queue_capacity, 1);
  if (cfg.rate_per_sec > 0 && cfg.burst == 0) {
    cfg.burst = std::max(1.0, cfg.rate_per_sec);
  }
  Tenant t;
  t.stride = kStrideUnit / cfg.weight;
  // Join at the current virtual time: a tenant registered late must not
  // start with an epoch of accumulated credit over incumbents.
  t.pass = vtime_;
  t.tokens = cfg.burst;  // a fresh bucket starts full
  t.cfg = std::move(cfg);
  tenants_.push_back(std::move(t));
  return static_cast<TenantId>(tenants_.size() - 1);
}

Admit Scheduler::offer(TenantId tenant, QoS qos, std::uint64_t handle,
                       double now_sec) {
  Tenant& t = at(tenant);
  if (t.cfg.rate_per_sec > 0) {
    if (!t.bucket_started) {
      t.bucket_started = true;
      t.last_refill = now_sec;
    }
    const double elapsed = std::max(0.0, now_sec - t.last_refill);
    t.tokens = std::min(t.cfg.burst, t.tokens + elapsed * t.cfg.rate_per_sec);
    t.last_refill = now_sec;
    if (t.tokens < 1.0) return Admit::kRateLimited;
    t.tokens -= 1.0;
  }
  if (t.depth >= t.cfg.queue_capacity) return Admit::kQueueFull;
  if (t.depth == 0) {
    // Waking from idle: rejoin at the current virtual time (never move
    // backwards) so idleness is not bankable credit against busy tenants.
    t.pass = std::max(t.pass, vtime_);
  }
  t.q[static_cast<std::size_t>(qos)].push_back(handle);
  ++t.depth;
  ++queued_;
  return Admit::kAdmitted;
}

bool Scheduler::pick(TenantId* tenant, std::uint64_t* handle) {
  if (queued_ == 0) return false;
  for (std::size_t qc = 0; qc < kQoSClasses; ++qc) {
    // Highest non-empty QoS class wins outright; fair share applies among
    // the tenants with work *in that class*.
    Tenant* best = nullptr;
    TenantId best_id = -1;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      Tenant& t = tenants_[i];
      if (t.q[qc].empty()) continue;
      if (best == nullptr || t.pass < best->pass) {
        best = &t;
        best_id = static_cast<TenantId>(i);
      }
    }
    if (best == nullptr) continue;
    *tenant = best_id;
    *handle = best->q[qc].front();
    best->q[qc].pop_front();
    --best->depth;
    --queued_;
    vtime_ = best->pass;
    best->pass += best->stride;
    return true;
  }
  return false;  // unreachable while queued_ is kept consistent
}

bool Scheduler::take(TenantId tenant, QoS qos, std::uint64_t handle) {
  Tenant& t = at(tenant);
  std::deque<std::uint64_t>& q = t.q[static_cast<std::size_t>(qos)];
  const auto it = std::find(q.begin(), q.end(), handle);
  if (it == q.end()) return false;
  q.erase(it);
  --t.depth;
  --queued_;
  // Same fair-share charge as a pick, but no vtime_ update: the batch's
  // lead request already moved the virtual clock, and siblings taken out
  // of turn must not drag it around.
  t.pass += t.stride;
  return true;
}

std::size_t Scheduler::queue_depth(TenantId tenant) const {
  return at(tenant).depth;
}

std::size_t Scheduler::queue_depth(TenantId tenant, QoS qos) const {
  return at(tenant).q[static_cast<std::size_t>(qos)].size();
}

const TenantConfig& Scheduler::config(TenantId tenant) const {
  return at(tenant).cfg;
}

}  // namespace logpc::svc
