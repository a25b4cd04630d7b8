#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "obs/critical_path.hpp"
#include "svc/scheduler.hpp"

/// \file request.hpp
/// The request/response vocabulary of the collective service, separated
/// from the daemon itself so the admission-side helpers (svc/fusion.hpp)
/// can reason about requests without pulling in the service's engine
/// pools, introspection server and scheduler internals.

namespace logpc::svc {

/// Collectives the service serves.  Each maps to an executable problem of
/// the planning runtime and to one exec::Inputs alternative of the single
/// Engine::run entry point.
enum class OpKind : std::uint8_t {
  kBroadcast,  ///< payload from root to all (exec::Payload)
  kReduce,     ///< values[p] folded to root by `combine` (exec::FoldValues)
  kAllgather,  ///< all P procs end with every values[p] (exec::Items)
};

[[nodiscard]] const char* op_kind_name(OpKind op) noexcept;

/// Terminal status of a request (SubmitResult::status uses the same enum:
/// a rejected submit never gets a future).
enum class Status : std::uint8_t {
  kOk,           ///< executed; Response::report holds the run
  kQueueFull,    ///< rejected at admission: tenant queue at capacity
  kRateLimited,  ///< rejected at admission: tenant over its rate limit
  kShutdown,     ///< rejected or cancelled by service shutdown
  kError,        ///< dispatched but the run threw; Response::error says why
};

[[nodiscard]] const char* status_name(Status s) noexcept;

/// One collective to execute.  Inputs are owned by the request (the
/// service executes asynchronously; views would dangle).
struct Request {
  OpKind op = OpKind::kBroadcast;
  QoS qos = QoS::kBatch;
  ProcId root = 0;
  exec::Bytes payload;               ///< kBroadcast: the item
  std::vector<exec::Bytes> values;   ///< kReduce/kAllgather: one per proc
  exec::Combiner combine;            ///< kReduce: fold operator
  /// Fusion identity for *generic* (type-erased) combiners.  A typed
  /// Combiner carries its own identity (the KernelSpec), but two
  /// std::function combiners cannot be compared, so generic reduces fuse
  /// only when both requests declare the same non-empty tag.  The tag is a
  /// promise: equal tags mean the same size-preserving elementwise
  /// operator, applicable independently per request-sized chunk.  Leave
  /// empty (the default) and a generic reduce never fuses.
  std::string combine_tag;
};

/// What the future resolves to.
struct Response {
  Status status = Status::kOk;
  std::string error;             ///< set when status == kError/kShutdown
  exec::ExecReport report;       ///< the completed run (status == kOk)
  /// Admission to dispatch.  For a request that ran on its submitting
  /// thread into an idle service this is only the admission bookkeeping
  /// inside submit().
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t total_ns = 0;       ///< submission to completion
  /// Engine pool whose engine ran it, lent to the combining thread.
  int pool = -1;
  /// Global dispatch order (0-based): the k-th request picked, whichever
  /// thread combined it.  The QoS and fairness tests assert on it.
  std::uint64_t dispatch_seq = 0;
  /// Requests coalesced into the engine run that produced this response
  /// (1 = ran alone) and this request's slot in the fused payload.
  std::uint32_t fused = 1;
  std::uint32_t fused_index = 0;
  /// Segments the payload was split into for the Section 3 k-item
  /// pipeline (1 = bulk single-send).
  std::uint32_t segments = 1;
  /// The run's analyzed profile (critical path, per-rank decomposition,
  /// model residual), shared with the service's flight recorder.  Null
  /// when Options::profile is off or the run failed.  Every member of a
  /// fused batch shares the batch's one profile.
  std::shared_ptr<const obs::RunProfile> profile;
};

/// Synchronous half of submit().  `response` is valid iff accepted().
struct SubmitResult {
  Status status = Status::kOk;
  std::future<Response> response;
  [[nodiscard]] bool accepted() const { return status == Status::kOk; }
};

}  // namespace logpc::svc
