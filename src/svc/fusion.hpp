#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "exec/kernels.hpp"
#include "svc/request.hpp"

/// \file fusion.hpp
/// The throughput subsystem's pure half: deciding which queued requests
/// may share one engine run (fusion), how a large payload splits into the
/// Section 3 k-item pipeline (segmentation), and how one fused run's
/// result fans back out into per-request reports.  Everything here is
/// plain data transformation — no locks, no threads — so the byte-
/// exactness contract ("a fused run is bitwise identical to N independent
/// runs") is testable without a service instance.
///
/// Why concatenation is exact: every op the service serves is elementwise
/// along the payload axis.  A broadcast moves bytes verbatim; a typed
/// reduce kernel folds acc[i] <- op(acc[i], rhs[i]) with no coupling
/// between element positions (fusion additionally requires each request's
/// chunk to be a whole number of elements, so concatenation never moves an
/// element boundary across a request seam); a generic reduce fuses only
/// under an explicit Request::combine_tag, and the fused combiner applies
/// the original operator independently per request-sized chunk.  In every
/// case the fused run performs the same fold steps on the same schedule in
/// the same order as each unfused run would, just over wider buffers — so
/// slicing the result at request boundaries recovers each request's exact
/// unfused bytes.

namespace logpc::svc {

/// Identity of a fusible request shape: two requests coalesce into one
/// engine run iff their keys compare equal.  Tenant deliberately absent —
/// fusion is cross-tenant (fairness is settled at claim time, where the
/// scheduler charges each member's stride pass); QoS deliberately present —
/// a batch never mixes classes, so class-level policy (opt-out, metrics)
/// stays exact.
struct FusionKey {
  OpKind op = OpKind::kBroadcast;
  QoS qos = QoS::kBatch;
  ProcId root = 0;          ///< kBroadcast/kReduce; 0 for kAllgather
  std::size_t bytes = 0;    ///< broadcast: payload size; else per-proc value
  std::size_t procs = 0;    ///< kReduce/kAllgather: values.size() shape guard
  bool typed = false;       ///< kReduce: typed-kernel combiner?
  exec::KernelSpec spec{};  ///< kReduce typed identity
  std::string tag;          ///< kReduce generic identity (combine_tag)

  friend bool operator==(const FusionKey&, const FusionKey&) = default;
};

/// The request's fusion identity, or nullopt when it must run alone:
/// empty/ragged inputs, a typed reduce whose chunk splits an element, or a
/// generic reduce without a combine_tag.
[[nodiscard]] std::optional<FusionKey> fusion_key(const Request& request);

/// Segmentation policy knobs (mirrored from CollectiveService::Options so
/// the pure layer stays service-free).
struct SegmentPolicy {
  std::size_t threshold = 256 * 1024;  ///< split at/above this; 0 disables
  std::size_t segment_bytes = 64 * 1024;  ///< target bytes per segment
  int max_segments = 16;
};

/// Segments for a broadcast of `total_bytes`: 1 below the threshold (or
/// when disabled), else ceil(total/segment_bytes) clamped to [2,
/// max_segments].
[[nodiscard]] int choose_segments(std::size_t total_bytes,
                                  const SegmentPolicy& policy);

/// Fused broadcast payload: members' payloads concatenated in batch order.
[[nodiscard]] exec::Bytes concat_payloads(
    const std::vector<const Request*>& members);

/// Fused reduce/allgather inputs: per processor, members' values[p]
/// concatenated in batch order.
[[nodiscard]] std::vector<exec::Bytes> concat_values(
    const std::vector<const Request*>& members);

/// The combiner a fused reduce runs with.  Typed combiners pass through —
/// the elementwise kernel is chunk-oblivious — while a generic combiner is
/// wrapped to apply the original operator independently per `chunk`-sized
/// slice, preserving each member's exact fold bytes.
[[nodiscard]] exec::Combiner fused_combiner(const Request& exemplar,
                                            std::size_t chunk,
                                            std::size_t count);

/// Member `index`'s view of a fused run: scalar telemetry copied from the
/// shared run, every result buffer sliced to the member's `chunk` bytes (a
/// broadcast, segmented or not, reports one coalesced buffer per proc).
/// Event/delivery/fault logs are left empty — they describe the batch, not
/// any one member; the shared Response::profile carries them.  With
/// count <= 1 the slice degenerates to the whole buffer.
[[nodiscard]] exec::ExecReport member_report(const exec::ExecReport& run,
                                             std::size_t chunk,
                                             std::size_t index,
                                             std::size_t count);

}  // namespace logpc::svc
