#include "svc/fusion.hpp"

#include <algorithm>
#include <span>
#include <utility>

namespace logpc::svc {

namespace {

/// Member `index`'s chunk of a fused buffer; the whole buffer when the run
/// was not fused.  Bounds-clamped so a combiner that (against the
/// combine_tag contract) resized the accumulator degrades to short output
/// instead of undefined behavior.
exec::Bytes slice_chunk(const exec::Bytes& whole, std::size_t index,
                        std::size_t chunk, std::size_t count) {
  if (count <= 1) return whole;
  const std::size_t begin = std::min(index * chunk, whole.size());
  const std::size_t end = std::min(begin + chunk, whole.size());
  return exec::Bytes(whole.begin() + static_cast<std::ptrdiff_t>(begin),
                     whole.begin() + static_cast<std::ptrdiff_t>(end));
}

/// Applies `inner` independently per chunk: the fused accumulator is N
/// members' accumulators side by side, and each member's fold must see
/// exactly the bytes its unfused run would have seen.
exec::CombineFn chunked_combine(exec::CombineFn inner, std::size_t chunk) {
  return [inner = std::move(inner), chunk](exec::Bytes& acc,
                                           std::span<const std::byte> rhs) {
    exec::Bytes tmp;
    for (std::size_t off = 0;
         off + chunk <= acc.size() && off + chunk <= rhs.size();
         off += chunk) {
      const auto at = static_cast<std::ptrdiff_t>(off);
      tmp.assign(acc.begin() + at,
                 acc.begin() + at + static_cast<std::ptrdiff_t>(chunk));
      inner(tmp, rhs.subspan(off, chunk));
      std::copy_n(tmp.begin(),
                  static_cast<std::ptrdiff_t>(std::min(chunk, tmp.size())),
                  acc.begin() + at);
    }
  };
}

}  // namespace

std::optional<FusionKey> fusion_key(const Request& request) {
  FusionKey key;
  key.op = request.op;
  key.qos = request.qos;
  switch (request.op) {
    case OpKind::kBroadcast:
      if (request.payload.empty()) return std::nullopt;
      key.root = request.root;
      key.bytes = request.payload.size();
      return key;
    case OpKind::kReduce: {
      if (request.values.empty() || !request.combine.valid()) {
        return std::nullopt;
      }
      const std::size_t bytes = request.values.front().size();
      if (bytes == 0) return std::nullopt;
      for (const exec::Bytes& v : request.values) {
        if (v.size() != bytes) return std::nullopt;
      }
      key.root = request.root;
      key.bytes = bytes;
      key.procs = request.values.size();
      if (request.combine.typed()) {
        // Concatenation must not move an element boundary across a request
        // seam: a ragged tail folded standalone stays untouched (the
        // kernel folds floor(bytes/elem) elements), but fused it would
        // complete a spanning element and diverge bitwise.
        if (bytes % exec::elem_size(request.combine.spec().dtype) != 0) {
          return std::nullopt;
        }
        key.typed = true;
        key.spec = request.combine.spec();
      } else {
        if (request.combine_tag.empty()) return std::nullopt;
        key.tag = request.combine_tag;
      }
      return key;
    }
    case OpKind::kAllgather: {
      if (request.values.empty()) return std::nullopt;
      const std::size_t bytes = request.values.front().size();
      if (bytes == 0) return std::nullopt;
      for (const exec::Bytes& v : request.values) {
        if (v.size() != bytes) return std::nullopt;
      }
      key.bytes = bytes;
      key.procs = request.values.size();
      return key;
    }
  }
  return std::nullopt;
}

int choose_segments(std::size_t total_bytes, const SegmentPolicy& policy) {
  if (policy.threshold == 0 || total_bytes < policy.threshold ||
      policy.max_segments < 2) {
    return 1;
  }
  const std::size_t target = std::max<std::size_t>(policy.segment_bytes, 1);
  const std::size_t want = (total_bytes + target - 1) / target;
  return static_cast<int>(std::clamp<std::size_t>(
      want, 2, static_cast<std::size_t>(policy.max_segments)));
}

exec::Bytes concat_payloads(const std::vector<const Request*>& members) {
  std::size_t total = 0;
  for (const Request* r : members) total += r->payload.size();
  exec::Bytes out;
  out.reserve(total);
  for (const Request* r : members) {
    out.insert(out.end(), r->payload.begin(), r->payload.end());
  }
  return out;
}

std::vector<exec::Bytes> concat_values(
    const std::vector<const Request*>& members) {
  std::vector<exec::Bytes> out;
  if (members.empty()) return out;
  const std::size_t P = members.front()->values.size();
  out.resize(P);
  for (std::size_t p = 0; p < P; ++p) {
    const std::size_t chunk = members.front()->values[p].size();
    out[p].reserve(members.size() * chunk);
    for (const Request* r : members) {
      out[p].insert(out[p].end(), r->values[p].begin(), r->values[p].end());
    }
  }
  return out;
}

exec::Combiner fused_combiner(const Request& exemplar, std::size_t chunk,
                              std::size_t count) {
  if (count <= 1 || exemplar.combine.typed()) return exemplar.combine;
  return exec::Combiner(chunked_combine(exemplar.combine.generic(), chunk));
}

exec::ExecReport member_report(const exec::ExecReport& run, std::size_t chunk,
                               std::size_t index, std::size_t count) {
  exec::ExecReport r;
  r.params = run.params;
  r.mode = run.mode;
  r.label = run.label;
  r.predicted_makespan = run.predicted_makespan;
  r.wall_ns = run.wall_ns;
  r.messages = run.messages;
  r.payload_bytes = count > 1 ? run.payload_bytes / count : run.payload_bytes;
  r.mailbox_capacity = run.mailbox_capacity;
  r.max_mailbox_occupancy = run.max_mailbox_occupancy;
  r.retries = run.retries;
  r.kernel_folds = run.kernel_folds;
  r.generic_folds = run.generic_folds;
  r.warm_pool = run.warm_pool;
  r.warm_buffers = run.warm_buffers;
  // Both result containers are mirrored whatever the op, so a fused
  // member's report has exactly the shape its solo run would have had
  // (the op's untouched container is per-proc empties, which slice to
  // per-proc empties).
  r.folded.resize(run.folded.size());
  for (std::size_t p = 0; p < run.folded.size(); ++p) {
    r.folded[p] = slice_chunk(run.folded[p], index, chunk, count);
  }
  r.items.resize(run.items.size());
  for (std::size_t p = 0; p < run.items.size(); ++p) {
    r.items[p].reserve(run.items[p].size());
    for (const exec::Bytes& item : run.items[p]) {
      r.items[p].push_back(slice_chunk(item, index, chunk, count));
    }
  }
  return r;
}

}  // namespace logpc::svc
