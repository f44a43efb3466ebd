#include "ops/operator.h"

namespace sl::ops {

Status Operator::Flush(Timestamp) { return Status::OK(); }

Status Operator::Rescale(size_t new_parallelism) {
  if (range_counts_.empty()) {
    return Status::Unimplemented("operator '" + name_ +
                                 "' is not key-partitioned");
  }
  if (new_parallelism == 0) {
    return Status::InvalidArgument("parallelism must be at least 1");
  }
  range_counts_.assign(new_parallelism, 0);
  return Status::OK();
}

Status Operator::ProcessBatch(size_t port, const stt::TupleRef* tuples,
                              size_t count, BatchContext* ctx) {
  // Per-tuple fallback: identical to the caller dispatching the run
  // itself, with failures diverted per row so one bad tuple does not
  // stop the rest of the batch (matching the runtimes' per-tuple error
  // handling, which logs and keeps going).
  for (size_t i = 0; i < count; ++i) {
    if (ctx != nullptr && ctx->on_row) ctx->on_row(i);
    Status s = Process(port, tuples[i]);
    if (!s.ok() && ctx != nullptr) {
      ctx->errors.push_back(BatchRowError{i, std::move(s)});
    }
  }
  return Status::OK();
}

void Operator::Emit(const stt::TupleRef& tuple) {
  ++stats_.tuples_out;
  ++window_out_;
  if (emit_) emit_(tuple);
}

void Operator::EmitAll(const stt::RefBatch& batch) {
  for (const auto& tuple : batch.tuples()) Emit(tuple);
}

void Operator::CountIn() {
  ++stats_.tuples_in;
  ++window_in_;
}

void Operator::ObserveWatermark(size_t port, Timestamp watermark) {
  frontier_.Observe(port, watermark);
  stats_.watermark_low = frontier_.Min();
}

bool Operator::ApplyLatePolicy(const stt::TupleRef& tuple) {
  switch (watermark_options_.late_policy) {
    case LatePolicy::kAdmit:
      return true;
    case LatePolicy::kDrop:
      ++stats_.late_dropped;
      return false;
    case LatePolicy::kSideOutput:
      // Without a late-side sink installed the tuple is still kept out
      // of the window (the policy's point), it just lands nowhere.
      ++stats_.late_routed;
      if (late_emit_) late_emit_(tuple);
      return false;
  }
  return true;
}

void Operator::ResetWindowCounters() {
  window_in_ = 0;
  window_out_ = 0;
}

}  // namespace sl::ops
