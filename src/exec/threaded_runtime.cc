#include "exec/threaded_runtime.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <thread>
#include <utility>

#include "dataflow/validate.h"
#include "exec/spsc_queue.h"
#include "sinks/streams.h"
#include "util/logging.h"

namespace sl::exec {

using dataflow::Node;
using dataflow::NodeKind;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status NotASource(const std::string& source, const dataflow::Dataflow& df) {
  return Status::NotFound("'" + source + "' is not a source of dataflow '" +
                          df.name() + "'");
}

Status NotRunning() {
  return Status::FailedPrecondition("threaded runtime is not running");
}

Status TimeGoesBack(const std::string& source, Timestamp at,
                    Timestamp reached) {
  return Status::InvalidArgument(
      "tuple for '" + source + "' at virtual time " + std::to_string(at) +
      " is behind the time already reached (" + std::to_string(reached) +
      "); times must be non-decreasing");
}

}  // namespace

/// What flows through a channel: a tuple with its piggybacked watermark
/// and ingestion stamp, a batch of such tuples, a flush punctuation, or
/// end-of-stream.
struct ThreadedRuntime::Message {
  enum class Kind : uint8_t { kData, kPunct, kEos, kBatch };
  /// One tuple of a kBatch run with its own lineage. The per-item
  /// watermark is what a kData message would have carried; the batch
  /// folds them into one sealed message watermark (their max — safe
  /// because the per-port frontier is a max-merge and is only consulted
  /// at punctuation barriers, which FIFO-follow the whole batch).
  struct Item {
    stt::TupleRef tuple;
    Timestamp watermark = stt::kNoWatermark;
    int64_t ingest_ns = 0;
  };
  Kind kind = Kind::kData;
  stt::TupleRef tuple;
  std::vector<Item> items;  // kBatch: coalesced run of data tuples
  Timestamp watermark = stt::kNoWatermark;  // kData/kBatch: promise
  Timestamp time = 0;                       // kPunct: virtual time reached
  int64_t ingest_ns = 0;  // kData: wall clock at Feed (0 = untracked)
};

/// One dataflow edge: an SPSC ring plus the consumer hookup and the
/// gauges the monitor samples. The ring's bounded capacity is the
/// edge's credit pool. All gauge counters are relaxed atomics — they
/// are read cross-thread by SampleStages while both ends keep running.
struct ThreadedRuntime::Channel {
  explicit Channel(size_t capacity) : ring(capacity) {}

  SpscRing<Message> ring;
  Stage* consumer = nullptr;
  size_t port = 0;        ///< input port at the consumer
  size_t input_idx = 0;   ///< position in consumer->inputs
  std::atomic<uint64_t> peak_depth{0};
  std::atomic<uint64_t> backpressure_waits{0};
  std::atomic<uint64_t> bytes{0};  ///< Tuple::ApproxValueBytes charged
};

/// One stage: an operator or sink plus its input channels (one per
/// port), output channels (one per downstream edge), punctuation state
/// and flush schedule. The fields below the wiring are touched only by
/// the thread holding the stage's claim token; the atomics are shared
/// with SampleStages.
struct ThreadedRuntime::Stage {
  std::string name;
  ops::Operator* op = nullptr;  // owned by ThreadedRuntime::operators_
  sinks::Sink* sink = nullptr;  // owned by ThreadedRuntime::sinks_
  size_t parallelism = 1;
  std::vector<Channel*> inputs;
  std::vector<Channel*> outputs;

  // Claim-holder state. Punctuation doubles as a cross-port barrier:
  // an input whose punct_in is ahead of punct_min has delivered a
  // boundary the other ports have not reached, and must not be drained
  // further — otherwise a two-port stage (join) would admit the fast
  // port's future tuples into a window the laggard port has yet to
  // close, diverging from the simulator where the flush timer fires
  // before any later-virtual-time delivery.
  std::vector<Timestamp> punct_in;  ///< last punctuation per input
  std::vector<bool> input_closed;   ///< end-of-stream reached per input
  Timestamp punct_min = 0;
  size_t eos_count = 0;      ///< closed inputs
  Duration interval = 0;     ///< blocking operators only
  Timestamp next_flush = 0;  ///< 0 = non-blocking, no flush schedule
  int64_t current_ingest_ns = 0;  ///< lineage for emissions in Process
  std::vector<int64_t> latencies_ns;  ///< sinks: Feed-to-delivery
  /// Pending emissions, sealed into one ring message per output at the
  /// batch bound, before punctuation is forwarded, and at the end of
  /// every quantum.
  std::vector<Message::Item> emit_buffer;
  /// Columnar-run scratch: contiguous TupleRef view of the current
  /// kBatch message and the per-run error/lineage context. Claim-holder
  /// owned; reused so steady state allocates nothing.
  std::vector<stt::TupleRef> batch_refs;
  ops::Operator::BatchContext batch_ctx;

  // The claim token that keeps the state above single-threaded even
  // though any pool worker (or a helping producer) may run the stage.
  // Transitions:
  // kIdle->kQueued (ScheduleStage, with a ready-deque hint),
  // kQueued->kRunning (PopReady/TryHelp claim), kRunning->kRunningDirty
  // (a producer pushed mid-run), kRunning->kIdle (clean release; a
  // dirty mark makes the release CAS fail and forces a re-check).
  enum RunState : int { kIdle = 0, kQueued = 1, kRunning = 2, kDirty = 3 };
  std::atomic<int> run_state{kIdle};
  std::atomic<bool> done{false};  ///< all inputs closed, EOS forwarded

  // Gauges (relaxed atomics, sampled cross-thread).
  std::atomic<uint64_t> in_count{0};
  std::atomic<uint64_t> out_count{0};
  std::atomic<uint64_t> process_errors{0};
  std::atomic<size_t> cache_gauge{0};
  std::atomic<uint64_t> quanta{0};  ///< quanta run by workers and helpers

  /// Counts one failed process, flush or sink write. Only the stage's
  /// first failure is logged; FinishCollect reports the total, so a
  /// stage that fails on every tuple logs two lines, not one per tuple.
  void RecordError(const char* what, const Status& status) {
    if (process_errors.fetch_add(1, std::memory_order_relaxed) == 0) {
      SL_LOG(kError) << "threaded " << what << " of " << name
                     << " failed: " << status.ToString();
    }
  }
};

/// Thread-safe trigger activation recorder: trigger stages run on
/// different workers, so requests from different operators can
/// interleave.
class ThreadedRuntime::Recorder : public ops::ActivationHandler {
 public:
  void ActivateSensors(const std::vector<std::string>& ids,
                       Timestamp at) override {
    MutexLock lock(&mu_);
    records_.push_back({true, ids, at});
  }
  void DeactivateSensors(const std::vector<std::string>& ids,
                         Timestamp at) override {
    MutexLock lock(&mu_);
    records_.push_back({false, ids, at});
  }
  std::vector<ops::ActivationRecord> Take() {
    MutexLock lock(&mu_);
    return std::move(records_);
  }

 private:
  Mutex mu_;
  std::vector<ops::ActivationRecord> records_ SL_GUARDED_BY(mu_);
};

ThreadedRuntime::ThreadedRuntime(dataflow::Dataflow dataflow,
                                 const pubsub::Broker* broker,
                                 sinks::SinkContext sink_context,
                                 ThreadedOptions options)
    : dataflow_(std::move(dataflow)),
      broker_(broker),
      sink_context_(std::move(sink_context)),
      options_(std::move(options)),
      recorder_(std::make_unique<Recorder>()) {}

ThreadedRuntime::~ThreadedRuntime() {
  if (started_ && !finished_) Abort();
}

Status ThreadedRuntime::Build() {
  dataflow::Validator validator(broker_);
  SL_ASSIGN_OR_RETURN(dataflow::ValidationReport report,
                      validator.Validate(dataflow_));
  if (!report.ok()) {
    return Status::ValidationError(
        "threaded runtime: cannot execute an unsound dataflow:\n" +
        report.ToString());
  }

  // Operators and sinks, with the same options the simulator would use.
  for (const auto& name : dataflow_.OperatorNames()) {
    const Node& node = **dataflow_.node(name);
    std::vector<stt::SchemaPtr> input_schemas;
    for (const auto& in : node.inputs) {
      input_schemas.push_back(report.schemas.at(in));
    }
    ops::OperatorOptions op_options;
    op_options.watermark = options_.watermark;
    op_options.activation = recorder_.get();
    SL_ASSIGN_OR_RETURN(std::unique_ptr<ops::Operator> op,
                        ops::MakeOperator(name, node.op, node.spec,
                                          input_schemas, node.inputs,
                                          op_options));
    operators_.emplace(name, std::move(op));
  }
  for (const auto& name : dataflow_.SinkNames()) {
    const Node& node = **dataflow_.node(name);
    SL_ASSIGN_OR_RETURN(
        std::unique_ptr<sinks::Sink> sink,
        sinks::MakeSink(name, node.sink, node.sink_target, sink_context_));
    sinks_.emplace(name, std::move(sink));
  }

  // Stages, with the simulator's flush stagger: blocking operators
  // fire interval + stagger * depth after deploy, depth counting the
  // blocking operators preceding them in topological order.
  std::map<std::string, Stage*> stage_of;
  Duration stagger_depth = 0;
  for (const auto& name : dataflow_.topological_order()) {
    const Node& node = **dataflow_.node(name);
    if (node.kind == NodeKind::kSource) continue;
    auto stage = std::make_unique<Stage>();
    stage->name = name;
    if (node.kind == NodeKind::kOperator) {
      stage->op = operators_.at(name).get();
      stage->parallelism = stage->op->parallelism();
      if (stage->op->is_blocking()) {
        stage->interval = stage->op->interval();
        stage->next_flush = options_.deploy_time + stage->interval +
                            ops::kDefaultFlushStaggerMs * stagger_depth;
        ++stagger_depth;
        boundaries_.push({stage->next_flush, stage->interval});
      }
    } else {
      stage->sink = sinks_.at(name).get();
    }
    stage_of[name] = stage.get();
    stages_.push_back(std::move(stage));
  }

  // Channels: one ring per edge, input order = port order. Every
  // source has an entry, so one that nothing consumes is still a
  // source: feeding it reaches no stage.
  for (const auto& name : dataflow_.SourceNames()) {
    source_channels_.try_emplace(name);
  }
  for (auto& stage : stages_) {
    const Node& node = **dataflow_.node(stage->name);
    for (size_t port = 0; port < node.inputs.size(); ++port) {
      auto channel = std::make_unique<Channel>(options_.queue_capacity);
      channel->consumer = stage.get();
      channel->port = port;
      channel->input_idx = stage->inputs.size();
      stage->inputs.push_back(channel.get());
      stage->punct_in.push_back(options_.deploy_time);
      stage->input_closed.push_back(false);
      const std::string& producer = node.inputs[port];
      const Node& pnode = **dataflow_.node(producer);
      if (pnode.kind == NodeKind::kSource) {
        source_channels_[producer].push_back(channel.get());
        all_source_channels_.push_back(channel.get());
      } else {
        stage_of.at(producer)->outputs.push_back(channel.get());
      }
      channels_.push_back(std::move(channel));
    }
    stage->punct_min = options_.deploy_time;
  }

  // Emission wiring: operator emissions carry the operator's current
  // output watermark (as the simulator's Route does) and the lineage
  // stamp of the input being processed; late-side diversions go to the
  // shared (mutex-guarded) late row collection.
  for (auto& stage : stages_) {
    if (stage->op == nullptr) continue;
    Stage* s = stage.get();
    // Batch-aware transfer: emissions accumulate in the stage's buffer
    // (with the watermark a kData message would have carried) and seal
    // into one ring message at the batch bound, before any punctuation
    // goes out, and at the end of every quantum. At batch_max = 1 every
    // emission seals at once into its own kData message.
    s->op->set_emit([this, s](const stt::TupleRef& t) {
      s->out_count.fetch_add(1, std::memory_order_relaxed);
      if (s->outputs.empty()) return;
      s->emit_buffer.push_back(
          {t, s->op->output_watermark(), s->current_ingest_ns});
      if (s->emit_buffer.size() >= options_.batch_max) FlushEmitBuffers(s);
    });
    s->op->set_late_emit([this](const stt::TupleRef& t) {
      MutexLock lock(&late_mu_);
      late_rows_.push_back(t->ToString());
    });
  }
  return Status::OK();
}

Status ThreadedRuntime::Start() {
  if (started_) {
    return Status::FailedPrecondition("threaded runtime already started");
  }
  SL_RETURN_IF_ERROR(Build());
  // The pool is sized once, before any worker starts (ThreadedOptions).
  if (options_.pool_size == 0) {
    const size_t cores = std::max(3u, std::thread::hardware_concurrency());
    options_.pool_size = std::min(stages_.size(), cores - 2);
  }
  started_ = true;
  wall_start_ = std::chrono::steady_clock::now();
  pool_threads_.reserve(options_.pool_size);
  for (size_t i = 0; i < options_.pool_size; ++i) {
    pool_threads_.emplace_back([this] { PoolLoop(); });
  }
  return Status::OK();
}

void ThreadedRuntime::EmitPunct(Timestamp time) {
  for (Channel* channel : all_source_channels_) {
    Message m;
    m.kind = Message::Kind::kPunct;
    m.time = time;
    PushBlocking(channel, std::move(m));
  }
}

Status ThreadedRuntime::AdvanceTime(Timestamp now) {
  // After Finish no stage drains the source rings, so punctuation
  // pushed now would fill them and spin forever.
  if (!started_ || finished_) return NotRunning();
  ReachTime(now);
  return Status::OK();
}

void ThreadedRuntime::ReachTime(Timestamp now) {
  if (now > reached_) reached_ = now;
  while (!boundaries_.empty() && boundaries_.top().at <= now) {
    Boundary b = boundaries_.top();
    boundaries_.pop();
    if (b.at > last_punct_) {
      EmitPunct(b.at);
      last_punct_ = b.at;
    }
    boundaries_.push({b.at + b.interval, b.interval});
  }
}

Status ThreadedRuntime::Feed(const std::string& source,
                             const stt::TupleRef& tuple, Timestamp at,
                             Timestamp watermark) {
  if (!started_ || finished_) return NotRunning();
  auto it = source_channels_.find(source);
  if (it == source_channels_.end()) return NotASource(source, dataflow_);
  if (at < reached_) return TimeGoesBack(source, at, reached_);
  // Punctuation for boundaries <= `at` goes first: a flush at B must
  // not see a tuple ingested at B (the simulator's tie-break — the
  // re-armed flush timer has the smaller sequence number).
  ReachTime(at);
  fed_.fetch_add(1, std::memory_order_relaxed);
  Message m;
  m.kind = Message::Kind::kData;
  m.tuple = tuple;
  m.watermark = watermark;
  m.ingest_ns = NowNs();
  for (Channel* channel : it->second) {
    Message copy = m;
    PushBlocking(channel, std::move(copy));
  }
  return Status::OK();
}

void ThreadedRuntime::PushBlocking(Channel* channel, Message&& message) {
  // Byte gauge per edge. This deliberately calls the tuple's memoized
  // ApproxValueBytes from whichever thread produces the edge — the
  // memoization must be (and now is) an atomic, see stt/tuple.h.
  if (message.tuple != nullptr) {
    channel->bytes.fetch_add(message.tuple->ApproxValueBytes(),
                             std::memory_order_relaxed);
  }
  for (const Message::Item& item : message.items) {
    channel->bytes.fetch_add(item.tuple->ApproxValueBytes(),
                             std::memory_order_relaxed);
  }
  if (!channel->ring.TryPush(message)) {
    // Out of credits: the consumer is behind. Parking could deadlock
    // the pool (every worker blocked pushing into rings only pool
    // workers drain), so the producer help-runs its consumer inline. A
    // failed claim means another thread is draining it right now, and
    // the chain of helpers bottoms out at the sinks, which never push.
    channel->backpressure_waits.fetch_add(1, std::memory_order_relaxed);
    do {
      if (abort_.load(std::memory_order_relaxed)) return;  // dropped
      if (!TryHelp(channel->consumer)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    } while (!channel->ring.TryPush(message));
  }
  // The ring's own snapshot: it reads head before tail, so unlike two
  // separately kept push/pop counters it never exceeds the capacity.
  const uint64_t depth = channel->ring.SizeApprox();
  if (depth > channel->peak_depth.load(std::memory_order_relaxed)) {
    channel->peak_depth.store(depth, std::memory_order_relaxed);
  }
  ScheduleStage(channel->consumer);
}

ThreadedRuntime::Message ThreadedRuntime::MakeRun(const TraceEvent* first,
                                                  size_t n) {
  Message m;
  const int64_t now_ns = NowNs();
  if (n == 1) {
    m.kind = Message::Kind::kData;
    m.tuple = first->tuple;
    m.watermark = first->watermark;
    m.ingest_ns = now_ns;
    return m;
  }
  m.kind = Message::Kind::kBatch;
  m.items.reserve(n);
  for (const TraceEvent* e = first; e != first + n; ++e) {
    m.items.push_back({e->tuple, e->watermark, now_ns});
    if (e->watermark != stt::kNoWatermark &&
        (m.watermark == stt::kNoWatermark || e->watermark > m.watermark)) {
      m.watermark = e->watermark;
    }
  }
  return m;
}

void ThreadedRuntime::HandleData(Stage* stage, size_t input_idx,
                                 Message& message) {
  stage->in_count.fetch_add(1, std::memory_order_relaxed);
  if (stage->op != nullptr) {
    Channel* channel = stage->inputs[input_idx];
    stage->current_ingest_ns = message.ingest_ns;
    stage->op->ObserveWatermark(channel->port, message.watermark);
    Status status = stage->op->Process(channel->port, message.tuple);
    if (!status.ok()) stage->RecordError("process", status);
    return;
  }
  if (message.ingest_ns > 0) {
    stage->latencies_ns.push_back(NowNs() - message.ingest_ns);
  }
  if (!options_.count_only_sinks) {
    Status status = stage->sink->Write(message.tuple);
    if (!status.ok()) stage->RecordError("write", status);
  }
}

void ThreadedRuntime::HandleBatch(Stage* stage, size_t input_idx,
                                  Message& message) {
  if (stage->op != nullptr) {
    Channel* channel = stage->inputs[input_idx];
    // One frontier fold for the whole run: the sealed watermark is the
    // max over the items' per-tuple promises, the per-port fold is a
    // max-merge, and the frontier is only consulted at punctuation
    // barriers, which FIFO-follow the batch — so this is equivalent to
    // observing each item's watermark in turn.
    stage->op->ObserveWatermark(channel->port, message.watermark);
    if (stage->op->batchable(channel->port)) {
      // Columnar run: the whole message goes through ProcessBatch; the
      // lineage stamp is applied per row just before its emissions via
      // the on_row hook (same point the per-tuple loop would set it).
      stage->in_count.fetch_add(message.items.size(),
                                std::memory_order_relaxed);
      stage->batch_refs.clear();
      for (const Message::Item& item : message.items) {
        stage->batch_refs.push_back(item.tuple);
      }
      stage->batch_ctx.errors.clear();
      stage->batch_ctx.on_row = [stage, &message](size_t row) {
        stage->current_ingest_ns = message.items[row].ingest_ns;
      };
      Status status =
          stage->op->ProcessBatch(channel->port, stage->batch_refs.data(),
                                  stage->batch_refs.size(), &stage->batch_ctx);
      for (const ops::Operator::BatchRowError& e : stage->batch_ctx.errors) {
        stage->RecordError("process", e.status);
      }
      if (!status.ok()) stage->RecordError("process", status);
      stage->batch_ctx.on_row = nullptr;
      return;
    }
    for (const Message::Item& item : message.items) {
      stage->in_count.fetch_add(1, std::memory_order_relaxed);
      stage->current_ingest_ns = item.ingest_ns;
      Status status = stage->op->Process(channel->port, item.tuple);
      if (!status.ok()) stage->RecordError("process", status);
    }
    return;
  }
  for (const Message::Item& item : message.items) {
    stage->in_count.fetch_add(1, std::memory_order_relaxed);
    if (item.ingest_ns > 0) {
      stage->latencies_ns.push_back(NowNs() - item.ingest_ns);
    }
    if (!options_.count_only_sinks) {
      Status status = stage->sink->Write(item.tuple);
      if (!status.ok()) stage->RecordError("write", status);
    }
  }
}

void ThreadedRuntime::FlushEmitBuffers(Stage* stage) {
  if (stage->emit_buffer.empty()) return;
  if (stage->emit_buffer.size() == 1) {
    // A lone buffered tuple travels as plain kData (no batch overhead).
    const Message::Item& item = stage->emit_buffer.front();
    Message m;
    m.kind = Message::Kind::kData;
    m.tuple = item.tuple;
    m.watermark = item.watermark;
    m.ingest_ns = item.ingest_ns;
    for (Channel* out : stage->outputs) {
      Message copy = m;
      PushBlocking(out, std::move(copy));
    }
  } else {
    Message m;
    m.kind = Message::Kind::kBatch;
    m.items = std::move(stage->emit_buffer);
    // output_watermark() is monotone, so the last item carries the max.
    m.watermark = m.items.back().watermark;
    for (size_t i = 0; i + 1 < stage->outputs.size(); ++i) {
      Message copy = m;
      PushBlocking(stage->outputs[i], std::move(copy));
    }
    if (!stage->outputs.empty()) {
      PushBlocking(stage->outputs.back(), std::move(m));
    }
  }
  stage->emit_buffer.clear();
}

void ThreadedRuntime::HandlePunct(Stage* stage, size_t input_idx,
                                  Timestamp time) {
  if (time > stage->punct_in[input_idx]) stage->punct_in[input_idx] = time;
  AdvanceFrontier(stage);
}

void ThreadedRuntime::AdvanceFrontier(Stage* stage) {
  // The frontier is the min punctuation over the inputs still open; a
  // closed input stops constraining it (no further data can arrive).
  bool any_open = false;
  Timestamp new_min = 0;
  for (size_t i = 0; i < stage->punct_in.size(); ++i) {
    if (stage->input_closed[i]) continue;
    if (!any_open || stage->punct_in[i] < new_min) {
      new_min = stage->punct_in[i];
    }
    any_open = true;
  }
  if (!any_open || new_min <= stage->punct_min) return;
  stage->punct_min = new_min;
  if (stage->op != nullptr && stage->next_flush > 0) {
    // Fire every boundary the punctuation minimum just passed, in
    // order — the flush cascade (emissions land downstream before the
    // punctuation is forwarded) reproduces the staggered schedule.
    while (stage->next_flush <= new_min) {
      stage->current_ingest_ns = 0;  // flush emissions have no lineage
      Status status = stage->op->Flush(stage->next_flush);
      if (!status.ok()) stage->RecordError("flush", status);
      stage->next_flush += stage->interval;
    }
  }
  // Seal pending batched emissions (data processed earlier in this
  // round plus anything the flush cascade produced) before forwarding
  // the punctuation — per-channel FIFO keeps data ahead of its barrier.
  if (stage->op != nullptr) FlushEmitBuffers(stage);
  Message m;
  m.kind = Message::Kind::kPunct;
  m.time = new_min;
  for (Channel* out : stage->outputs) {
    Message copy = m;
    PushBlocking(out, std::move(copy));
  }
}

bool ThreadedRuntime::HasRunnableInput(const Stage* stage) const {
  for (size_t i = 0; i < stage->inputs.size(); ++i) {
    if (stage->input_closed[i]) continue;
    if (stage->punct_in[i] > stage->punct_min) continue;
    if (!stage->inputs[i]->ring.Empty()) return true;
  }
  return false;
}

void ThreadedRuntime::RunStageQuantum(Stage* stage) {
  const size_t n_inputs = stage->inputs.size();
  Message message;
  for (size_t i = 0; i < n_inputs; ++i) {
    if (stage->input_closed[i]) continue;
    // Barrier: an input whose punctuation is ahead of the stage
    // frontier already delivered a boundary the other open ports have
    // not confirmed — draining it further would admit its future
    // tuples into a window the laggard port has yet to close.
    if (stage->punct_in[i] > stage->punct_min) continue;
    Channel* channel = stage->inputs[i];
    // Bounded drain per round keeps multi-port stages fair: a firehose
    // on one port cannot starve the other port's punctuation. The same
    // bound is the scheduling quantum — a stage yields its worker after
    // it.
    size_t budget = 256;
    while (budget-- > 0 && channel->ring.TryPop(&message)) {
      if (message.kind == Message::Kind::kEos) {
        stage->input_closed[i] = true;
        ++stage->eos_count;
        // A closed input no longer constrains the frontier; the
        // remaining open ports may now advance it.
        AdvanceFrontier(stage);
        break;
      }
      if (message.kind == Message::Kind::kData) {
        HandleData(stage, i, message);
      } else if (message.kind == Message::Kind::kBatch) {
        HandleBatch(stage, i, message);
      } else {
        HandlePunct(stage, i, message.time);
        // The punctuation may have left this port ahead of a slower
        // sibling: stop draining it until the frontier catches up.
        if (stage->punct_in[i] > stage->punct_min) break;
      }
      if (abort_.load(std::memory_order_relaxed)) return;
    }
    if (abort_.load(std::memory_order_relaxed)) return;
  }
  if (stage->op != nullptr) {
    stage->cache_gauge.store(stage->op->stats().cache_size,
                             std::memory_order_relaxed);
    // Seal pending batched emissions before the stage yields — a
    // buffered tuple must never wait on more input arriving.
    FlushEmitBuffers(stage);
  }
  if (stage->eos_count >= n_inputs &&
      !stage->done.load(std::memory_order_relaxed)) {
    // All inputs closed and drained: close downstream, exactly once.
    for (Channel* out : stage->outputs) {
      Message m;
      m.kind = Message::Kind::kEos;
      PushBlocking(out, std::move(m));
    }
    stage->done.store(true, std::memory_order_release);
    stages_done_.fetch_add(1, std::memory_order_relaxed);
    pool_gate_.Notify();
  }
}

// -- pooled scheduling -------------------------------------------------------
//
// run_state is the claim token: whoever CASes a stage into kRunning is
// its worker for one quantum, which keeps the worker-owned stage state
// single-threaded with the handoff ordered by the CAS itself. The
// release protocol closes the classic lost-wakeup race without a
// rescan: a producer that pushes while the stage runs either marks it
// dirty (the release CAS fails and the runner re-checks) or finds it
// idle afterwards and queues it.

void ThreadedRuntime::ScheduleStage(Stage* stage) {
  for (;;) {
    // A read-modify-write, not a load. It reads the newest state, and
    // the runner's next transition (every claim, requeue and re-check
    // is a read-modify-write too) reads it back, so that runner sees
    // the push the caller just made. A plain load could return a stale
    // kQueued or kDirty while the runner, not yet seeing the push,
    // releases the stage with input queued: a lost wakeup.
    const int state = stage->run_state.fetch_add(0);
    if (state == Stage::kQueued || state == Stage::kDirty) return;
    if (state == Stage::kIdle) {
      int expected = Stage::kIdle;
      if (stage->run_state.compare_exchange_weak(expected, Stage::kQueued)) {
        {
          MutexLock lock(&ready_mu_);
          ready_.push_back(stage);
        }
        pool_gate_.Notify();
        return;
      }
    } else {  // kRunning: tell the runner to re-check before idling
      int expected = Stage::kRunning;
      if (stage->run_state.compare_exchange_weak(expected, Stage::kDirty)) {
        return;
      }
    }
  }
}

ThreadedRuntime::Stage* ThreadedRuntime::PopReady() {
  MutexLock lock(&ready_mu_);
  while (!ready_.empty()) {
    Stage* stage = ready_.front();
    ready_.pop_front();
    // Validate the hint: a helper may have claimed the stage already
    // (stale entry — drop it; its claim token moved to a newer entry).
    int expected = Stage::kQueued;
    if (stage->run_state.compare_exchange_strong(expected, Stage::kRunning)) {
      return stage;
    }
  }
  return nullptr;
}

void ThreadedRuntime::ReleaseStage(Stage* stage) {
  for (;;) {
    if (stage->done.load(std::memory_order_relaxed) ||
        abort_.load(std::memory_order_relaxed)) {
      stage->run_state.store(Stage::kIdle);
      return;
    }
    if (HasRunnableInput(stage)) {
      // Requeue at the back: FIFO fairness across the node's stages.
      // Exchanges, not stores: see ScheduleStage.
      stage->run_state.exchange(Stage::kQueued);
      {
        MutexLock lock(&ready_mu_);
        ready_.push_back(stage);
      }
      pool_gate_.Notify();
      return;
    }
    int expected = Stage::kRunning;
    if (stage->run_state.compare_exchange_strong(expected, Stage::kIdle)) {
      return;  // clean release; the next push queues the stage
    }
    // A producer pushed mid-run (kDirty): re-check with the claim held.
    stage->run_state.exchange(Stage::kRunning);
  }
}

bool ThreadedRuntime::TryHelp(Stage* stage) {
  int expected = Stage::kIdle;
  if (!stage->run_state.compare_exchange_strong(expected, Stage::kRunning)) {
    expected = Stage::kQueued;
    if (!stage->run_state.compare_exchange_strong(expected, Stage::kRunning)) {
      return false;  // claimed elsewhere — it is making progress
    }
  }
  stage->quanta.fetch_add(1, std::memory_order_relaxed);
  RunStageQuantum(stage);
  ReleaseStage(stage);
  return true;
}

void ThreadedRuntime::PoolLoop() {
  const size_t total = stages_.size();
  while (!abort_.load(std::memory_order_relaxed) &&
         stages_done_.load(std::memory_order_relaxed) < total) {
    Stage* stage = PopReady();
    if (stage == nullptr) {
      pool_gate_.Await(
          [&] {
            if (abort_.load(std::memory_order_relaxed)) return true;
            if (stages_done_.load(std::memory_order_relaxed) >= total) {
              return true;
            }
            MutexLock lock(&ready_mu_);
            return !ready_.empty();
          },
          [&] { return abort_.load(std::memory_order_relaxed); });
      continue;
    }
    stage->quanta.fetch_add(1, std::memory_order_relaxed);
    RunStageQuantum(stage);
    ReleaseStage(stage);
  }
}

void ThreadedRuntime::JoinWorkers() {
  // The mutex makes joining idempotent when Abort races Finish from
  // another thread.
  MutexLock lock(&join_mu_);
  for (auto& thread : pool_threads_) {
    if (thread.joinable()) thread.join();
  }
}

Result<ThreadedRunResult> ThreadedRuntime::Finish(Timestamp end_time) {
  if (!started_) {
    return Status::FailedPrecondition("threaded runtime was never started");
  }
  if (finished_) {
    return Status::FailedPrecondition("threaded runtime already finished");
  }
  ReachTime(end_time);
  for (Channel* channel : all_source_channels_) {
    Message m;
    m.kind = Message::Kind::kEos;
    PushBlocking(channel, std::move(m));
  }
  return FinishCollect();
}

Result<ThreadedRunResult> ThreadedRuntime::FinishCollect() {
  JoinWorkers();
  finished_ = true;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start_)
          .count();

  ThreadedRunResult result;
  result.tuples_fed = fed_.load(std::memory_order_relaxed);
  result.activations = recorder_->Take();
  {
    MutexLock lock(&late_mu_);
    result.late_rows = late_rows_;
  }
  std::sort(result.late_rows.begin(), result.late_rows.end());

  std::vector<int64_t> latencies;
  for (auto& stage : stages_) {
    const uint64_t errors =
        stage->process_errors.load(std::memory_order_relaxed);
    result.process_errors += errors;
    if (errors > 1) {
      SL_LOG(kError) << "threaded stage " << stage->name << " failed "
                     << errors << " times (only the first is logged)";
    }
    if (stage->op != nullptr) {
      result.op_stats[stage->name] = stage->op->stats();
    } else {
      result.tuples_delivered +=
          stage->in_count.load(std::memory_order_relaxed);
      latencies.insert(latencies.end(), stage->latencies_ns.begin(),
                       stage->latencies_ns.end());
      if (auto* collect = dynamic_cast<sinks::CollectSink*>(stage->sink)) {
        std::vector<std::string> rows;
        rows.reserve(collect->tuples().size());
        for (const auto& t : collect->tuples()) rows.push_back(t->ToString());
        std::sort(rows.begin(), rows.end());
        result.sink_rows[stage->name] = std::move(rows);
      }
    }
    for (Channel* channel : stage->inputs) {
      result.backpressure_waits +=
          channel->backpressure_waits.load(std::memory_order_relaxed);
    }
    result.stage_samples.push_back(SampleStage(*stage, /*final=*/true));
  }

  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    auto pct = [&](size_t p) {
      size_t idx = std::min(latencies.size() - 1, latencies.size() * p / 100);
      return latencies[idx];
    };
    result.latency.count = latencies.size();
    result.latency.p50_ns = pct(50);
    result.latency.p95_ns = pct(95);
    result.latency.p99_ns = pct(99);
    result.latency.max_ns = latencies.back();
  }
  result.wall_seconds = wall;
  if (wall > 0) {
    result.tuples_per_sec = static_cast<double>(result.tuples_delivered) / wall;
  }
  return result;
}

void ThreadedRuntime::Abort() {
  if (!started_ || finished_) return;
  abort_.store(true, std::memory_order_relaxed);
  pool_gate_.Notify();
  JoinWorkers();
  finished_ = true;
}

monitor::OperatorSample ThreadedRuntime::SampleStage(const Stage& stage,
                                                     bool final) const {
  monitor::OperatorSample sample;
  sample.dataflow = dataflow_.name();
  sample.op_name = stage.name;
  sample.node_id = "worker";
  sample.total_in = stage.in_count.load(std::memory_order_relaxed);
  sample.total_out = stage.out_count.load(std::memory_order_relaxed);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start_)
          .count();
  if (elapsed > 0) {
    sample.in_per_sec = static_cast<double>(sample.total_in) / elapsed;
    sample.out_per_sec = static_cast<double>(sample.total_out) / elapsed;
  }
  sample.cache_size = stage.cache_gauge.load(std::memory_order_relaxed);
  sample.parallelism = stage.parallelism;
  sample.pool_size = options_.pool_size;
  sample.quanta = stage.quanta.load(std::memory_order_relaxed);
  if (final && stage.op != nullptr) {
    // Final samples only: the operator's plain counters, range counts
    // included, are safe to read once its worker has joined.
    const ops::OperatorStats& op_stats = stage.op->stats();
    sample.batches = op_stats.batches;
    if (op_stats.batches > 0) {
      sample.batch_fill = static_cast<double>(op_stats.batched_tuples) /
                          static_cast<double>(op_stats.batches);
    }
    monitor::SetInstanceGauges(stage.op->range_counts(), &sample);
  }
  uint64_t depth = 0;
  for (const Channel* channel : stage.inputs) {
    const uint64_t d =
        final ? channel->peak_depth.load(std::memory_order_relaxed)
              : channel->ring.SizeApprox();
    depth = std::max(depth, d);
    sample.backpressure_waits +=
        channel->backpressure_waits.load(std::memory_order_relaxed);
  }
  sample.queue_depth = static_cast<size_t>(depth);
  return sample;
}

std::vector<monitor::OperatorSample> ThreadedRuntime::SampleStages() const {
  std::vector<monitor::OperatorSample> samples;
  samples.reserve(stages_.size());
  for (const auto& stage : stages_) {
    samples.push_back(SampleStage(*stage, /*final=*/false));
  }
  return samples;
}

Result<ThreadedRunResult> ThreadedRuntime::RunTrace(const InputTrace& trace,
                                                    Timestamp end_time) {
  // Checked before Start, so a malformed trace spawns no worker. A
  // source is looked up only where it differs from the previous event's.
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& event = trace[i];
    const TraceEvent* previous = i > 0 ? &trace[i - 1] : nullptr;
    if (previous == nullptr || event.source != previous->source) {
      auto node = dataflow_.node(event.source);
      if (!node.ok() || (*node)->kind != NodeKind::kSource) {
        return NotASource(event.source, dataflow_);
      }
    }
    if (previous != nullptr && event.at < previous->at) {
      return TimeGoesBack(event.source, event.at, previous->at);
    }
  }
  SL_RETURN_IF_ERROR(Start());
  // Batch-aware replay: runs of consecutive same-source events that
  // stay below the next flush boundary coalesce into one ring message.
  // Crossing a boundary would reorder data past its punctuation, so the
  // run stops there.
  size_t i = 0;
  while (i < trace.size()) {
    const TraceEvent& first = trace[i];
    const std::vector<Channel*>& channels = source_channels_.at(first.source);
    ReachTime(first.at);
    // After ReachTime every scheduled boundary is strictly ahead of
    // first.at, so events below the heap top batch safely.
    const Timestamp limit = boundaries_.empty()
                                ? std::numeric_limits<Timestamp>::max()
                                : boundaries_.top().at;
    size_t j = i + 1;
    while (j < trace.size() && j - i < options_.batch_max &&
           trace[j].source == first.source && trace[j].at < limit) {
      ++j;
    }
    fed_.fetch_add(j - i, std::memory_order_relaxed);
    const Message m = MakeRun(&first, j - i);
    for (Channel* channel : channels) {
      Message copy = m;
      PushBlocking(channel, std::move(copy));
    }
    i = j;
  }
  return Finish(end_time);
}

}  // namespace sl::exec
