// StreamLoader: the wall-clock multithreaded runtime — the second
// execution mode next to the deterministic discrete-event simulator.
//
// The simulator (exec/executor.h) runs everything on one virtual-clock
// event loop and is the semantic reference. The ThreadedRuntime executes
// the *same* validated dataflow with the *same* operator objects on real
// worker threads: one worker per operator/sink stage, one bounded SPSC
// ring per dataflow edge (exec/spsc_queue.h), credit-based backpressure
// from sinks back to the sources (a full ring = zero credits blocks the
// producer), and watermarks piggybacked on every queued tuple exactly as
// the simulator piggybacks them on network transfers.
//
// Equivalence contract. Thread timing is nondeterministic, so the
// runtime aligns the blocking operators' flush schedule with
// punctuation messages instead of raw timers: punct(B) enters every
// source channel for each flush boundary
// B = deploy_time + interval + flush_stagger_ms * depth + k * interval,
// *before* any tuple whose ingestion time equals B (mirroring the event
// loop's tie-break, where a periodic flush re-armed earlier always runs
// before a same-instant delivery). A stage fires Flush(B) when the
// punctuation minimum over its input ports passes B, then forwards the
// punctuation downstream after the flush emissions. Window membership
// in the blocking operators is decided by tuple timestamps against the
// flush-tick time (half-open, ts < B), so as long as no simulated
// network delay carries a tuple across a flush boundary (delays are
// a few ms; boundaries are staggered 50 ms apart), the threaded run
// produces the identical multiset of sink rows — enforced by the
// SimVsThreadedOracleTest battery (tests/threaded_test.cpp).
//
// One driver plays the sources: the caller of Start/Feed/AdvanceTime/
// Finish, or RunTrace, which replays a simulator-captured trace
// (ExecutorOptions::source_tap) in global virtual order on the same
// AdvanceTime. The driver mints the punctuation inline as its virtual
// clock passes each boundary, so a driver with no data to feed calls
// AdvanceTime to make the due flushes fire.
//
// Execution modes: dedicated worker threads (one per stage, the
// default), a bounded per-node worker pool (ThreadedOptions::pool_size)
// multiplexing every stage over N pooled workers with cooperative
// quantum scheduling, per-instance shard threads (shard_threads)
// flushing a partitioned operator's shards concurrently, and
// batch-aware channel transfer (batch_max) coalescing consecutive
// emissions into one ring message. A kBatch message that reaches a
// batch-capable stage (ops::Operator::batchable) goes through
// ProcessBatch as one columnar run; other stages process its tuples
// one by one.

#ifndef STREAMLOADER_EXEC_THREADED_RUNTIME_H_
#define STREAMLOADER_EXEC_THREADED_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "dataflow/graph.h"
#include "exec/spsc_queue.h"
#include "monitor/monitor.h"
#include "ops/debugger.h"
#include "ops/operator.h"
#include "pubsub/broker.h"
#include "sinks/factory.h"
#include "stt/tuple.h"
#include "stt/watermark.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sl::exec {

/// \brief Configuration of a ThreadedRuntime.
struct ThreadedOptions {
  /// Per-edge SPSC ring capacity (rounded up to a power of two). This
  /// is the edge's credit pool: a full ring blocks the producer until
  /// the consumer pops, which is how sink pressure reaches the sources.
  size_t queue_capacity = 1024;
  /// Blocking-operation cache bound (as ExecutorOptions).
  size_t max_cache_tuples = 1 << 20;
  /// Event-time configuration handed to every operator.
  ops::WatermarkOptions watermark;
  /// Flush-schedule stagger, replicated from the simulator: a blocking
  /// operator at topological depth d first flushes at
  /// deploy_time + interval + flush_stagger_ms * d.
  Duration flush_stagger_ms = 50;
  /// Virtual time of the reference deployment (anchors the flush
  /// boundaries; use the simulated run's deploy timestamp).
  Timestamp deploy_time = 0;
  /// Count sink deliveries without writing them (benchmarks that
  /// measure transport, not sink retention: every sink kind either
  /// retains its rows or encodes them, and either cost would swamp the
  /// transport figure).
  bool count_only_sinks = false;
  /// Per-node worker-pool size. 0 (default) keeps one dedicated thread
  /// per stage; N > 0 multiplexes every stage of the node over N pooled
  /// workers: a stage with runnable input is queued, a worker claims it,
  /// runs one bounded quantum and either requeues it (more input) or
  /// parks it idle. Blocked producers help-run their consumer instead
  /// of parking, so a pool of any size stays deadlock-free.
  size_t pool_size = 0;
  /// Per-instance shard threads. > 1 installs a TaskPool-backed
  /// ShardExecutor of this many threads on every partitioned operator,
  /// so an N-way operator's shards flush concurrently instead of
  /// sequentially on the stage thread. 0/1 = shared stage thread.
  size_t shard_threads = 0;
  /// Batch-aware channel transfer: up to this many consecutive
  /// emissions (or consecutive same-source trace events between flush
  /// boundaries) coalesce into one ring message. A run of one travels
  /// as a kData message, so 1 (default) never forms a kBatch. A kBatch
  /// message at a batch-capable stage (ops::Operator::batchable) goes
  /// through ProcessBatch.
  size_t batch_max = 1;
  /// StreamLoader::RunThreaded only: run even though the session's
  /// network has a non-zero fault plan installed. The threaded runtime
  /// does not simulate network faults, so results then diverge from a
  /// faulty simulation; without this flag RunThreaded fails fast.
  bool allow_fault_plan = false;
};

/// \brief One tuple entering a source, with its virtual ingestion time
/// and the source watermark at that instant (what
/// ExecutorOptions::source_tap records from a simulated run).
struct TraceEvent {
  Timestamp at = 0;
  std::string source;
  stt::TupleRef tuple;
  Timestamp watermark = stt::kNoWatermark;
};
using InputTrace = std::vector<TraceEvent>;

/// \brief End-to-end latency percentiles over every tuple that reached
/// a sink (wall-clock nanoseconds from Feed to sink delivery).
struct LatencySummary {
  uint64_t count = 0;
  int64_t p50_ns = 0;
  int64_t p95_ns = 0;
  int64_t p99_ns = 0;
  int64_t max_ns = 0;
};

/// \brief Everything a threaded run produces.
struct ThreadedRunResult {
  /// Sorted Tuple::ToString rows per collect sink.
  std::map<std::string, std::vector<std::string>> sink_rows;
  /// Sorted rows diverted by LatePolicy::kSideOutput.
  std::vector<std::string> late_rows;
  uint64_t tuples_fed = 0;
  uint64_t tuples_delivered = 0;  ///< tuples arriving at sinks
  uint64_t process_errors = 0;
  uint64_t backpressure_waits = 0;  ///< producer stalls on full rings
  std::map<std::string, ops::OperatorStats> op_stats;
  std::vector<ops::ActivationRecord> activations;  ///< trigger requests
  double wall_seconds = 0;
  double tuples_per_sec = 0;  ///< delivered / wall_seconds
  LatencySummary latency;
  /// One final monitor sample per stage; queue_depth carries the
  /// deepest input ring observed, backpressure_waits the stalls charged
  /// to this stage's full inputs.
  std::vector<monitor::OperatorSample> stage_samples;
};

/// \brief Executes one validated dataflow on worker threads.
///
/// Lifecycle: construct → Start() → {Feed(), AdvanceTime()}* →
/// Finish(end_time), or Abort() at any point for a hard stop
/// (shutdown-while-draining). The driver thread (the caller of
/// Feed/AdvanceTime/Finish) plays the sources; it blocks when a source
/// edge is out of credits, which is the intended backpressure behavior.
class ThreadedRuntime {
 public:
  ThreadedRuntime(dataflow::Dataflow dataflow, const pubsub::Broker* broker,
                  sinks::SinkContext sink_context = {},
                  ThreadedOptions options = {});
  ~ThreadedRuntime();

  ThreadedRuntime(const ThreadedRuntime&) = delete;
  ThreadedRuntime& operator=(const ThreadedRuntime&) = delete;

  /// Validates the dataflow, builds operators/sinks/channels and spawns
  /// one worker thread per stage.
  Status Start();

  /// Feeds one tuple into `source` at virtual time `at`. Times must be
  /// non-decreasing: an `at` below the time the driver has already
  /// reached (the previous Feed's `at` or AdvanceTime's `now`) is
  /// InvalidArgument, because the punctuation for the boundaries in
  /// between has gone out. Emits any flush punctuation due before `at`
  /// first, so a tuple stamped exactly on a boundary lands after the
  /// flush — the simulator's tie-break. Blocks while the source's
  /// out-edges are saturated (backpressure).
  Status Feed(const std::string& source, const stt::TupleRef& tuple,
              Timestamp at, Timestamp watermark = stt::kNoWatermark);

  /// Advances virtual time to `now` without data: emits the punctuation
  /// due by then, so the flushes it fires run without a tuple behind
  /// them.
  void AdvanceTime(Timestamp now);

  /// Emits punctuation up to `end_time`, closes every source with an
  /// end-of-stream marker, drains and joins all workers, and returns
  /// the collected rows, stats, samples and latency percentiles.
  Result<ThreadedRunResult> Finish(Timestamp end_time);

  /// Hard stop: workers abandon queued work and exit promptly; queued
  /// tuples are dropped. Safe to call concurrently with a blocked
  /// Feed (it unblocks the credit wait).
  void Abort();

  /// Live per-stage gauges (thread-safe; queue_depth is the current
  /// deepest input ring). For monitor integration and tests.
  std::vector<monitor::OperatorSample> SampleStages() const;

  /// Convenience: Start, replay `trace` in order, Finish(end_time).
  /// The whole trace is checked first (every event's source exists,
  /// times never decrease), so a malformed trace spawns no worker.
  Result<ThreadedRunResult> RunTrace(const InputTrace& trace,
                                     Timestamp end_time);

 private:
  struct Channel;
  struct Stage;
  struct Message;
  class Recorder;

  Status Build();
  void StageLoop(Stage* stage);
  /// One bounded drain round over the stage's runnable inputs; returns
  /// whether any message was consumed. The unit of work a pooled worker
  /// runs per claim; the dedicated StageLoop calls it in a loop.
  bool RunStageQuantum(Stage* stage);
  /// True when some open, non-barrier-blocked input ring is non-empty.
  /// Owner-thread only (reads worker-owned punctuation state).
  bool HasRunnableInput(const Stage* stage) const;
  void HandleData(Stage* stage, size_t input_idx, Message& message);
  void HandleBatch(Stage* stage, size_t input_idx, Message& message);
  void HandlePunct(Stage* stage, size_t input_idx, Timestamp time);
  void AdvanceFrontier(Stage* stage);
  /// Seals the stage's pending emission buffer into its output rings
  /// (one kBatch — or kData for a single tuple — per output).
  void FlushEmitBuffers(Stage* stage);
  void PushBlocking(Channel* channel, Message&& message);
  /// The ring message for `n` >= 1 consecutive same-source trace events
  /// starting at `first`: kData for one event, else a kBatch sealed with
  /// the max of the events' watermarks.
  static Message MakeRun(const TraceEvent* first, size_t n);
  void EmitPunct(Timestamp time);
  monitor::OperatorSample SampleStage(const Stage& stage, bool final) const;

  // -- pooled scheduling ---------------------------------------------------
  void ScheduleStage(Stage* stage);
  Stage* PopReady();
  /// Claims `stage` if idle/queued and runs one quantum inline (a
  /// blocked producer helping its consumer). False when another thread
  /// holds it — which means it is making progress elsewhere.
  bool TryHelp(Stage* stage);
  /// Returns a claimed stage to the scheduler: requeues it when
  /// runnable, idles it otherwise (re-checking for a racing push).
  void ReleaseStage(Stage* stage);
  void PoolLoop();
  void JoinWorkers();

  Result<ThreadedRunResult> FinishCollect();

  dataflow::Dataflow dataflow_;
  const pubsub::Broker* broker_;
  sinks::SinkContext sink_context_;
  ThreadedOptions options_;

  std::map<std::string, std::unique_ptr<ops::Operator>> operators_;
  std::map<std::string, std::unique_ptr<sinks::Sink>> sinks_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::unique_ptr<Stage>> stages_;
  std::map<std::string, std::vector<Channel*>> source_channels_;
  std::vector<Channel*> all_source_channels_;
  std::unique_ptr<Recorder> recorder_;

  /// The union flush schedule: min-heap of upcoming boundaries, one
  /// recurring entry per blocking stage.
  struct Boundary {
    Timestamp at;
    Duration interval;
    bool operator>(const Boundary& other) const { return at > other.at; }
  };
  std::priority_queue<Boundary, std::vector<Boundary>, std::greater<Boundary>>
      boundaries_;
  Timestamp last_punct_ = stt::kNoWatermark;
  /// The latest virtual time the driver has reached (Feed's `at`,
  /// AdvanceTime's `now`); Feed refuses to go back behind it.
  Timestamp reached_ = stt::kNoWatermark;

  // started_/finished_ are atomics because Abort may race a blocked
  // Feed from another thread (the shutdown-while-draining case).
  std::atomic<bool> started_{false};
  std::atomic<bool> finished_{false};
  std::atomic<bool> abort_{false};
  std::atomic<uint64_t> fed_{0};
  Mutex late_mu_;
  std::vector<std::string> late_rows_ SL_GUARDED_BY(late_mu_);
  Mutex join_mu_;  ///< makes worker joins idempotent under races
  std::chrono::steady_clock::time_point wall_start_;

  // -- pooled scheduling (pool_size > 0) -----------------------------------
  // Ready hints: a stage appears here while its run_state is kQueued.
  // PopReady validates each hint with a CAS, so stale entries (a helper
  // stole the stage) are dropped harmlessly.
  Mutex ready_mu_;
  std::deque<Stage*> ready_ SL_GUARDED_BY(ready_mu_);
  WaitGate pool_gate_;
  std::vector<std::thread> pool_threads_;
  std::atomic<size_t> stages_done_{0};

  // -- shard threads (shard_threads > 1) -----------------------------------
  std::unique_ptr<TaskPool> shard_pool_;
};

}  // namespace sl::exec

#endif  // STREAMLOADER_EXEC_THREADED_RUNTIME_H_
