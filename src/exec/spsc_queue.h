// StreamLoader: single-producer/single-consumer ring buffers — the
// channels of the wall-clock threaded runtime (exec/threaded_runtime.h).
//
// Every dataflow edge becomes one SpscRing: the upstream stage's worker
// thread is the only producer, the downstream stage's worker thread the
// only consumer. The bounded capacity doubles as the edge's credit pool
// for backpressure: a producer that finds the ring full is out of
// credits and must wait until the consumer pops (each pop returns one
// credit), so pressure propagates transitively from slow sinks back to
// the sources. WaitGate supplies the sleep/wake half: waits are bounded
// (the condition is re-polled every millisecond), so a lost wakeup can
// cost latency but never liveness.

#ifndef STREAMLOADER_EXEC_SPSC_QUEUE_H_
#define STREAMLOADER_EXEC_SPSC_QUEUE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace sl::exec {

/// \brief Bounded lock-free SPSC ring over a power-of-two slot array.
///
/// The classic two-index scheme: the producer owns head_ (next write),
/// the consumer owns tail_ (next read). Each side publishes its index
/// with a release store and reads the other's with an acquire load, and
/// additionally caches the last value it saw of the opposite index so
/// the common non-full/non-empty path touches only its own cache line.
/// Exactly one thread may call TryPush and one thread TryPop; any
/// thread may call SizeApprox/Empty (the result is a snapshot).
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cap_ = cap;
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer only. Moves from `item` and returns true when a slot (a
  /// credit) is available; leaves `item` untouched and returns false
  /// when the ring is full.
  bool TryPush(T& item) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_cache_ >= cap_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head - tail_cache_ >= cap_) return false;
    }
    slots_[head & mask_] = std::move(item);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer only. Moves the oldest element into `*out`; false when
  /// the ring is empty.
  bool TryPop(T* out) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail == head_cache_) return false;
    }
    *out = std::move(slots_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Snapshot of the queued element count (any thread).
  size_t SizeApprox() const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    return head >= tail ? static_cast<size_t>(head - tail) : 0;
  }

  bool Empty() const { return SizeApprox() == 0; }

  size_t capacity() const { return cap_; }

 private:
  size_t cap_ = 0;
  size_t mask_ = 0;
  std::vector<T> slots_;
  alignas(64) std::atomic<uint64_t> head_{0};  // written by the producer
  alignas(64) std::atomic<uint64_t> tail_{0};  // written by the consumer
  alignas(64) uint64_t tail_cache_ = 0;  // producer's view of tail_
  alignas(64) uint64_t head_cache_ = 0;  // consumer's view of head_
};

/// \brief Bounded sleep/wake rendezvous for ring producers (waiting for
/// credits) and stage workers (waiting for input).
///
/// Notify is cheap when nobody waits: it reads one atomic flag and
/// returns. The waiter publishes the flag, re-checks its condition and
/// then parks on the condition variable with a 1 ms bound, so the
/// unavoidable flag/publish race window (a notifier can read the flag
/// just before the waiter sets it) degrades to at most one poll period
/// of added latency — correctness never depends on a wakeup arriving.
class WaitGate {
 public:
  /// Wakes the current waiter, if any.
  void Notify() SL_EXCLUDES(mu_) {
    if (!waiting_.load(std::memory_order_seq_cst)) return;
    MutexLock lock(&mu_);
    cv_.NotifyAll();
  }

  /// Blocks until `ready()` returns true (-> true) or `aborted()`
  /// returns true (-> false). `ready` may have side effects (e.g. a
  /// TryPush attempt); it is re-invoked on every wakeup or poll tick.
  template <typename ReadyFn, typename AbortFn>
  bool Await(ReadyFn ready, AbortFn aborted) SL_EXCLUDES(mu_) {
    if (ready()) return true;
    MutexLock lock(&mu_);
    waiting_.store(true, std::memory_order_seq_cst);
    for (;;) {
      if (ready()) break;
      if (aborted()) {
        waiting_.store(false, std::memory_order_seq_cst);
        return false;
      }
      cv_.WaitFor(&mu_, std::chrono::milliseconds(1));
    }
    waiting_.store(false, std::memory_order_seq_cst);
    return true;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  std::atomic<bool> waiting_{false};
};

}  // namespace sl::exec

#endif  // STREAMLOADER_EXEC_SPSC_QUEUE_H_
