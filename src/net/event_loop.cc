#include "net/event_loop.h"

#include <limits>
#include <utility>

namespace sl::net {

EventLoop::TimerId EventLoop::Schedule(Timestamp at, Callback fn) {
  if (at < clock_.Now()) at = clock_.Now();
  TimerId id = next_id_++;
  entries_.emplace(id, Entry{std::move(fn), 0});
  queue_.push({at, next_seq_++, id});
  return id;
}

EventLoop::TimerId EventLoop::ScheduleAfter(Duration delay, Callback fn) {
  if (delay < 0) delay = 0;
  return Schedule(clock_.Now() + delay, std::move(fn));
}

EventLoop::TimerId EventLoop::SchedulePeriodic(Duration period, Callback fn,
                                               Timestamp first_at) {
  if (period <= 0) period = 1;
  if (first_at < 0) first_at = clock_.Now() + period;
  if (first_at < clock_.Now()) first_at = clock_.Now();
  TimerId id = next_id_++;
  entries_.emplace(id, Entry{std::move(fn), period});
  queue_.push({first_at, next_seq_++, id});
  return id;
}

bool EventLoop::Cancel(TimerId id) {
  // Lazy deletion: the queue item is skipped when popped.
  return entries_.erase(id) > 0;
}

bool EventLoop::RunOne(Timestamp limit) {
  while (!queue_.empty()) {
    QueueItem item = queue_.top();
    auto it = entries_.find(item.id);
    if (it == entries_.end()) {
      queue_.pop();  // cancelled
      continue;
    }
    if (item.at > limit) return false;
    queue_.pop();
    clock_.AdvanceTo(item.at);
    if (it->second.period > 0) {
      // Re-arm before running so the callback can Cancel() itself. The
      // callback runs moved out of its entry — a self-Cancel erases the
      // entry mid-call, which must not destroy the running closure — and
      // goes back only if the timer is still registered afterwards.
      queue_.push({item.at + it->second.period, next_seq_++, item.id});
      Callback fn = std::move(it->second.fn);
      ++events_executed_;
      fn();
      auto again = entries_.find(item.id);
      if (again != entries_.end()) again->second.fn = std::move(fn);
    } else {
      Callback fn = std::move(it->second.fn);
      entries_.erase(it);
      ++events_executed_;
      fn();
    }
    return true;
  }
  return false;
}

size_t EventLoop::RunUntil(Timestamp until) {
  size_t n = 0;
  while (RunOne(until)) ++n;
  clock_.AdvanceTo(until);
  return n;
}

size_t EventLoop::RunFor(Duration d) { return RunUntil(clock_.Now() + d); }

size_t EventLoop::RunUntilIdle(size_t max_events) {
  size_t n = 0;
  while (n < max_events && RunOne(std::numeric_limits<Timestamp>::max())) ++n;
  return n;
}

}  // namespace sl::net
