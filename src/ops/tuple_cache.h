// StreamLoader: cache and index machinery shared by the blocking
// operators (aggregation, join, trigger).
//
// TupleCache is the bounded FIFO every blocking operator fills between
// checks. The index classes layered on top (JoinHashIndex, PaneIndex)
// are *acceleration structures*: they never own liveness — a cached
// tuple is alive iff TupleCache::Live() says so — and every fast path
// built on them is required to reproduce, bit for bit, what a scan of
// the raw cache would have produced (tests/ops_test.cpp holds the
// oracles).

#ifndef STREAMLOADER_OPS_TUPLE_CACHE_H_
#define STREAMLOADER_OPS_TUPLE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <unordered_map>
#include <vector>

#include "stt/tuple.h"
#include "stt/watermark.h"
#include "util/clock.h"

namespace sl::ops {

/// \brief Bounded FIFO tuple cache shared by the blocking operators.
///
/// Caches hold shared refs — caching a tuple retains the allocation the
/// producer minted instead of deep-copying it. Every cached tuple
/// carries an arrival sequence number so sliding operators can
/// distinguish tuples that arrived since the previous check, and so
/// index structures can test liveness without being notified of every
/// eviction.
class TupleCache {
 public:
  explicit TupleCache(size_t max_tuples) : max_tuples_(max_tuples) {}

  struct Entry {
    stt::TupleRef tuple;
    uint64_t seq;
  };

  /// Adds a tuple; returns the number of evicted (oldest) tuples.
  size_t Add(stt::TupleRef tuple) {
    Timestamp ts = tuple->timestamp();
    entries_.push_back({std::move(tuple), next_seq_++});
    if (max_ts_ == stt::kNoWatermark || ts > max_ts_) max_ts_ = ts;
    size_t evicted = 0;
    while (entries_.size() > max_tuples_) {
      entries_.pop_front();
      ++evicted;
    }
    capacity_evictions_ += evicted;
    return evicted;
  }

  /// Drops tuples whose event time is strictly before `cutoff`
  /// (sliding-window expiry). Event times are assumed roughly ordered;
  /// out-of-order stragglers are still swept because the scan covers the
  /// whole deque.
  void EvictOlderThan(Timestamp cutoff) {
    if (cutoff > time_cutoff_) time_cutoff_ = cutoff;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->tuple->timestamp() < cutoff) {
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// \brief True iff the entry that was added with (`seq`, `ts`) is
  /// still cached. Capacity eviction pops from the front (so the front
  /// seq is the oldest survivor) and time eviction only ever removes
  /// timestamps below the high-water cutoff; both bounds are monotonic,
  /// which is what lets indexes keep stale slots around and filter them
  /// lazily here instead of being told about each eviction.
  bool Live(uint64_t seq, Timestamp ts) const {
    if (entries_.empty()) return false;
    return seq >= entries_.front().seq && ts >= time_cutoff_;
  }

  const std::deque<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

  void Clear() {
    entries_.clear();
    max_ts_ = stt::kNoWatermark;
  }

  /// Sequence number the next arrival will get.
  uint64_t next_seq() const { return next_seq_; }

  /// Total tuples ever dropped to the capacity bound (monotonic; callers
  /// snapshot it to detect "no capacity eviction since I last looked").
  uint64_t capacity_evictions() const { return capacity_evictions_; }

  /// Upper bound on the event time of any cached tuple since the last
  /// Clear (kNoWatermark when nothing was added). An upper bound is
  /// enough for the incremental-aggregation validity guard: if it is
  /// below the window end, every cached tuple is inside the window.
  Timestamp max_ts() const { return max_ts_; }

 private:
  size_t max_tuples_;
  std::deque<Entry> entries_;
  uint64_t next_seq_ = 0;
  uint64_t capacity_evictions_ = 0;
  Timestamp time_cutoff_ = std::numeric_limits<Timestamp>::min();
  Timestamp max_ts_ = stt::kNoWatermark;
};

/// The (timestamp, sensor, content) order event-time views are sorted
/// by, so results cannot depend on delivery order.
bool EventOrderLess(const stt::Tuple& a, const stt::Tuple& b);

/// Entries whose event time falls in [begin, end). When `sorted`, the
/// view is ordered by EventOrderLess instead of arrival order (group
/// iteration, float accumulation, pair enumeration all become
/// order-stable).
std::vector<const TupleCache::Entry*> WindowView(const TupleCache& cache,
                                                 Timestamp begin,
                                                 Timestamp end, bool sorted);

/// Earliest cached event time; stt::kNoWatermark when empty.
Timestamp OldestTs(const TupleCache& cache);

/// \brief Order-insensitive identity of a window view: FNV-1a over the
/// sorted arrival sequence numbers. Sequence numbers are unique per
/// cache, so (up to hash collision) equal signatures ⇔ equal tuple
/// sets — the sliding-aggregation dedup guard. A rerun under a
/// different delivery order assigns different seqs, but *set equality
/// between consecutive windows* is delivery-order independent, so the
/// skip/emit decision is too.
uint64_t SeqSignature(const std::vector<const TupleCache::Entry*>& view);
uint64_t SeqSignatureOf(std::vector<uint64_t> seqs);

/// \brief Event-time firing state shared by the blocking operators.
///
/// Windows end on the aligned grid (multiples of the blocking interval
/// `t`); an end fires once the lateness-adjusted input frontier passes
/// it, oldest first. The tumbling regime (window == 0) is the special
/// case of a sliding window exactly one interval wide, so one mechanism
/// serves both.
class EventWindow {
 public:
  EventWindow(Duration interval, Duration window)
      : interval_(interval), window_(window > 0 ? window : interval) {}

  /// Window width: the spec's sliding window, or one interval (tumbling).
  Duration effective_window() const { return window_; }

  bool initialized() const { return initialized_; }

  /// The latest fired window end — this operator's output promise.
  Timestamp fired_end() const { return fired_end_; }

  /// True when every window containing `ts` has already fired — the
  /// tuple can no longer contribute to any future window.
  bool IsLate(Timestamp ts) const {
    if (!initialized_) return false;
    return stt::AlignDown(ts + window_, interval_) <= fired_end_;
  }

  /// \brief Window ends newly covered by `horizon` (the input frontier
  /// minus the allowed lateness), oldest first. The first call anchors
  /// the grid at AlignDown(horizon), lowered to cover `oldest_cached`
  /// when tuples older than the horizon are waiting — ends before any
  /// data are empty and emit nothing, so the anchor choice is invisible
  /// in the output.
  std::vector<Timestamp> Advance(Timestamp horizon, Timestamp oldest_cached) {
    std::vector<Timestamp> ends;
    if (horizon == stt::kNoWatermark) return ends;
    if (!initialized_) {
      Timestamp anchor = stt::AlignDown(horizon, interval_);
      if (oldest_cached != stt::kNoWatermark) {
        anchor = std::min(anchor, stt::AlignDown(oldest_cached, interval_));
      }
      fired_end_ = anchor;
      initialized_ = true;
    }
    for (Timestamp e = fired_end_ + interval_; e <= horizon; e += interval_) {
      ends.push_back(e);
    }
    return ends;
  }

  /// Records that the window ending at `end` fired.
  void MarkFired(Timestamp end) { fired_end_ = end; }

  /// Expiry cutoff after firing: the earliest unfired window is
  /// [fired_end + interval - window, ...), so anything older can never
  /// be observed again.
  Timestamp EvictionCutoff() const { return fired_end_ + interval_ - window_; }

 private:
  Duration interval_;
  Duration window_;
  bool initialized_ = false;
  Timestamp fired_end_ = 0;
};

// ---------------------------------------------------------------------
// Join hash index.

/// \brief The equality semantics of the `==` operator, restated over a
/// key column so the hash index accepts exactly the pairs the predicate
/// would.
///
/// Quirks faithfully reproduced: int and double compare numerically
/// across types; -0.0 equals +0.0; and a NaN on either side makes the
/// three-way comparison return "neither less nor greater", i.e. *equal
/// to every numeric*. Null never equals anything (the conjunct
/// evaluates to null, which is non-true).
bool JoinKeyEquals(const stt::Value& a, const stt::Value& b);

/// \brief Hash + oddity flags of one tuple's key columns.
///
/// `hash` canonicalizes numerics to double (-0.0 → +0.0) so every pair
/// JoinKeyEquals accepts lands in one bucket — except NaN, which equals
/// everything and therefore cannot be bucketed: tuples whose key
/// contains a NaN are reported via `has_nan` and kept in a side list
/// probed on every lookup.
struct JoinKeyInfo {
  uint64_t hash = 0;
  bool has_null = false;  ///< some key column is null: matches nothing
  bool has_nan = false;   ///< some key column is NaN: matches everything
};
JoinKeyInfo MakeJoinKeyInfo(const stt::Tuple& t,
                            const std::vector<size_t>& cols);

/// \brief Hash index over one side of a join cache, keyed on that side's
/// equi-conjunct columns.
///
/// Slots keep (seq, tuple) and are appended in insertion order, so each
/// bucket enumerates candidates in exactly the order a scan of the
/// underlying cache would have visited them — the property that keeps
/// hash-join emission order bit-identical to the nested loop. Stale
/// slots (evicted from the cache) are filtered lazily by the caller via
/// TupleCache::Live() and swept here by Compact().
class JoinHashIndex {
 public:
  explicit JoinHashIndex(std::vector<size_t> cols) : cols_(std::move(cols)) {}

  struct Slot {
    uint64_t seq;
    stt::TupleRef tuple;
  };

  const std::vector<size_t>& cols() const { return cols_; }

  /// Indexes one cache entry. Null-keyed tuples are dropped (they can
  /// never match); NaN-keyed tuples go to the side list.
  void Insert(const TupleCache::Entry& entry);

  /// \brief Candidate slots for a probe key, in ascending seq
  /// (= cache arrival) order: the probe's bucket merged with the NaN
  /// side list. Pre-condition: !probe.has_null && !probe.has_nan (a
  /// null probe matches nothing; a NaN probe matches the whole cache,
  /// so the caller scans the cache directly).
  void Candidates(const JoinKeyInfo& probe,
                  std::vector<const Slot*>* out) const;

  /// Drops slots no longer live in `cache`. Called opportunistically;
  /// correctness never depends on it.
  void Compact(const TupleCache& cache);

  /// Slots currently stored (live + stale), for compaction scheduling.
  size_t slot_count() const { return slot_count_; }

  void Clear() {
    buckets_.clear();
    nan_slots_.clear();
    slot_count_ = 0;
  }

 private:
  std::vector<size_t> cols_;
  std::unordered_map<uint64_t, std::vector<Slot>> buckets_;
  std::vector<Slot> nan_slots_;
  size_t slot_count_ = 0;
};

// ---------------------------------------------------------------------
// Pane index (event-time windows).

/// \brief Per-pane sorted views for the event-time regime.
///
/// Event time is partitioned into panes of one blocking interval
/// (pane = AlignDown(ts, interval)); every aligned window [end - w, end)
/// is a run of consecutive panes, possibly cut at both edges when w is
/// not an interval multiple. Each pane keeps its entries sorted in
/// EventOrderLess order, re-sorting only when the pane took an insert
/// since the last view ("dirty"). Because panes partition by timestamp
/// and the sort key leads with the timestamp, concatenating ascending
/// panes *is* the globally sorted window view — a sliding flush
/// re-sorts only the panes that changed instead of the whole window.
class PaneIndex {
 public:
  explicit PaneIndex(Duration pane_width) : pane_width_(pane_width) {}

  void Insert(const TupleCache::Entry& entry);

  /// The sorted, live window view over [begin, end), equal to
  /// WindowView(cache, begin, end, /*sorted=*/true) up to ties between
  /// fully identical tuples. Pointers are into the index's own storage
  /// and are invalidated by the next Insert/DropBelow.
  std::vector<const TupleCache::Entry*> View(const TupleCache& cache,
                                             Timestamp begin,
                                             Timestamp end);

  /// Forgets panes that lie entirely below `cutoff` (mirrors
  /// TupleCache::EvictOlderThan; straggler slots inside the boundary
  /// pane are filtered out by the liveness check in View).
  void DropBelow(Timestamp cutoff);

  void Clear() { panes_.clear(); }

 private:
  struct Pane {
    std::vector<TupleCache::Entry> entries;
    bool dirty = false;
  };

  Duration pane_width_;
  std::map<Timestamp, Pane> panes_;  // keyed by pane start, ascending
};

}  // namespace sl::ops

#endif  // STREAMLOADER_OPS_TUPLE_CACHE_H_
