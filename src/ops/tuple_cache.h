// StreamLoader: the window state shared by the blocking operators
// (aggregation, join, trigger).
//
// The paper defines all three by one construct, "a cache of tuples
// processed every t time intervals" (Table 1); PaneStore is that cache,
// and the only window state the three operators keep. It holds every
// cached tuple once, in a slot that also carries what a fire needs —
// event time, arrival seq and an interned key id — in panes of one
// blocking interval:
//  - under event time a pane is [p, p + t) of event time, so every
//    aligned window is a run of consecutive panes, and a fire sorts
//    only the panes that took an out-of-order insert since they were
//    last read;
//  - under processing time a pane is the arrivals between two flush
//    ticks, so reading the panes in order is reading in arrival order.
// The capacity bound is FIFO by arrival across panes. Group and join
// keys are interned to dense ids at Process (KeyInterner), so a fire
// groups and probes on integers and never hashes or sorts a string.
// Every output must match tests/reference bit for bit (the oracles in
// tests/ops_test.cpp).

#ifndef STREAMLOADER_OPS_TUPLE_CACHE_H_
#define STREAMLOADER_OPS_TUPLE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "stt/tuple.h"
#include "stt/watermark.h"
#include "util/clock.h"

namespace sl::ops {

/// The (timestamp, sensor, content) order event-time views are sorted
/// by, so results cannot depend on delivery order. A full tie compares
/// the tuples' ToString forms, rendered into per-thread buffers, so it
/// allocates nothing once the buffers are warm.
bool EventOrderLess(const stt::Tuple& a, const stt::Tuple& b);

/// \brief Order-insensitive identity of a window's members: FNV-1a over
/// their sorted arrival sequence numbers. Sequence numbers are unique
/// per cache, so (up to hash collision) equal signatures ⇔ equal tuple
/// sets — the sliding-aggregation dedup guard. A rerun under a
/// different delivery order assigns different seqs, but *set equality
/// between consecutive windows* is delivery-order independent, so the
/// skip/emit decision is too.
uint64_t SeqSignature(std::vector<uint64_t> seqs);

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
  /// minus the allowed lateness) whose window overlaps one of the
  /// `occupied` panes (ascending pane starts), oldest first; the fired
  /// end then moves straight to the last grid end at or below the
  /// horizon. A window that overlaps no occupied pane holds no cached
  /// tuple and would emit nothing, so skipping it changes no output —
  /// and the work of a watermark jump is bounded by the cached data,
  /// not by the length of the jump.
  std::vector<Timestamp> Advance(Timestamp horizon,
                                 const std::vector<Timestamp>& occupied);

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
// Join keys.

/// \brief The equality semantics of the `==` operator, restated over a
/// key column so key buckets accept exactly the pairs the predicate
/// would.
///
/// Quirks faithfully reproduced: int and double compare numerically
/// across types; -0.0 equals +0.0; and a NaN on either side makes the
/// three-way comparison return "neither less nor greater", i.e. *equal
/// to every numeric*. Null never equals anything (the conjunct
/// evaluates to null, which is non-true).
bool JoinKeyEquals(const stt::Value& a, const stt::Value& b);

/// \brief Hash + oddity flags of one tuple's key columns (a join with
/// `parallelism` N > 1 counts its arrivals into key ranges by these).
///
/// `hash` canonicalizes numerics to double (-0.0 → +0.0) so every pair
/// JoinKeyEquals accepts falls in one range — except NaN, which equals
/// everything and therefore counts in every range (`has_nan`).
struct JoinKeyInfo {
  uint64_t hash = 0;
  bool has_null = false;  ///< some key column is null: matches nothing
  bool has_nan = false;   ///< some key column is NaN: matches everything
};
JoinKeyInfo MakeJoinKeyInfo(const stt::Tuple& t,
                            const std::vector<size_t>& cols);

/// What JoinKeyForm found in a tuple's key columns.
enum class JoinKeyKind { kNormal, kNull, kNan };

/// \brief Writes the canonical form of a tuple's join-key columns into
/// `out`: numerics as canonical doubles (-0.0 → +0.0), strings and the
/// other types by value. Two keys JoinKeyEquals accepts always share a
/// form; the converse can fail (int64 keys above 2^53 share a double),
/// so bucket candidates must still pass JoinKeyEquals. A null column
/// makes the key kNull, otherwise a NaN column makes it kNan; `out` is
/// meaningful only for kNormal.
JoinKeyKind JoinKeyForm(const stt::Tuple& t, const std::vector<size_t>& cols,
                        std::string* out);

// ---------------------------------------------------------------------
// Key interning.

/// \brief Dense ids for key forms, with their byte order as ranks.
///
/// Ids are assigned in first-seen order and found through a flat
/// open-addressing table over the form hashes. Ranks() gives every id its
/// position in ascending byte order of the forms — the order groups are
/// emitted in — merging ids interned since the last call into the
/// ranked order instead of re-sorting it.
class KeyInterner {
 public:
  static constexpr uint32_t kNoId = std::numeric_limits<uint32_t>::max();

  /// The id of `form`; a form not seen before gets the next id.
  uint32_t Intern(std::string_view form);

  size_t size() const { return offsets_.size() - 1; }

  /// rank[id] for every interned id.
  const std::vector<uint32_t>& Ranks();

  /// Forgets the ids `used` does not mark and renumbers the rest
  /// densely, keeping their relative order. Returns old id → new id
  /// (kNoId for a forgotten one).
  std::vector<uint32_t> Compact(const std::vector<bool>& used);

 private:
  /// Re-seats every id in a table of `capacity` (a power of two) slots.
  void Rehash(size_t capacity);

  /// The form of `id`: bytes [offsets_[id], offsets_[id + 1]).
  std::string_view FormOf(uint32_t id) const {
    return std::string_view(bytes_).substr(offsets_[id],
                                           offsets_[id + 1] - offsets_[id]);
  }

  std::string bytes_;                 ///< every form, back to back
  std::vector<uint32_t> offsets_{0};  ///< size() + 1 form bounds
  std::vector<uint32_t> table_;       ///< id + 1 per slot, 0 when empty
  std::vector<uint32_t> sorted_;      ///< ranked ids, ascending form
  std::vector<uint32_t> rank_;        ///< by id
};

// ---------------------------------------------------------------------
// Pane store.

/// \brief The cache of one blocking input: every tuple once, in panes.
///
/// A pane keeps its slots in arrival order; under event time a sorted
/// read also keeps an index of them in EventOrderLess order, extended
/// (not rebuilt) as arrivals come in. A slot is live from Add until time
/// eviction (EvictOlderThan, Clear) or the capacity bound removes it. The
/// bound evicts the oldest live arrival — the oldest live slot at the
/// front of some pane — by raising a sequence floor (slots below it are
/// dead); the dead slots are swept once they outnumber the live ones.
class PaneStore {
 public:
  /// Join key id of a tuple with a null key column: matches nothing.
  static constexpr uint32_t kNullKey = KeyInterner::kNoId;
  /// Join key id of a tuple with a NaN key column: matches every key.
  static constexpr uint32_t kNanKey = KeyInterner::kNoId - 1;

  struct Slot {
    Timestamp ts;
    uint64_t seq;  ///< arrival order
    uint32_t key;  ///< interned key id, kNullKey or kNanKey
    stt::TupleRef tuple;
  };
  using View = std::vector<const Slot*>;

  /// Panes with key in [pane_lo, pane_hi), slots with ts in [ts_lo,
  /// ts_hi).
  struct Range {
    Timestamp pane_lo = std::numeric_limits<Timestamp>::min();
    Timestamp pane_hi = std::numeric_limits<Timestamp>::max();
    Timestamp ts_lo = std::numeric_limits<Timestamp>::min();
    Timestamp ts_hi = std::numeric_limits<Timestamp>::max();
  };

  explicit PaneStore(size_t max_tuples) : max_tuples_(max_tuples) {}

  /// Caches `tuple` in pane `pane` as arrival next_seq(); returns the
  /// number of older tuples the capacity bound evicted to make room.
  size_t Add(Timestamp pane, stt::TupleRef tuple, uint32_t key);

  /// Drops every tuple stamped before `cutoff` (raised to the highest
  /// cutoff seen: expiry never un-expires). Panes wholly below it go at
  /// once; only a pane it cuts is filtered.
  void EvictOlderThan(Timestamp cutoff);

  /// Drops every tuple.
  void Clear();

  /// Live tuples.
  size_t size() const { return live_; }

  /// The seq the next arrival gets: one past the last arrival's.
  uint64_t next_seq() const { return next_seq_; }

  /// The processing-time pane arrivals go to; CloseEpoch starts the next.
  Timestamp epoch() const { return epoch_; }
  void CloseEpoch() { ++epoch_; }

  /// Keys of the panes that hold slots, ascending.
  std::vector<Timestamp> PaneKeys() const;

  /// \brief The live slots in `range`, pane by pane. With `sorted`, each
  /// pane is read in EventOrderLess order; since panes partition event
  /// time and the order leads with the timestamp, the view is then the
  /// sorted window. Without it each pane is read in arrival order, and
  /// with processing-time panes (one per flush epoch) so is the view.
  void Read(const Range& range, bool sorted, View* out);

  /// \brief The live slots in `range` whose key is `key` or kNanKey, in
  /// the order the last Read of the range listed them, from per-pane key
  /// buckets. `key` must be an interned id (not kNullKey or kNanKey).
  void Probe(uint32_t key, const Range& range, View* out);

  /// Marks the key ids live slots carry (key interner compaction).
  void MarkKeys(std::vector<bool>* used) const;
  /// Rewrites key ids through `remap` (KeyInterner::Compact's result).
  void RemapKeys(const std::vector<uint32_t>& remap);

 private:
  struct Pane {
    std::vector<Slot> slots;  ///< arrival order
    /// Slot indices in EventOrderLess order; covers the first
    /// order.size() slots (sorted reads extend it).
    std::vector<uint32_t> order;
    size_t head = 0;  ///< slots before it are dead
    Timestamp min_ts = std::numeric_limits<Timestamp>::max();
    Timestamp max_ts = std::numeric_limits<Timestamp>::min();
    // Key buckets over the read order: positions grouped by key id
    // (ascending within a key), one run per distinct key, NaN-keyed
    // slots apart. Valid while `indexed`.
    bool indexed = false;
    bool by_order = false;         ///< positions index `order`, else `slots`
    std::vector<uint32_t> keys;    ///< distinct key ids, ascending
    std::vector<uint32_t> starts;  ///< run bounds, keys.size() + 1
    std::vector<uint32_t> runs;
    std::vector<uint32_t> nans;

    const Slot& at(uint32_t position) const {
      return slots[by_order ? order[position] : position];
    }
  };

  bool Live(const Slot& s) const { return s.seq >= floor_; }
  /// Evicts the oldest live arrival (the capacity bound).
  void EvictOldest();
  /// Removes the slots matching `gone` from `pane`, keeping the arrival
  /// order and the sorted index.
  template <typename Pred>
  void Erase(Pane* pane, Pred gone);
  void SweepDead();
  void Sort(Pane* pane);
  void Index(Pane* pane);
  void Forget(std::map<Timestamp, Pane>::iterator* it);

  size_t max_tuples_;
  std::map<Timestamp, Pane> panes_;
  size_t typical_pane_ = 0;  ///< slots the last expired pane held
  Pane* last_pane_ = nullptr;  ///< the pane the last Add went to
  Timestamp last_pane_key_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t floor_ = 0;  ///< slots with seq below it were evicted by capacity
  size_t live_ = 0;
  size_t dead_ = 0;     ///< evicted by capacity, not yet swept
  Timestamp expiry_cutoff_ = std::numeric_limits<Timestamp>::min();
  Timestamp epoch_ = 0;
  std::vector<uint32_t> counts_;  ///< bucket-building scratch, by key id
};

}  // namespace sl::ops

#endif  // STREAMLOADER_OPS_TUPLE_CACHE_H_
