#include "ops/tuple_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "stt/value.h"

namespace sl::ops {

using stt::Value;
using stt::ValueType;

bool EventOrderLess(const stt::Tuple& a, const stt::Tuple& b) {
  if (a.timestamp() != b.timestamp()) return a.timestamp() < b.timestamp();
  if (a.sensor_id() != b.sensor_id()) return a.sensor_id() < b.sensor_id();
  thread_local std::string form_a;
  thread_local std::string form_b;
  form_a.clear();
  form_b.clear();
  a.AppendTo(&form_a);
  b.AppendTo(&form_b);
  return form_a < form_b;
}

uint64_t SeqSignature(std::vector<uint64_t> seqs) {
  std::sort(seqs.begin(), seqs.end());
  uint64_t h = 1469598103934665603ull;
  for (uint64_t s : seqs) {
    for (int i = 0; i < 8; ++i) {
      h ^= (s >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::vector<Timestamp> EventWindow::Advance(
    Timestamp horizon, const std::vector<Timestamp>& occupied) {
  std::vector<Timestamp> ends;
  if (horizon == stt::kNoWatermark) return ends;
  const Timestamp last = stt::AlignDown(horizon, interval_);
  // A pane [p, p + t) overlaps the windows ending at p + t up to the
  // last grid end below p + t + window.
  const Duration reach = stt::AlignDown(window_ - 1, interval_);
  bool any = initialized_;
  Timestamp next = fired_end_ + interval_;  // first end not fired yet
  for (Timestamp pane : occupied) {
    Timestamp first = pane + interval_;
    if (any && first < next) first = next;
    const Timestamp stop = std::min(pane + interval_ + reach, last);
    for (Timestamp end = first; end <= stop; end += interval_) {
      ends.push_back(end);
    }
    if (first <= stop) {
      next = stop + interval_;
      any = true;
    }
  }
  if (!initialized_ || last > fired_end_) fired_end_ = last;
  initialized_ = true;
  return ends;
}

// ---------------------------------------------------------------------
// Join keys.

bool JoinKeyEquals(const Value& a, const Value& b) {
  // Mirror of expr::EvalCompareOp's kEq: cross-type numerics compare as
  // doubles, everything else through Value::Compare. Both three-way
  // comparisons answer "neither less nor greater" for NaN, which makes
  // NaN equal to every numeric — kept intentionally so the buckets
  // accept exactly what the predicate accepts. Null is the
  // one divergence from Value::Compare (where null == null): a null
  // operand makes `==` evaluate to null, which is non-true.
  if (a.is_null() || b.is_null()) return false;
  if (a.is_numeric() && b.is_numeric() && a.type() != b.type()) {
    double x = a.type() == ValueType::kInt ? static_cast<double>(a.AsInt())
                                           : a.AsDouble();
    double y = b.type() == ValueType::kInt ? static_cast<double>(b.AsInt())
                                           : b.AsDouble();
    return !(x < y) && !(x > y);
  }
  return Value::Compare(a, b) == 0;
}

namespace {

/// A numeric key column as a double, -0.0 folded into +0.0 (they
/// compare equal).
double CanonicalDouble(const Value& v) {
  double d = v.type() == ValueType::kInt ? static_cast<double>(v.AsInt())
                                         : v.AsDouble();
  return d == 0.0 ? 0.0 : d;
}

void AppendWord(uint64_t w, std::string* out) {
  char bytes[sizeof(w)];
  std::memcpy(bytes, &w, sizeof(w));
  out->append(bytes, sizeof(w));
}

void AppendDouble(double d, std::string* out) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d), "double must be 64-bit");
  std::memcpy(&bits, &d, sizeof(bits));
  AppendWord(bits, out);
}

}  // namespace

JoinKeyInfo MakeJoinKeyInfo(const stt::Tuple& t,
                            const std::vector<size_t>& cols) {
  JoinKeyInfo info;
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (size_t col : cols) {
    const Value& v = t.value(col);
    if (v.is_null()) {
      // Null dominates every other flag: one null conjunct already makes
      // the whole predicate non-true, whatever the other columns hold.
      info.has_null = true;
      info.has_nan = false;
      return info;
    }
    if (info.has_nan) continue;  // hash is moot, but nulls still dominate
    if (v.is_numeric()) {
      // Canonicalize to double so int 5 and double 5.0 share a range.
      double d = CanonicalDouble(v);
      if (std::isnan(d)) {
        info.has_nan = true;
        continue;
      }
      mix(static_cast<uint64_t>(ValueType::kDouble));
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      mix(bits);
    } else {
      mix(static_cast<uint64_t>(v.type()));
      mix(static_cast<uint64_t>(v.Hash()));
    }
  }
  info.hash = h;
  return info;
}

JoinKeyKind JoinKeyForm(const stt::Tuple& t, const std::vector<size_t>& cols,
                        std::string* out) {
  out->clear();
  JoinKeyKind kind = JoinKeyKind::kNormal;
  for (size_t c = 0; c < cols.size(); ++c) {
    const Value& v = t.value(cols[c]);
    if (v.is_null()) return JoinKeyKind::kNull;  // null dominates NaN
    if (kind == JoinKeyKind::kNan) continue;
    if (v.is_numeric()) {
      double d = CanonicalDouble(v);
      if (std::isnan(d)) {
        kind = JoinKeyKind::kNan;
        continue;
      }
      out->push_back('n');
      AppendDouble(d, out);
      continue;
    }
    out->push_back(static_cast<char>('a' + static_cast<int>(v.type())));
    switch (v.type()) {
      case ValueType::kBool:
        out->push_back(v.AsBool() ? '1' : '0');
        break;
      case ValueType::kString:
        // The length keeps multi-column forms unambiguous; the last
        // column ends where the form does.
        if (c + 1 < cols.size()) {
          const uint32_t n = static_cast<uint32_t>(v.AsString().size());
          out->append(reinterpret_cast<const char*>(&n), sizeof(n));
        }
        out->append(v.AsString());
        break;
      case ValueType::kTimestamp:
        AppendWord(static_cast<uint64_t>(v.AsTime()), out);
        break;
      case ValueType::kGeoPoint: {
        const stt::GeoPoint& p = v.AsGeo();
        AppendDouble(p.lat == 0.0 ? 0.0 : p.lat, out);
        AppendDouble(p.lon == 0.0 ? 0.0 : p.lon, out);
        break;
      }
      default:
        break;
    }
  }
  return kind;
}

// ---------------------------------------------------------------------
// Key interning.

namespace {

/// FNV-1a over the form, finished with the SplitMix64 mixer so the low
/// bits that pick a table slot depend on every byte.
uint64_t FormHash(std::string_view form) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : form) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace

uint32_t KeyInterner::Intern(std::string_view form) {
  const uint64_t hash = FormHash(form);
  if (table_.empty()) Rehash(64);
  const size_t mask = table_.size() - 1;
  size_t i = hash & mask;
  for (; table_[i] != 0; i = (i + 1) & mask) {
    const uint32_t id = table_[i] - 1;
    if (FormOf(id) == form) return id;
  }
  const uint32_t id = static_cast<uint32_t>(size());
  bytes_ += form;
  offsets_.push_back(static_cast<uint32_t>(bytes_.size()));
  table_[i] = id + 1;
  if (2 * size() > table_.size()) Rehash(2 * table_.size());
  return id;
}

void KeyInterner::Rehash(size_t capacity) {
  table_.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (uint32_t id = 0; id < size(); ++id) {
    size_t i = FormHash(FormOf(id)) & mask;
    while (table_[i] != 0) i = (i + 1) & mask;
    table_[i] = id + 1;
  }
}

const std::vector<uint32_t>& KeyInterner::Ranks() {
  const size_t ranked = sorted_.size();
  if (ranked == size()) return rank_;
  auto less = [this](uint32_t a, uint32_t b) { return FormOf(a) < FormOf(b); };
  for (size_t id = ranked; id < size(); ++id) {
    sorted_.push_back(static_cast<uint32_t>(id));
  }
  std::sort(sorted_.begin() + static_cast<ptrdiff_t>(ranked), sorted_.end(),
            less);
  std::inplace_merge(sorted_.begin(),
                     sorted_.begin() + static_cast<ptrdiff_t>(ranked),
                     sorted_.end(), less);
  rank_.resize(size());
  for (size_t r = 0; r < sorted_.size(); ++r) {
    rank_[sorted_[r]] = static_cast<uint32_t>(r);
  }
  return rank_;
}

std::vector<uint32_t> KeyInterner::Compact(const std::vector<bool>& used) {
  std::vector<uint32_t> remap(size(), kNoId);
  std::string bytes;
  std::vector<uint32_t> offsets{0};
  size_t kept = 0;
  for (uint32_t id = 0; id < size(); ++id) {
    if (id >= used.size() || !used[id]) continue;
    remap[id] = static_cast<uint32_t>(kept++);
    bytes += FormOf(id);
    offsets.push_back(static_cast<uint32_t>(bytes.size()));
  }
  bytes_ = std::move(bytes);
  offsets_ = std::move(offsets);
  size_t capacity = 64;
  while (capacity < 2 * kept + 2) capacity *= 2;
  Rehash(capacity);
  // Renumbering keeps the relative order, so the ranked order survives
  // with the forgotten ids left out.
  std::vector<uint32_t> sorted;
  sorted.reserve(kept);
  for (uint32_t id : sorted_) {
    if (remap[id] != kNoId) sorted.push_back(remap[id]);
  }
  sorted_ = std::move(sorted);
  rank_.assign(kept, 0);
  for (size_t r = 0; r < sorted_.size(); ++r) {
    rank_[sorted_[r]] = static_cast<uint32_t>(r);
  }
  return remap;
}

// ---------------------------------------------------------------------
// Pane store.

namespace {

bool SlotLess(const PaneStore::Slot& a, const PaneStore::Slot& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  return EventOrderLess(*a.tuple, *b.tuple);
}

}  // namespace

size_t PaneStore::Add(Timestamp pane_key, stt::TupleRef tuple,
                      uint32_t key) {
  const Timestamp ts = tuple->timestamp();
  if (last_pane_ == nullptr || last_pane_key_ != pane_key) {
    auto [it, created] = panes_.try_emplace(pane_key);
    // Sized like the last pane that expired, a pane rarely regrows.
    if (created) it->second.slots.reserve(typical_pane_ + typical_pane_ / 8);
    last_pane_ = &it->second;
    last_pane_key_ = pane_key;
  }
  Pane& pane = *last_pane_;
  pane.slots.push_back({ts, next_seq_++, key, std::move(tuple)});
  pane.indexed = false;
  pane.min_ts = std::min(pane.min_ts, ts);
  pane.max_ts = std::max(pane.max_ts, ts);
  ++live_;
  size_t evicted = 0;
  for (; live_ > max_tuples_; ++evicted) EvictOldest();
  if (dead_ > live_ + 64) SweepDead();
  return evicted;
}

void PaneStore::EvictOldest() {
  // Each pane is in arrival order and its dead slots are a prefix, so the
  // oldest live arrival heads one of the panes.
  Pane* oldest = nullptr;
  for (auto& [key, pane] : panes_) {
    while (pane.head < pane.slots.size() && !Live(pane.slots[pane.head])) {
      ++pane.head;
    }
    if (pane.head < pane.slots.size() &&
        (oldest == nullptr ||
         pane.slots[pane.head].seq < oldest->slots[oldest->head].seq)) {
      oldest = &pane;
    }
  }
  floor_ = oldest->slots[oldest->head++].seq + 1;
  --live_;
  ++dead_;
}

template <typename Pred>
void PaneStore::Erase(Pane* pane, Pred gone) {
  auto& slots = pane->slots;
  // new_index[i]: where slot i moves, or kNoId when it goes.
  std::vector<uint32_t> new_index(slots.size(), KeyInterner::kNoId);
  size_t kept = 0;
  pane->min_ts = std::numeric_limits<Timestamp>::max();
  pane->max_ts = std::numeric_limits<Timestamp>::min();
  for (size_t i = 0; i < slots.size(); ++i) {
    Slot& s = slots[i];
    if (gone(s)) {
      if (Live(s)) {
        --live_;
      } else {
        --dead_;
      }
      continue;
    }
    new_index[i] = static_cast<uint32_t>(kept);
    pane->min_ts = std::min(pane->min_ts, s.ts);
    pane->max_ts = std::max(pane->max_ts, s.ts);
    if (kept != i) slots[kept] = std::move(s);
    ++kept;
  }
  if (kept == slots.size()) return;
  slots.resize(kept);
  size_t out = 0;
  for (uint32_t i : pane->order) {
    if (new_index[i] != KeyInterner::kNoId) pane->order[out++] = new_index[i];
  }
  pane->order.resize(out);
  pane->head = 0;
  pane->indexed = false;
}

void PaneStore::Forget(std::map<Timestamp, Pane>::iterator* it) {
  if (&(*it)->second == last_pane_) last_pane_ = nullptr;
  *it = panes_.erase(*it);
}

void PaneStore::EvictOlderThan(Timestamp cutoff) {
  // Below an earlier cutoff only stragglers that arrived since can
  // remain; they go too.
  cutoff = std::max(cutoff, expiry_cutoff_);
  expiry_cutoff_ = cutoff;
  for (auto it = panes_.begin(); it != panes_.end();) {
    Pane& pane = it->second;
    if (pane.max_ts < cutoff) {
      typical_pane_ = pane.slots.size();
      for (const Slot& s : pane.slots) {
        if (Live(s)) {
          --live_;
        } else {
          --dead_;
        }
      }
      Forget(&it);
      continue;
    }
    if (pane.min_ts < cutoff) {
      Erase(&pane, [cutoff](const Slot& s) { return s.ts < cutoff; });
    }
    if (pane.slots.empty()) {
      Forget(&it);
    } else {
      ++it;
    }
  }
}

void PaneStore::Clear() {
  panes_.clear();
  last_pane_ = nullptr;
  live_ = 0;
  dead_ = 0;
}

void PaneStore::SweepDead() {
  for (auto it = panes_.begin(); it != panes_.end();) {
    Erase(&it->second, [this](const Slot& s) { return !Live(s); });
    if (it->second.slots.empty()) {
      Forget(&it);
    } else {
      ++it;
    }
  }
}

std::vector<Timestamp> PaneStore::PaneKeys() const {
  std::vector<Timestamp> keys;
  keys.reserve(panes_.size());
  for (const auto& [key, pane] : panes_) keys.push_back(key);
  return keys;
}

void PaneStore::Sort(Pane* pane) {
  const auto& slots = pane->slots;
  auto& order = pane->order;
  const size_t sorted = order.size();
  if (sorted == slots.size()) return;
  auto less = [&slots](uint32_t a, uint32_t b) {
    return SlotLess(slots[a], slots[b]);
  };
  // Only the arrivals since the last sorted read are placed: sorted
  // among themselves, then merged into the run already in order.
  for (size_t i = sorted; i < slots.size(); ++i) {
    order.push_back(static_cast<uint32_t>(i));
  }
  const auto mid = order.begin() + static_cast<ptrdiff_t>(sorted);
  if (!std::is_sorted(mid, order.end(), less)) std::sort(mid, order.end(), less);
  if (sorted > 0 && less(*mid, *(mid - 1))) {
    std::inplace_merge(order.begin(), mid, order.end(), less);
  }
  pane->indexed = false;
}

void PaneStore::Read(const Range& range, bool sorted, View* out) {
  out->clear();
  for (auto it = panes_.lower_bound(range.pane_lo);
       it != panes_.end() && it->first < range.pane_hi; ++it) {
    Pane& pane = it->second;
    if (sorted) Sort(&pane);
    if (pane.max_ts < range.ts_lo || pane.min_ts >= range.ts_hi) continue;
    auto take = [&](const Slot& s) {
      if (s.ts >= range.ts_lo && s.ts < range.ts_hi && Live(s)) {
        out->push_back(&s);
      }
    };
    if (sorted) {
      for (uint32_t i : pane.order) take(pane.slots[i]);
    } else {
      for (const Slot& s : pane.slots) take(s);
    }
  }
}

void PaneStore::Index(Pane* pane) {
  pane->keys.clear();
  pane->nans.clear();
  pane->by_order = pane->order.size() == pane->slots.size();
  const uint32_t n = static_cast<uint32_t>(pane->slots.size());
  for (uint32_t p = 0; p < n; ++p) {
    const uint32_t key = pane->at(p).key;
    if (key == kNanKey) {
      pane->nans.push_back(p);
    } else if (key != kNullKey) {
      if (key >= counts_.size()) counts_.resize(key + 1, 0);
      if (counts_[key]++ == 0) pane->keys.push_back(key);
    }
  }
  std::sort(pane->keys.begin(), pane->keys.end());
  pane->starts.resize(pane->keys.size() + 1);
  uint32_t total = 0;
  for (size_t k = 0; k < pane->keys.size(); ++k) {
    pane->starts[k] = total;
    uint32_t& count = counts_[pane->keys[k]];
    const uint32_t c = count;
    count = total;  // now the run's write cursor
    total += c;
  }
  pane->starts.back() = total;
  pane->runs.resize(total);
  for (uint32_t p = 0; p < n; ++p) {
    const uint32_t key = pane->at(p).key;
    if (key != kNanKey && key != kNullKey) pane->runs[counts_[key]++] = p;
  }
  for (uint32_t key : pane->keys) counts_[key] = 0;
  pane->indexed = true;
}

void PaneStore::Probe(uint32_t key, const Range& range, View* out) {
  out->clear();
  for (auto it = panes_.lower_bound(range.pane_lo);
       it != panes_.end() && it->first < range.pane_hi; ++it) {
    Pane& pane = it->second;
    if (pane.max_ts < range.ts_lo || pane.min_ts >= range.ts_hi) continue;
    if (!pane.indexed) Index(&pane);
    const uint32_t* run = nullptr;
    const uint32_t* run_end = nullptr;
    auto k = std::lower_bound(pane.keys.begin(), pane.keys.end(), key);
    if (k != pane.keys.end() && *k == key) {
      const size_t j = static_cast<size_t>(k - pane.keys.begin());
      run = pane.runs.data() + pane.starts[j];
      run_end = pane.runs.data() + pane.starts[j + 1];
    }
    // The key's run and the NaN list are both ascending read positions:
    // merged, they enumerate the candidates in the pane's read order.
    const uint32_t* nan = pane.nans.data();
    const uint32_t* nan_end = nan + pane.nans.size();
    while (run != run_end || nan != nan_end) {
      const uint32_t p =
          nan == nan_end || (run != run_end && *run < *nan) ? *run++ : *nan++;
      const Slot& s = pane.at(p);
      if (s.ts >= range.ts_lo && s.ts < range.ts_hi && Live(s)) {
        out->push_back(&s);
      }
    }
  }
}

void PaneStore::MarkKeys(std::vector<bool>* used) const {
  for (const auto& [key, pane] : panes_) {
    for (const Slot& s : pane.slots) {
      if (s.key < used->size()) (*used)[s.key] = true;
    }
  }
}

void PaneStore::RemapKeys(const std::vector<uint32_t>& remap) {
  for (auto& [key, pane] : panes_) {
    for (Slot& s : pane.slots) {
      if (s.key < remap.size()) s.key = remap[s.key];
    }
    pane.indexed = false;
  }
  counts_.clear();
}

}  // namespace sl::ops
