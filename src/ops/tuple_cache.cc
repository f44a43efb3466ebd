#include "ops/tuple_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "stt/value.h"

namespace sl::ops {

using stt::Value;
using stt::ValueType;

bool EventOrderLess(const stt::Tuple& a, const stt::Tuple& b) {
  if (a.timestamp() != b.timestamp()) return a.timestamp() < b.timestamp();
  if (a.sensor_id() != b.sensor_id()) return a.sensor_id() < b.sensor_id();
  return a.ToString() < b.ToString();
}

std::vector<const TupleCache::Entry*> WindowView(const TupleCache& cache,
                                                 Timestamp begin,
                                                 Timestamp end, bool sorted) {
  std::vector<const TupleCache::Entry*> view;
  for (const auto& entry : cache.entries()) {
    Timestamp ts = entry.tuple->timestamp();
    if (ts >= begin && ts < end) view.push_back(&entry);
  }
  if (sorted) {
    std::sort(view.begin(), view.end(),
              [](const TupleCache::Entry* a, const TupleCache::Entry* b) {
                return EventOrderLess(*a->tuple, *b->tuple);
              });
  }
  return view;
}

Timestamp OldestTs(const TupleCache& cache) {
  Timestamp low = stt::kNoWatermark;
  for (const auto& entry : cache.entries()) {
    Timestamp ts = entry.tuple->timestamp();
    if (low == stt::kNoWatermark || ts < low) low = ts;
  }
  return low;
}

uint64_t SeqSignatureOf(std::vector<uint64_t> seqs) {
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

uint64_t SeqSignature(const std::vector<const TupleCache::Entry*>& view) {
  std::vector<uint64_t> seqs;
  seqs.reserve(view.size());
  for (const auto* e : view) seqs.push_back(e->seq);
  return SeqSignatureOf(std::move(seqs));
}

// ---------------------------------------------------------------------
// Join hash index.

bool JoinKeyEquals(const Value& a, const Value& b) {
  // Mirror of expr::EvalCompareOp's kEq: cross-type numerics compare as
  // doubles, everything else through Value::Compare. Both three-way
  // comparisons answer "neither less nor greater" for NaN, which makes
  // NaN equal to every numeric — kept intentionally so the index
  // accepts exactly what the predicate accepts. Null is the
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
      // Canonicalize to double so int 5 and double 5.0 share a bucket,
      // and fold -0.0 into +0.0 (they compare equal).
      double d = v.type() == ValueType::kInt ? static_cast<double>(v.AsInt())
                                             : v.AsDouble();
      if (std::isnan(d)) {
        info.has_nan = true;
        continue;
      }
      if (d == 0.0) d = 0.0;
      mix(static_cast<uint64_t>(ValueType::kDouble));
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d), "double must be 64-bit");
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

void JoinHashIndex::Insert(const TupleCache::Entry& entry) {
  JoinKeyInfo info = MakeJoinKeyInfo(*entry.tuple, cols_);
  if (info.has_null) return;  // can never satisfy the equi-conjuncts
  if (info.has_nan) {
    nan_slots_.push_back({entry.seq, entry.tuple});
  } else {
    buckets_[info.hash].push_back({entry.seq, entry.tuple});
  }
  ++slot_count_;
}

void JoinHashIndex::Candidates(const JoinKeyInfo& probe,
                               std::vector<const Slot*>* out) const {
  out->clear();
  auto it = buckets_.find(probe.hash);
  const std::vector<Slot>* bucket = it != buckets_.end() ? &it->second : nullptr;
  if (nan_slots_.empty()) {
    if (bucket == nullptr) return;
    out->reserve(bucket->size());
    for (const Slot& s : *bucket) out->push_back(&s);
    return;
  }
  // Merge the bucket with the NaN side list by seq: both are in
  // insertion order, and the combined stream must enumerate in cache
  // arrival order to reproduce the nested loop's emission order.
  size_t bi = 0, ni = 0;
  size_t bn = bucket != nullptr ? bucket->size() : 0;
  out->reserve(bn + nan_slots_.size());
  while (bi < bn || ni < nan_slots_.size()) {
    bool take_bucket =
        ni >= nan_slots_.size() ||
        (bi < bn && (*bucket)[bi].seq < nan_slots_[ni].seq);
    out->push_back(take_bucket ? &(*bucket)[bi++] : &nan_slots_[ni++]);
  }
}

void JoinHashIndex::Compact(const TupleCache& cache) {
  auto live = [&cache](const Slot& s) {
    return cache.Live(s.seq, s.tuple->timestamp());
  };
  size_t kept = 0;
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    auto& slots = it->second;
    slots.erase(std::remove_if(slots.begin(), slots.end(),
                               [&](const Slot& s) { return !live(s); }),
                slots.end());
    if (slots.empty()) {
      it = buckets_.erase(it);
    } else {
      kept += slots.size();
      ++it;
    }
  }
  nan_slots_.erase(std::remove_if(nan_slots_.begin(), nan_slots_.end(),
                                  [&](const Slot& s) { return !live(s); }),
                   nan_slots_.end());
  slot_count_ = kept + nan_slots_.size();
}

// ---------------------------------------------------------------------
// Pane index.

void PaneIndex::Insert(const TupleCache::Entry& entry) {
  Timestamp start = stt::AlignDown(entry.tuple->timestamp(), pane_width_);
  Pane& pane = panes_[start];
  pane.entries.push_back(entry);
  pane.dirty = true;
}

std::vector<const TupleCache::Entry*> PaneIndex::View(const TupleCache& cache,
                                                      Timestamp begin,
                                                      Timestamp end) {
  std::vector<const TupleCache::Entry*> view;
  if (begin >= end) return view;
  auto it = panes_.lower_bound(stt::AlignDown(begin, pane_width_));
  for (; it != panes_.end() && it->first < end; ++it) {
    Pane& pane = it->second;
    if (pane.dirty) {
      std::sort(pane.entries.begin(), pane.entries.end(),
                [](const TupleCache::Entry& a, const TupleCache::Entry& b) {
                  return EventOrderLess(*a.tuple, *b.tuple);
                });
      pane.dirty = false;
    }
    bool edge = it->first < begin || it->first + pane_width_ > end;
    for (const TupleCache::Entry& e : pane.entries) {
      Timestamp ts = e.tuple->timestamp();
      if (edge && (ts < begin || ts >= end)) continue;
      if (!cache.Live(e.seq, ts)) continue;
      view.push_back(&e);
    }
  }
  return view;
}

void PaneIndex::DropBelow(Timestamp cutoff) {
  while (!panes_.empty()) {
    auto it = panes_.begin();
    if (it->first + pane_width_ <= cutoff) {
      panes_.erase(it);
    } else {
      break;
    }
  }
}

}  // namespace sl::ops
