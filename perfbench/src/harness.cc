#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

int CurrentTid() { return static_cast<int>(syscall(SYS_gettid)); }

void WaitUntil(int64_t due_ns) {
  for (;;) {
    int64_t left = due_ns - NowNs();
    if (left <= 0) return;
    if (left > 300000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 200000));
    }
  }
}

namespace {

/// A "Name:   123 kB" field of /proc/self/status, in bytes (0 if absent).
int64_t StatusBytes(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::atoll(line.c_str() + n + 1) * 1024;
    }
  }
  return 0;
}

}  // namespace

PhaseProbe::PhaseProbe() {
  malloc_trim(0);
  {
    std::ofstream reset("/proc/self/clear_refs");
    reset << "5";  // resets VmHWM to the current VmRSS
  }
  rss_start_bytes_ = StatusBytes("VmRSS");
}

void PhaseProbe::Stop() {
  cpu_end_ = ProcessCpuNs();
  peak_rss_bytes_ = StatusBytes("VmHWM") - rss_start_bytes_;
}

std::map<int, double> ThreadCpuSeconds() {
  std::map<int, double> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    // schedstat's first field is the thread's time on a CPU in ns (stat's
    // utime/stime count 10 ms ticks, too coarse for short repetitions).
    std::ifstream in(std::string("/proc/self/task/") + entry->d_name +
                     "/schedstat");
    double ns = 0;
    if (in >> ns) out[std::atoi(entry->d_name)] = ns / 1e9;
  }
  closedir(dir);
  return out;
}

// ---------------------------------------------------------------------------

std::string Percentiles::ToString(const std::string& unit) const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "n=%zu p50=%.4f %s p99=%.4f %s%s highest p%g=%.4f %s", count,
                p50, unit.c_str(), p99, unit.c_str(),
                p99_supported ? "" : " (fewer than 10 samples above p99)",
                highest_pct, highest, unit.c_str());
  return buf;
}

Percentiles Summarize(std::vector<double> samples) {
  Percentiles out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto at = [&](double pct) {
    size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
    rank = std::clamp<size_t>(rank, 1, samples.size());
    return samples[rank - 1];
  };
  out.p50 = at(50);
  out.p99 = at(99);
  out.p99_supported = n * 0.01 >= 10;
  out.highest_pct = 50;
  for (double pct : {90.0, 99.0, 99.9, 99.99}) {
    if (n * (100.0 - pct) / 100.0 >= 10) out.highest_pct = pct;
  }
  out.highest = at(out.highest_pct);
  return out;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  // Equal neighbours (infinite ones included) need no interpolation.
  if (values[hi] == values[lo]) return values[lo];
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void Digest::Add(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

std::string Digest::Hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

// ---------------------------------------------------------------------------

LineLog::LineLog(size_t max_lines, size_t max_bytes)
    : bytes_(max_bytes, '\0'), entries_(max_lines) {}

void LineLog::Append(const std::string& line) {
  const int64_t now = NowNs();
  const uint64_t e = next_entry_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t b =
      next_byte_.fetch_add(line.size(), std::memory_order_relaxed);
  if (e >= entries_.size() || b + line.size() > bytes_.size()) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::memcpy(bytes_.data() + b, line.data(), line.size());
  entries_[e] = {b, static_cast<uint32_t>(line.size()), now};
}

size_t LineLog::size() const {
  return std::min<size_t>(next_entry_.load(), entries_.size());
}

std::string LineLog::line(size_t i) const {
  const Entry& e = entries_[i];
  return std::string(bytes_.data() + e.offset, e.length);
}

void LineLog::Clear() {
  next_entry_ = 0;
  next_byte_ = 0;
  overflow_ = 0;
}

std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> out;
  size_t start = 0;
  for (;;) {
    size_t comma = line.find(',', start);
    out.push_back(line.substr(start, comma - start));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

// ---------------------------------------------------------------------------

namespace {

bool NearlyEqual(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::fabs(a - b) <= 1e-8 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace

void ReferenceCheck::Expect(const std::string& key, std::vector<double> values,
                            int64_t due) {
  Row& row = rows_[key];
  if (row.index < 0) row.index = static_cast<int64_t>(rows_.size()) - 1;
  row.values = std::move(values);
  row.due = due;
}

ReferenceCheck::Match ReferenceCheck::Observe(const std::string& key,
                                              const std::vector<double>& values,
                                              const std::string& shown) {
  auto it = rows_.find(key);
  if (it == rows_.end() || it->second.seen) {
    ++extra_;
    if (diffs_.size() < 16) {
      std::string diff = it == rows_.end() ? "extra row:     " : "duplicate row: ";
      diffs_.push_back(diff.append(shown));
    }
    return {};
  }
  Row& row = it->second;
  row.seen = true;
  bool same = row.values.size() == values.size();
  for (size_t i = 0; same && i < values.size(); ++i) {
    same = NearlyEqual(row.values[i], values[i]);
  }
  if (!same) {
    ++wrong_;
    if (diffs_.size() < 16) {
      std::string want;
      for (double v : row.values) want.append(" ").append(std::to_string(v));
      std::string diff = "wrong row:     ";
      diffs_.push_back(diff.append(shown).append("  (expected").append(want) + ")");
    }
    return {};
  }
  return {row.index, row.due};
}

void ReferenceCheck::AddFailures(uint64_t n, const std::string& what) {
  other_ += n;
  if (n > 0 && diffs_.size() < 16) diffs_.push_back(what);
}

uint64_t ReferenceCheck::missing() const {
  uint64_t n = 0;
  for (const auto& [key, row] : rows_) n += row.seen ? 0 : 1;
  return n;
}

void ReferenceCheck::Reset() {
  for (auto& [key, row] : rows_) row.seen = false;
  extra_ = wrong_ = system_errors_ = other_ = 0;
  diffs_.clear();
}

std::string ReferenceCheck::FirstDifferences(size_t limit) const {
  std::string out;
  size_t shown = 0;
  for (const std::string& d : diffs_) {
    if (shown++ == limit) break;
    out += "  " + d + "\n";
  }
  for (const auto& [key, row] : rows_) {
    if (row.seen) continue;
    if (shown++ >= limit) break;
    out += "  missing row:   " + key + "\n";
  }
  return out;
}

void ReferenceCheck::PerturbOneRow() {
  for (auto& [key, row] : rows_) {
    if (!row.values.empty()) {
      row.values[0] += 1.0;
      return;
    }
  }
}

// ---------------------------------------------------------------------------

uint64_t SpanLog::Add(const std::string& layer, int64_t start_ns,
                      int64_t end_ns, uint64_t parent, int64_t input_id) {
  spans_.push_back({layer, start_ns, end_ns, parent, input_id});
  return spans_.size();  // ids start at 1; 0 means "no parent"
}

bool SpanLog::WriteTraceEvents(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"id\":%zu,\"parent\":%" PRIu64
                 ",\"input\":%" PRId64 "}}\n",
                 i == 0 ? "" : ",", s.layer.c_str(),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1,
                 s.parent, s.input_id);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------

void PrintOutcome(const Outcome& outcome) {
  bool correct = outcome.correct;
  std::string metrics;
  for (const Metric& m : outcome.metrics) {
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char value[64] = "null";
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof value, "%.17g", m.value);
    } else {
      correct = false;
    }
    metrics += (metrics.empty() ? "\"" : ", \"") + m.name +
               "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
