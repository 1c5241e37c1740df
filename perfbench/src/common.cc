#include "common.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

Windowed SplitWindows(const std::vector<double>& start_s,
                      const std::vector<double>& latency, double window_s,
                      int windows) {
  std::vector<std::vector<double>> buckets(static_cast<size_t>(windows));
  for (size_t i = 0; i < start_s.size(); ++i) {
    const double w = std::floor(start_s[i] / window_s);
    if (w < 0 || w >= windows) continue;
    buckets[static_cast<size_t>(w)].push_back(latency[i]);
  }
  Windowed out;
  for (const auto& b : buckets) {
    out.rate.push_back(static_cast<double>(b.size()) / window_s);
    out.p50.push_back(Quantile(b, 0.50));
    out.p99.push_back(Quantile(b, 0.99));
  }
  return out;
}

void Report::Add(const std::string& name, double value, const std::string& unit,
                 uint64_t samples) {
  metrics_[name] = Entry{value, unit};
  std::printf("metric %-36s = %.6g %s (n=%llu)\n", name.c_str(), value,
              unit.c_str(), static_cast<unsigned long long>(samples));
}

void Report::Check(const std::string& what, bool ok) {
  if (!ok) correct_ = false;
  std::printf("check  %-60s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  std::fflush(stdout);
}

bool Report::Has(const std::string& name) const {
  return metrics_.count(name) != 0;
}

double Report::Value(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

const std::string& Report::Unit(const std::string& name) const {
  static const std::string kNone;
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? kNone : it->second.unit;
}

uint64_t SpanLog::Add(std::string_view name, uint64_t request, uint64_t parent,
                      Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  // Span ids are unique across lanes: the lane number sits in the top bits.
  const uint64_t id = (lane_ << 48) | next_++;
  const double start_us = std::chrono::duration<double, std::micro>(
                              start.time_since_epoch())
                              .count();
  spans_.push_back(Span{id, parent, request, name, start_us,
                        UsBetween(start, end)});
  return id;
}

std::vector<double> SpanLog::Durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.dur_us);
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  bool first = true;
  char line[256];
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::snprintf(line, sizeof(line),
                    "%s{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                    "\"name\":\"%.*s\",\"start_us\":%.3f,\"dur_us\":%.3f}",
                    first ? "" : ",\n", static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.request),
                    static_cast<int>(s.name.size()), s.name.data(), s.start_us,
                    s.dur_us);
      out << line;
      first = false;
    }
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

RegistryValues RegistryValues::Take() {
  const probe::obs::RegistrySnapshot snap =
      probe::obs::Registry::Default().Snapshot();
  RegistryValues v;
  for (const auto& c : snap.counters) v.counters[c.name] += c.value;
  for (const auto& h : snap.histograms) {
    auto [it, fresh] = v.histograms.emplace(h.name, h.hist);
    if (!fresh) it->second.Merge(h.hist);
  }
  return v;
}

double RegistryValues::Counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double RegistryValues::CounterDelta(const RegistryValues& before,
                                    const std::string& name) const {
  return Counter(name) - before.Counter(name);
}

probe::obs::HistogramSnapshot RegistryValues::HistogramDelta(
    const RegistryValues& before, const std::string& name) const {
  probe::obs::HistogramSnapshot out;
  const auto now = histograms.find(name);
  if (now == histograms.end()) return out;
  out = now->second;
  const auto then = before.histograms.find(name);
  if (then == before.histograms.end()) return out;
  for (size_t i = 0; i < out.counts.size() && i < then->second.counts.size();
       ++i) {
    out.counts[i] -= then->second.counts[i];
  }
  out.sum -= then->second.sum;
  out.count -= then->second.count;
  return out;
}

double HistogramQuantile(const probe::obs::HistogramSnapshot& h, double q) {
  if (h.count == 0 || h.counts.empty()) return 0.0;
  const double target = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (size_t i = 0; i < h.counts.size(); ++i) {
    const double in_bucket = static_cast<double>(h.counts[i]);
    if (seen + in_bucket >= target && in_bucket > 0) {
      const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
      // The overflow bucket has no upper bound; report its lower edge.
      if (i >= h.bounds.size()) return lo;
      const double hi = h.bounds[i];
      return lo + (hi - lo) * (target - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return h.bounds.empty() ? 0.0 : h.bounds.back();
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

uint64_t PairDigest(uint64_t a, uint64_t b) {
  // splitmix64 finalizer over a combination that is not symmetric in a, b.
  uint64_t x = a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
