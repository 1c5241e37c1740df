#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

/// \file
/// Shared plumbing of the benchmark program: run arguments, timing, the
/// metric report, spans, and registry deltas.

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b);
double MsBetween(Clock::time_point a, Clock::time_point b);
double UsBetween(Clock::time_point a, Clock::time_point b);

/// Nearest-rank quantile (q in (0, 1]) of `values`; 0 for an empty set.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// A timed stream cut into equal windows: the completion rate and the
/// latency median and p99 of each window. The serve workloads report the
/// median across windows, which a passing burst of host noise moves less
/// than a whole-run figure.
struct Windowed {
  std::vector<double> rate;  // completions per second
  std::vector<double> p50;
  std::vector<double> p99;
};
/// `start_s[i]` is sample i's start in seconds since the window opened;
/// samples outside [0, windows * window_s) are dropped.
Windowed SplitWindows(const std::vector<double>& start_s,
                      const std::vector<double>& latency, double window_s,
                      int windows);

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  int nproc = 1;
  /// Scratch directory for database files; the caller removes it.
  std::string workdir;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
};

/// Every metric a run measured, printed as it is added:
///   metric <name> = <value> <unit> (n=<samples>)
/// plus the run's attempted/failed operation counts and the outcome of
/// every correctness check.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples);
  /// Records a correctness check; a failed one makes the run incorrect.
  void Check(const std::string& what, bool ok);

  void CountAttempt(uint64_t n = 1) { attempted_ += n; }
  void CountFailure(uint64_t n = 1) { failed_ += n; }

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool Has(const std::string& name) const;
  double Value(const std::string& name) const;
  const std::string& Unit(const std::string& name) const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// One timed interval around a call into a layer. Spans of one request
/// share `request`; `parent` is the span that caused this one (0: root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string_view name;
  double start_us = 0.0;
  double dur_us = 0.0;
};

/// Spans of one thread, kept in memory; no locking. Disabled logs drop
/// everything, so untraced code paths pay one branch.
class SpanLog {
 public:
  SpanLog(bool enabled, uint64_t lane) : enabled_(enabled), lane_(lane) {}

  bool enabled() const { return enabled_; }
  /// Records [start, end) and returns the span's id (0 when disabled).
  uint64_t Add(std::string_view name, uint64_t request, uint64_t parent,
               Clock::time_point start, Clock::time_point end);
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (µs) of the spans named `name`.
  std::vector<double> Durations(std::string_view name) const;

 private:
  bool enabled_;
  uint64_t lane_;
  uint64_t next_ = 1;
  std::vector<Span> spans_;
};

/// Writes every span of `logs` as a JSON array to `path`.
bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs);

/// Process-wide counter and histogram values of the default registry,
/// keyed by family name (labels are not used by the families read here).
struct RegistryValues {
  std::map<std::string, double> counters;
  std::map<std::string, probe::obs::HistogramSnapshot> histograms;

  static RegistryValues Take();
  double Counter(const std::string& name) const;
  /// Delta of a counter against an earlier snapshot.
  double CounterDelta(const RegistryValues& before, const std::string& name) const;
  /// Delta histogram (counts, sum, count) against an earlier snapshot.
  probe::obs::HistogramSnapshot HistogramDelta(const RegistryValues& before,
                                               const std::string& name) const;
};

/// Quantile of a bucketed histogram, interpolated linearly inside the
/// bucket that holds it (the exported bucket bounds are all there is).
double HistogramQuantile(const probe::obs::HistogramSnapshot& h, double q);

/// Peak resident set size of this process since the last ResetPeakRss
/// (or since it started), in MB.
double PeakRssMb();
/// Restarts the peak resident-size mark at the current resident size.
void ResetPeakRss();

/// Size of a file in bytes (0 when missing).
uint64_t FileBytes(const std::string& path);

/// Order-insensitive 64-bit digest term of one (a, b) pair; digests of a
/// set are the wrapping sum of its terms.
uint64_t PairDigest(uint64_t a, uint64_t b);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
