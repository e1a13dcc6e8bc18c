/// \file bench.h
/// \brief Shared plumbing of the repository benchmark: clocks, quantiles,
/// the run result (metrics plus correctness checks) and the in-memory span
/// log that traced runs write out when they end.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for empty input.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Which workload a run drives and how.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Short rounds plus the perturbation checks (`--self-test`).
  bool self_test = false;
  unsigned nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Everything one run reports: its metrics, the operations it attempted
/// and failed, and every correctness check it made.
class Result {
 public:
  /// Record a check; a false `ok` marks the run incorrect and keeps `what`.
  void check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) failures_.push_back(what);
  }
  void add(std::string name, double value, std::string unit,
           std::size_t samples) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }
  void count_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return failures_.empty(); }
  std::size_t checks() const { return checks_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::size_t checks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One timed interval at a layer boundary. Spans of one request share `id`
/// (the request's wire seq, or the trial index in the sweep); `parent` names
/// the span that caused this one ("" for a root).
struct Span {
  std::string name;
  std::string parent;
  std::uint64_t id = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  double us() const { return (end_s - start_s) * 1e6; }
};

/// In-memory span recorder shared by the decorators of a traced run.
/// Recording takes one mutex per span; the cost shows in
/// `bench.trace_overhead`.
class SpanLog {
 public:
  void record(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }
  /// Durations (microseconds) of every span named `name`.
  std::vector<double> durations_us(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.us());
    }
    return out;
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }
  void append(const SpanLog& other) {
    std::vector<Span> theirs = other.spans();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), theirs.begin(), theirs.end());
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-layer metrics of a traced run, by name (value, unit, samples).
using LayerMetrics = std::map<std::string, Metric>;

inline void put(LayerMetrics& out, const std::string& name, double value,
                const std::string& unit, std::size_t samples) {
  out[name] = Metric{name, value, unit, samples};
}

/// Mix `v` into a running 64-bit digest (FNV-1a over the value's bytes);
/// each run prints the digest of its generated inputs.
inline std::uint64_t digest_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline constexpr std::uint64_t kDigestInit = 0xcbf29ce484222325ULL;

/// Peak resident set of this process in MiB.
double peak_rss_mib();

/// Machine-wide CPU time from /proc/stat, in clock ticks: all of it, and
/// the part the hypervisor gave to other guests (steal). Both 0 where the
/// file is unreadable.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks read_cpu_ticks();

}  // namespace perfbench
