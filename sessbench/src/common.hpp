// common.hpp — shared pieces of the session benchmark: the run options, the
// outcome a workload reports, and the measurement helpers (clocks, rusage,
// percentiles, the handshake minimum).
#ifndef SESSBENCH_COMMON_HPP
#define SESSBENCH_COMMON_HPP

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace sessbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// What one run reports. `attempted` counts the logical sessions the
// workload asked for; `failed` counts the failed, refused and incomplete
// ones plus every output-check violation, so failed / attempted is the
// run's error rate. Any violation also clears `correct`.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // the set selected by --trace
  std::vector<Metric> notes;    // printed for the reader, never in the JSON
  std::vector<std::string> violations;

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  void note(const std::string& name, const std::string& unit, double value) {
    notes.push_back({name, unit, value});
  }
  void violation(const std::string& what) {
    ++failed;
    correct = false;
    if (violations.size() < 32) violations.push_back(what);
  }
};

// Process CPU time (all threads, user + system) in microseconds.
inline double cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Peak resident set of this process image, from /proc/self/status VmHWM
// (getrusage's ru_maxrss would also count the parent's footprint at exec).
double peak_rss_mb();

// Percentile of raw samples, linearly interpolated between order
// statistics (pct in [0, 100]).
inline double sample_percentile(const std::vector<double>& samples,
                                double pct) {
  if (samples.empty()) return 0.0;
  std::vector<double> v(samples);
  std::sort(v.begin(), v.end());
  const double pos = pct / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) {
  return sample_percentile(v, 50.0);
}

// The mean of the samples between the 40th and 60th percentiles: the live
// workloads' latency_p50_ms. A live round is three PifBroadcasts (~70 ms
// on the wire) and three Elections (~145 ms), an even split, so the plain
// sample median is the midpoint between the slowest PIF and the fastest
// Election, two extremes that moved it by 10% between seeds.
inline double smoothed_median(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::vector<double> v(samples);
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() * 2 / 5;
  const std::size_t hi = std::max(lo + 1, v.size() * 3 / 5);
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

// The untraced run's throughput, CPU and latency figures are medians over
// chunks of its measured phase (a load batch, or a fixed number of live
// rounds), so a burst of interference from outside the benchmark moves a
// few chunks instead of the whole figure. Each chunk holds at least 1000
// sessions, so its p99 has at least ten samples beyond it.
struct ChunkMedians {
  std::vector<double> sessions_per_s;
  std::vector<double> cpu_us_per_session;
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;

  void add(double sessions, double wall_ns, double cpu_us, double p50,
           double p99) {
    sessions_per_s.push_back(sessions * 1e9 / wall_ns);
    cpu_us_per_session.push_back(cpu_us / sessions);
    p50_ms.push_back(p50);
    p99_ms.push_back(p99);
  }
  std::size_t count() const { return p50_ms.size(); }
};

// The flag-counting handshake minimum (core/pif.hpp): a started PIF wave
// decides only after State[q] climbed 0 -> F (F = 2c + 2) for every
// neighbour q, and each step of the climb consumes one message received
// from q. A message from q raises p's State[q] at most once, so a wave
// needs at least F * degree messages. (Counting the initiator's sends as
// well would overstate the bound: with both ends of a link running waves,
// one message serves as request for one wave and echo for the other.)
inline double handshake_minimum(int flag_bound, int degree) {
  return static_cast<double>(flag_bound) * degree;
}

}  // namespace sessbench

#endif  // SESSBENCH_COMMON_HPP
