#pragma once
/// \file common.hpp
/// \brief Shared plumbing of the benchmark program: run options, the result
/// record every workload fills, and small statistics helpers.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace sdcbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options of one benchmark invocation.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0; ///< measured time budget of the run
  bool trace = false;    ///< per-layer (traced) run instead of end-to-end
  bool tiny = false;     ///< smoke scale: every workload in seconds
  std::string workdir;   ///< scratch directory inside the checkout
  std::string commit;    ///< source revision stamp (from run.py)
};

/// What one workload run reports: the contract fields, the metrics of the
/// requested mode, and stamp entries describing its working set.
struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Metric values by name; units and the printed set come from the
  /// metric tables in metrics.cpp (a metric a workload leaves unset is a
  /// layer idle on that workload and prints as 0).
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, double>> working_set; ///< bytes
  std::vector<std::string> problems; ///< why `correct` is false
  std::vector<double> op_seconds;    ///< every timed operation, in order
  std::vector<std::string> notes;    ///< extra human-readable result lines

  void metric(const std::string& name, double value) { metrics[name] = value; }
  void fail(const std::string& why) {
    correct = false;
    if (problems.size() < 20) problems.push_back(why);
  }
};

/// Median of \p v (mean of the two middle values for even sizes).
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile \p q in (0, 1] of \p v.
[[nodiscard]] inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Tail latency: p95 when at least ten samples lie beyond it, otherwise
/// the highest percentile that still has ten beyond it (1 - 10/N), and the
/// median when fewer than 20 samples leave no such percentile above it.
[[nodiscard]] inline double tail_latency(const std::vector<double>& v) {
  if (v.size() < 20) return median(v);
  const double n = static_cast<double>(v.size());
  return percentile(v, std::min(0.95, 1.0 - 10.0 / n));
}

/// Peak resident set size of this process so far, in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

/// Number of hardware threads, capped at the benchmark's 4-thread budget.
[[nodiscard]] std::size_t bench_threads();

/// SplitMix64: the benchmark's one seeded generator (inputs depend only on
/// --seed, never on the library's RNG).
class SplitMix64 {
public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }

private:
  std::uint64_t state_;
};

// --- workloads (each returns the metrics of the mode opts.trace selects) ---
[[nodiscard]] RunResult run_sweep_workload(const Options& opts, bool ca);
[[nodiscard]] RunResult run_large_solve(const Options& opts);
[[nodiscard]] RunResult run_serve_open(const Options& opts);

/// Smoke mode: every workload at a tiny size, plus one deliberately
/// corrupted output per workload that the output checks must reject.
/// Returns the number of smoke failures (0 = pass).
[[nodiscard]] int run_smoke(const Options& opts);

/// The corrupted-output halves of the smoke test: each feeds a real tiny
/// output and a deliberately broken copy to the checks and counts the
/// cases where a check accepted the broken copy or rejected the real one.
[[nodiscard]] int smoke_solver_checks(const Options& opts);
[[nodiscard]] int smoke_serve_checks(const Options& opts);

} // namespace sdcbench
