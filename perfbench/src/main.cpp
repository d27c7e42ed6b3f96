/// \file main.cpp
/// \brief sdcbench: the repository benchmark program (built and invoked by
/// perfbench/run.py).
///
///   sdcbench --workload NAME --seed N --seconds S --trace 0|1
///            --workdir DIR [--commit REV]
///   sdcbench --smoke --workdir DIR
///   sdcbench --list-metrics
///
/// Prints a stamp line, a human-readable metric table, and as the last
/// line the result object {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common.hpp"

namespace sdcbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced runs), identical on every workload.  One
/// operation is an injection site (sweeps, throughput) or a full sweep
/// (sweeps, latency), a solve (large-solve), or a job (serve-open).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"throughput_per_s", "1/s"},
    {"latency_p50_s", "s"},    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics (traced runs).  A layer idle on a workload reads 0.
constexpr MetricDef kPerLayer[] = {
    {"gen.build_problem_s", "s"},
    {"sparse.frobenius_s", "s"},
    {"krylov.backend_s", "s"},
    {"krylov.apply_s", "s"},
    {"krylov.apply_calls", "count"},
    {"krylov.matrix_streams", "count"},
    {"krylov.operand_columns", "count"},
    {"krylov.bytes_streamed", "bytes"},
    {"krylov.apply_gbs", "GB/s"},
    {"krylov.traced_solve_s", "s"},
    {"krylov.matvec_s", "s"},
    {"krylov.ortho_s", "s"},
    {"krylov.block_commit_s", "s"},
    {"krylov.inner_s", "s"},
    {"krylov.inner_other_s", "s"},
    {"krylov.outer_s", "s"},
    {"krylov.inner_iterations", "count"},
    {"krylov.outer_iterations", "count"},
    {"krylov.global_syncs", "count"},
    {"krylov.syncs_per_inner_iteration", "ratio"},
    {"krylov.mixed_bytes_streamed", "bytes"},
    {"sdc.hook_s", "s"},
    {"sdc.detector_checks", "count"},
    {"sdc.injected_runs", "count"},
    {"sdc.detected_runs", "count"},
    {"sdc.detected_per_injected", "ratio"},
    {"experiment.baseline_s", "s"},
    {"experiment.sites", "count"},
    {"experiment.outer_iterations", "count"},
    {"la.reduction_bitwise_repeat", "bool"},
    {"service.job_latency_p95_s", "s"},
    {"service.submit_s", "s"},
    {"service.queue_wait_s", "s"},
    {"service.run_s", "s"},
    {"service.backlog_max", "count"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.cache_misses", "count"},
    {"service.journal_bytes", "bytes"},
    {"bench.generator_lag_max_s", "s"},
    {"bench.tracing_overhead_frac", "fraction"},
    {"bench.error_frac", "fraction"},
    {"bench.representative_site", "index"},
};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_stamp(const Options& opts, const RunResult& r) {
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
  int omp_max = 1;
#ifdef _OPENMP
  omp_max = omp_get_max_threads();
#endif
  std::cout << "{\"stamp\": {\"workload\": " << json_str(opts.workload)
            << ", \"seed\": " << opts.seed << ", \"trace\": " << opts.trace
            << ", \"seconds\": " << num(opts.seconds)
            << ", \"cpu_model\": " << json_str(cpu_model())
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"bench_threads\": " << bench_threads()
            << ", \"l2_bytes\": " << sysconf(_SC_LEVEL2_CACHE_SIZE)
            << ", \"l3_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE)
            << ", \"compiler\": " << json_str(SDCBENCH_COMPILER)
            << ", \"flags\": " << json_str(SDCBENCH_FLAGS)
            << ", \"build_type\": " << json_str(SDCBENCH_BUILD_TYPE)
            << ", \"omp_num_threads\": "
            << json_str(omp_env != nullptr ? omp_env : "unset")
            << ", \"omp_max_threads\": " << omp_max
            << ", \"commit\": " << json_str(opts.commit)
            << ", \"working_set_bytes\": {";
  for (std::size_t i = 0; i < r.working_set.size(); ++i) {
    std::cout << (i ? ", " : "") << json_str(r.working_set[i].first) << ": "
              << num(r.working_set[i].second);
  }
  std::cout << "}}}\n";
}

/// Issue-facing names of the end-to-end metrics on each workload.
std::string alias(const std::string& workload, const std::string& metric) {
  const bool sweep = workload == "fig3-sweep" || workload == "sweep-ca";
  if (metric == "throughput_per_s" && sweep) return "sweep_sites_per_s";
  if (metric == "latency_p50_s" && workload == "large-solve") return "solve_s";
  if (metric == "latency_p50_s" && sweep) return "sweep_s";
  if (metric == "latency_p50_s" && workload == "serve-open") {
    return "job_latency_p50_s";
  }
  return "";
}

int print_result(const Options& opts, RunResult& r) {
  const double error_frac =
      r.attempted > 0 ? static_cast<double>(r.failed) /
                            static_cast<double>(r.attempted)
                      : 1.0;
  if (opts.trace) r.metric("bench.error_frac", error_frac);
  print_stamp(opts, r);
  for (const std::string& p : r.problems) {
    std::cout << "# CHECK FAILED: " << p << "\n";
  }
  std::string json = "{\"correct\": ";
  json += r.correct && r.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted) +
          ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  const std::span<const MetricDef> table =
      opts.trace ? std::span<const MetricDef>(kPerLayer)
                 : std::span<const MetricDef>(kEndToEnd);
  bool first = true;
  for (const MetricDef& m : table) {
    const auto it = r.metrics.find(m.name);
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    const std::string a = alias(opts.workload, m.name);
    std::cout << "# " << m.name << " = " << num(v) << " " << m.unit
              << (a.empty() ? "" : "   (" + a + ")") << "\n";
    json += std::string(first ? "" : ", ") + json_str(m.name) +
            ": {\"value\": " + num(v) + ", \"unit\": " + json_str(m.unit) + "}";
    first = false;
  }
  for (const auto& [name, value] : r.metrics) {
    bool known = false;
    for (const MetricDef& m : table) {
      known = known || name == m.name;
    }
    if (!known) throw std::logic_error("metric not in the table: " + name);
  }
  for (const std::string& n : r.notes) std::cout << "# " << n << "\n";
  std::cout << "# op_seconds =";
  for (const double t : r.op_seconds) std::cout << " " << num(t);
  std::cout << "\n# error_frac = " << num(error_frac) << " fraction ("
            << r.failed << " of " << r.attempted << " operations failed)\n";
  std::cout << json << "}}" << std::endl;
  return 0;
}

void list_metrics() {
  const auto table = [](std::span<const MetricDef> defs) {
    std::string out = "[";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      out += std::string(i ? ", " : "") + "{\"name\": " +
             json_str(defs[i].name) + ", \"unit\": " + json_str(defs[i].unit) +
             "}";
    }
    return out + "]";
  };
  std::cout << "{\"end_to_end\": " << table(kEndToEnd)
            << ", \"per_layer\": " << table(kPerLayer) << "}\n";
}

} // namespace

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

std::size_t bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, std::min<std::size_t>(4, hw));
}

} // namespace sdcbench

int main(int argc, char** argv) {
  using namespace sdcbench;
  Options opts;
  bool smoke = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") opts.workload = value();
      else if (a == "--seed") opts.seed = std::stoull(value());
      else if (a == "--seconds") opts.seconds = std::stod(value());
      else if (a == "--trace") opts.trace = value() == "1";
      else if (a == "--workdir") opts.workdir = value();
      else if (a == "--commit") opts.commit = value();
      else if (a == "--smoke") smoke = true;
      else if (a == "--list-metrics") {
        list_metrics();
        return 0;
      }
      else throw std::invalid_argument("unknown argument " + a);
    }
    if (opts.workdir.empty()) {
      throw std::invalid_argument("--workdir is required");
    }
    if (smoke) {
      opts.tiny = true;
      const int failures = run_smoke(opts);
      std::cout << (failures == 0 ? "smoke: PASS" : "smoke: FAIL") << "\n";
      return failures == 0 ? 0 : 1;
    }
    RunResult r;
    if (opts.workload == "fig3-sweep") r = run_sweep_workload(opts, false);
    else if (opts.workload == "sweep-ca") r = run_sweep_workload(opts, true);
    else if (opts.workload == "large-solve") r = run_large_solve(opts);
    else if (opts.workload == "serve-open") r = run_serve_open(opts);
    else {
      throw std::invalid_argument("unknown workload '" + opts.workload + "'");
    }
    return print_result(opts, r);
  } catch (const std::exception& e) {
    std::cerr << "sdcbench: " << e.what() << "\n";
    return 2;
  }
}
