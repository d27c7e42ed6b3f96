/// \file sdc_run.cpp
/// \brief The config-driven scenario runner CLI: one spec string, one
/// experiment -- no new .cpp file per workload.
///
/// Usage:
///   sdc_run [flags] key=value [key=value ...]
///
/// All non-flag tokens are joined into one scenario spec (see
/// src/experiment/scenario.hpp for the key vocabulary), so quoting is
/// optional:
///
///   # failure-free FT-GMRES solve of the paper's Poisson problem
///   sdc_run solver=ft_gmres matrix=poisson n=40
///
///   # one Fig. 3a cell: class-1 fault at every site, first MGS step
///   sdc_run matrix=poisson n=40 inner=25 sweep=1 fault=class1 position=first
///
///   # the same sweep guarded by the |h| <= ||A||_F detector, 2 workers
///   sdc_run matrix=poisson n=40 inner=25 sweep=1 fault=class1 \
///           detector=bound response=abort threads=2
///
///   # 2 workers, each solving 4 injection sites in lockstep (multi-RHS
///   # FT-GMRES: one matrix stream per outer iteration per block)
///   sdc_run matrix=poisson n=40 inner=25 sweep=1 fault=class1 \
///           --threads 2 --batch 4
///
/// Flags:
///   --list              print every registered solver/preconditioner/
///                       matrix/fault-model/detector/backend name and exit
///   --json FILE         also write a machine-readable result to FILE
///   --threads N         shorthand for the threads=N spec key (sweep
///                       worker threads; 0 = all hardware threads)
///   --batch N           shorthand for the batch=N spec key (injection
///                       sites solved in lockstep per worker)
///   --workers N         shorthand for the workers=N spec key (worker
///                       PROCESSES for the crash-tolerant sharded sweep;
///                       needs journal=<path>)
///   --worker-timeout S  shorthand for the worker_timeout=S spec key
///                       (per-attempt worker deadline in seconds)
///   --journal PATH      journal the sweep at PATH WITHOUT entering the
///                       spec (a runtime seam, like the sdc_serve
///                       scheduler uses): the result JSON's spec field --
///                       and hence its bytes -- match a journal-free run
///   --resume            resume --journal's path (seam-level resume=1)
///   --assert-identical  (sweep mode) rerun the sweep serially, in
///                       lockstep blocks of one, unsharded (threads=1
///                       batch=1 workers=1, no journal) and fail with exit
///                       code 2 unless the result is identical -- the
///                       determinism check CI runs: lockstep batch=B
///                       against batch-of-one
///
/// Exit code: 0 on success (converged solve / identical sweep), 1 on a
/// non-converged solve or spec error, 2 on a sweep determinism mismatch.

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "experiment/report.hpp"
#include "experiment/scenario.hpp"
#include "solver/registry.hpp"

using namespace sdcgmres;

namespace {

void print_registries() {
  const auto print = [](const char* what, const std::vector<std::string>& k) {
    std::cout << what << ":";
    for (const std::string& name : k) std::cout << ' ' << name;
    std::cout << '\n';
  };
  print("solvers", solver::solver_registry().keys());
  print("preconditioners", solver::preconditioner_registry().keys());
  print("matrices", solver::matrix_registry().keys());
  print("fault models", solver::fault_model_registry().keys());
  print("detectors", solver::detector_registry().keys());
  print("recovery modes", solver::recovery_registry().keys());
  print("backends", solver::backend_registry().keys());
}

} // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool assert_identical = false;
  experiment::ScenarioSeams seams;
  std::ostringstream spec_text;
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    if (tok == "--list") {
      print_registries();
      return 0;
    }
    if (tok == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "--json requires a value\n";
        return 1;
      }
      json_path = argv[++i];
      continue;
    }
    if (tok == "--journal") {
      if (i + 1 >= argc) {
        std::cerr << "--journal requires a value\n";
        return 1;
      }
      seams.journal = argv[++i];
      continue;
    }
    if (tok == "--resume") {
      seams.resume = true;
      continue;
    }
    if (tok == "--threads" || tok == "--batch" || tok == "--workers" ||
        tok == "--worker-timeout") {
      if (i + 1 >= argc) {
        std::cerr << tok << " requires a value\n";
        return 1;
      }
      // Flag shorthand for the matching spec key; appended tokens win, so
      // the flag overrides an earlier key=value and vice versa.
      const std::string key =
          tok == "--worker-timeout" ? "worker_timeout" : tok.substr(2);
      spec_text << key << '=' << argv[++i] << ' ';
      continue;
    }
    if (tok == "--assert-identical") {
      assert_identical = true;
      continue;
    }
    spec_text << tok << ' ';
  }

  try {
    const auto spec = experiment::ScenarioSpec::parse(spec_text.str());
    if (seams.resume && seams.journal.empty()) {
      std::cerr << "sdc_run: --resume needs --journal PATH\n";
      return 1;
    }
    experiment::ScenarioResult result =
        experiment::run_scenario(spec, seams);
    std::cout << "spec:   " << result.spec_text << "\n"
              << "matrix: " << result.matrix_name << " (n = " << result.n
              << ", nnz = " << result.nnz << ")\n";

    if (!result.is_sweep) {
      std::cout << result.solver_name << ": "
                << solver::to_string(result.report.status) << " in "
                << result.report.iterations << " iterations, residual "
                << result.report.residual_norm << ", global syncs "
                << result.report.global_syncs << "\n";
      if (result.report.total_inner_iterations > 0) {
        std::cout << "inner iterations: "
                  << result.report.total_inner_iterations << "\n";
      }
      if (spec.get("fault", "none") != "none") {
        std::cout << "fault " << (result.injected ? "fired" : "did not fire")
                  << ", detector "
                  << (result.detected ? "triggered" : "silent") << "\n";
      }
      if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
          std::cerr << "sdc_run: cannot write " << json_path << "\n";
          return 1;
        }
        experiment::write_solve_json(out, result);
      }
      return result.report.converged() ? 0 : 1;
    }

    experiment::print_sweep_summary(std::cout, "sweep", result.sweep);
    if (result.sharded) {
      std::cout << "shard: ranges=" << result.shard.ranges
                << " worker_crashes=" << result.shard.worker_crashes
                << " timeouts=" << result.shard.timeouts
                << " ranges_requeued=" << result.shard.ranges_requeued << "\n";
    }

    bool identical = true;
    if (assert_identical) {
      // Determinism contract check: a threaded, batched and/or sharded
      // sweep must be bitwise identical to the in-process serial sweep
      // of batch-of-one solves (same points, same doubles).
      experiment::ScenarioSpec serial = spec;
      serial.set("threads", "1");
      serial.set("batch", "1");
      serial.set("workers", "1");
      serial.set("journal", "");
      serial.set("resume", "0");
      const experiment::SweepResult reference =
          experiment::run_injection_sweep(serial);
      identical =
          reference.points == result.sweep.points &&
          reference.baseline_outer == result.sweep.baseline_outer &&
          reference.baseline_total_inner == result.sweep.baseline_total_inner &&
          reference.baseline_global_syncs == result.sweep.baseline_global_syncs;
      std::cout << "identical_results (threads=" << spec.get("threads", "1")
                << " batch=" << spec.get("batch", "1") << " workers="
                << spec.get("workers", "1")
                << " vs serial batch=1): " << (identical ? "true" : "false")
                << "\n";
    }
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) {
        std::cerr << "sdc_run: cannot write " << json_path << "\n";
        return 1;
      }
      experiment::write_sweep_json(out, result, assert_identical, identical);
    }
    return identical ? 0 : 2;
  } catch (const std::exception& e) {
    std::cerr << "sdc_run: " << e.what() << "\n";
    return 1;
  }
}
