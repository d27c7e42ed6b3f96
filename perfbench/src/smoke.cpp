/// \file smoke.cpp
/// \brief Smoke mode: every workload at a tiny size, untraced and traced,
/// plus the corrupted-output cases that prove the checks can fail.

#include <iostream>
#include <string>

#include "common.hpp"

namespace sdcbench {

int run_smoke(const Options& base) {
  int failures = 0;
  for (const char* workload :
       {"fig3-sweep", "sweep-ca", "large-solve", "serve-open"}) {
    for (const bool trace : {false, true}) {
      Options opts = base;
      opts.workload = workload;
      opts.trace = trace;
      opts.seconds = 2.0;
      const std::string w = workload;
      const RunResult r = w == "fig3-sweep"    ? run_sweep_workload(opts, false)
                          : w == "sweep-ca"    ? run_sweep_workload(opts, true)
                          : w == "large-solve" ? run_large_solve(opts)
                                               : run_serve_open(opts);
      const bool ok = r.correct && r.failed == 0 && r.attempted > 0;
      std::cout << "smoke: " << w << " trace=" << trace
                << (ok ? " ok" : " FAILED") << " (" << r.attempted
                << " operations)\n";
      for (const std::string& p : r.problems) std::cout << "  " << p << "\n";
      failures += ok ? 0 : 1;
    }
  }
  failures += smoke_solver_checks(base);
  failures += smoke_serve_checks(base);
  return failures;
}

} // namespace sdcbench
