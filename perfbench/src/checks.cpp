#include "checks.hpp"

#include <cmath>
#include <string>

namespace sdcbench {

std::size_t check_sweep(const sdcgmres::experiment::SweepResult& r,
                        double tol_abs,
                        std::optional<std::size_t> double_baseline,
                        RunResult& out) {
  if (!r.baseline_converged) {
    out.fail("sweep baseline did not converge");
    return r.points.size();
  }
  if (double_baseline &&
      r.baseline_outer > *double_baseline + kFloatOuterSlack) {
    out.fail("float baseline needs " + std::to_string(r.baseline_outer) +
             " outer iterations, double " + std::to_string(*double_baseline));
    return r.points.size();
  }
  const std::size_t limit = kOuterEnvelopeFactor * r.baseline_outer;
  std::size_t bad = 0;
  for (const sdcgmres::experiment::SweepPoint& p : r.points) {
    const bool ok = p.converged && std::isfinite(p.residual_norm) &&
                    p.residual_norm <= tol_abs && p.outer_iterations <= limit;
    if (!ok) {
      ++bad;
      out.fail("sweep site " + std::to_string(p.aggregate_iteration) +
               ": converged=" + std::to_string(p.converged) +
               " residual=" + std::to_string(p.residual_norm) +
               " outer=" + std::to_string(p.outer_iterations));
    }
  }
  return bad;
}

bool check_solution(const sdcgmres::sparse::CsrMatrix& A,
                    const sdcgmres::la::Vector& b,
                    const sdcgmres::la::Vector& x,
                    const sdcgmres::solver::SolveReport& report, double tol,
                    RunResult& out) {
  const auto& rp = A.row_ptr();
  const auto& ci = A.col_idx();
  const auto& v = A.values();
  double rr = 0.0;
  double bb = 0.0;
  for (std::size_t i = 0; i < A.rows(); ++i) {
    double ax = 0.0;
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) ax += v[k] * x[ci[k]];
    const double r = b[i] - ax;
    rr += r * r;
    bb += b[i] * b[i];
  }
  const double residual = std::sqrt(rr);
  // 1e-6 relative slack absorbs only this loop's own rounding.
  const bool ok = report.converged() && std::isfinite(residual) &&
                  residual <= tol * std::sqrt(bb) * (1.0 + 1e-6);
  if (!ok) {
    out.fail("solve: converged=" + std::to_string(report.converged()) +
             " ||b-Ax||=" + std::to_string(residual) +
             " tol*||b||=" + std::to_string(tol * std::sqrt(bb)));
  }
  return ok;
}

void check_repeat(const std::vector<Counts>& counts, const char* what,
                  RunResult& out) {
  for (std::size_t i = 1; i < counts.size(); ++i) {
    if (!(counts[i] == counts[0])) {
      out.fail(std::string(what) + " " + std::to_string(i) +
               ": deterministic counts differ from the first repeat "
               "(syncs/streams/columns/bytes/inner/outer)");
    }
  }
}

} // namespace sdcbench
