#pragma once
/// \file checks.hpp
/// \brief Output checks.  They test properties the paper and the library
/// guarantee -- convergence to the stated tolerance, a bounded outer-
/// iteration increase, byte-identical service results -- not bit patterns
/// of a particular reduction order, so a change that legitimately
/// reorders floating-point work still passes.

#include <cstddef>
#include <optional>
#include <vector>

#include "common.hpp"
#include "experiment/sweep.hpp"
#include "la/vector.hpp"
#include "solver/solver.hpp"
#include "sparse/csr.hpp"

namespace sdcbench {

/// Outer-iteration envelope of a faulty sweep point: at most this many
/// times the failure-free count.  The paper's FT-GMRES claim is that a
/// single SDC costs extra outer iterations but never convergence; the
/// repository documents no tighter bound for class-1 sweeps (the Fig. 3a
/// sweep measures at most +4 over a baseline of 10).
inline constexpr std::size_t kOuterEnvelopeFactor = 2;

/// Extra failure-free outer iterations the float inner plane may need
/// over the all-double solve (FLOAT_OUTER_SLACK, documented in README and
/// pinned by tests/krylov_mixed_precision_test.cpp).
inline constexpr std::size_t kFloatOuterSlack = 2;

/// Deterministic counts of one operation, compared exactly across
/// repeats within a run.
struct Counts {
  std::size_t global_syncs = 0;
  std::size_t matrix_streams = 0;
  std::size_t operand_columns = 0;
  std::size_t bytes_streamed = 0;
  std::size_t inner = 0; ///< inner iterations (sweeps: inner operator
                         ///< applies, SweepResult::inner_operand_columns)
  std::size_t outer = 0; ///< outer iterations (sweeps: summed over points)

  bool operator==(const Counts&) const = default;
};

/// Check a sweep: the baseline converged, every point converged with an
/// explicit residual <= \p tol_abs, and every point's outer count stays in
/// the envelope.  With \p double_baseline (float inner plane), the
/// baseline must also stay within kFloatOuterSlack of it.  Returns the
/// number of failing points (all of them when the baseline fails).
std::size_t check_sweep(const sdcgmres::experiment::SweepResult& r,
                        double tol_abs,
                        std::optional<std::size_t> double_baseline,
                        RunResult& out);

/// Check one solve: converged, and ||b - A x||_2 recomputed here with the
/// benchmark's own CSR loop is <= tol * ||b||_2.
bool check_solution(const sdcgmres::sparse::CsrMatrix& A,
                    const sdcgmres::la::Vector& b,
                    const sdcgmres::la::Vector& x,
                    const sdcgmres::solver::SolveReport& report, double tol,
                    RunResult& out);

/// Exact-count repeat check: every entry must equal the first.
void check_repeat(const std::vector<Counts>& counts, const char* what,
                  RunResult& out);

} // namespace sdcbench
