#pragma once
/// \file fcg.hpp
/// \brief Flexible Conjugate Gradients and the FT-CG nested solver.
///
/// The paper (Section VI-A) names flexible CG [Golub & Ye 1999] as an
/// alternative outer iteration and leaves experimenting with it to future
/// work; this module implements that experiment.  FCG is CG for SPD A
/// with a preconditioner that may change every iteration; the flexible
/// Polak-Ribiere-style beta
///     beta_k = <z_{k+1}, r_{k+1} - r_k> / <z_k, r_k>
/// keeps the search directions usefully conjugate when M_k varies
/// (Notay's formulation), where plain Fletcher-Reeves would not.
///
/// FT-CG mirrors FT-GMRES: a reliable FCG outer iteration whose
/// "preconditioner" is an unreliable fixed-effort inner GMRES solve, with
/// the same reliable-phase sanitization of impossible inner output.
/// Unlike FT-GMRES it requires SPD A, and its failure mode under
/// non-SPD-consistent corruption is direction breakdown (p^T A p <= 0),
/// which it reports loudly.

#include <cstddef>
#include <vector>

#include "krylov/counters.hpp"
#include "krylov/gmres.hpp"
#include "krylov/hooks.hpp"
#include "krylov/operator.hpp"
#include "krylov/precond.hpp"
#include "la/vector.hpp"
#include "sparse/csr.hpp"

namespace sdcgmres::krylov {

// FCG's terminal states (converged / budget exhausted / direction
// breakdown p^T A p <= 0) use the shared SolveStatus vocabulary
// (status.hpp); the breakdown case is SolveStatus::Indefinite.

/// Configuration of an FCG solve.
struct FcgOptions {
  std::size_t max_outer = 500; ///< outer iteration budget
  double tol = 1e-8;           ///< relative residual target (vs ||b||)
  bool sanitize_preconditioner_output = true; ///< reliable-phase filter:
                               ///< Inf/NaN/zero z is replaced by r
  bool verify_with_explicit_residual = true;  ///< on recurrence-residual
                               ///< convergence, recompute b - A*x and keep
                               ///< iterating if it disagrees
};

/// Result of an FCG solve (iterations counts outer iterations; FCG counts
/// its own global_syncs and sanitized_outputs).
struct FcgResult : LevelCounters {
  la::Vector x;
  SolveStatus status = SolveStatus::MaxIterations;
  double residual_norm = 0.0; ///< explicit ||b - A*x|| at exit
  std::vector<double> residual_history;
};

/// Solve SPD A x = b with flexible preconditioner \p M from \p x0.
[[nodiscard]] FcgResult fcg(const LinearOperator& A, const la::Vector& b,
                            const la::Vector& x0, const FcgOptions& opts,
                            FlexiblePreconditioner& M);

/// Options of the nested FT-CG solver (FCG outer + inner GMRES guest).
struct FtCgOptions {
  GmresOptions inner; ///< fixed-effort unreliable inner solve
  FcgOptions outer;

  FtCgOptions() {
    inner.max_iters = 25;
    inner.tol = 0.0;
  }
};

/// Result of an FT-CG solve.
struct FtCgResult : NestedCounters {
  la::Vector x;
  SolveStatus status = SolveStatus::MaxIterations;
  double residual_norm = 0.0;
  std::vector<double> residual_history;
};

/// Solve SPD A x = b with FT-CG from a zero initial guess.
/// \param inner_hook observes/corrupts inner solves only.
[[nodiscard]] FtCgResult ft_cg(const LinearOperator& A, const la::Vector& b,
                               const FtCgOptions& opts,
                               ArnoldiHook* inner_hook = nullptr);

/// Convenience overload for CSR matrices.
[[nodiscard]] FtCgResult ft_cg(const sparse::CsrMatrix& A, const la::Vector& b,
                               const FtCgOptions& opts,
                               ArnoldiHook* inner_hook = nullptr);

} // namespace sdcgmres::krylov
