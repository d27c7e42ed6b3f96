#pragma once
/// \file cg.hpp
/// \brief Conjugate Gradient, the SPD baseline the paper contrasts with.
///
/// Table I notes the Poisson matrix "could be solved using the Conjugate
/// Gradient method" while mult_dcop_03 could not; CG is provided both as
/// that baseline and as an independent cross-check of GMRES solutions in
/// the tests.

#include <cstddef>
#include <vector>

#include "krylov/counters.hpp"
#include "krylov/operator.hpp"
#include "krylov/precond.hpp"
#include "la/vector.hpp"
#include "sparse/csr.hpp"

namespace sdcgmres::krylov {

/// Configuration of a CG solve.
struct CgOptions {
  std::size_t max_iters = 1000;
  double tol = 1e-8;        ///< relative residual target (vs ||b||)
  const Preconditioner* precond = nullptr; ///< optional SPD preconditioner
};

/// Result of a CG solve.  Counts one operator apply per A*v and one global
/// sync per inner product or norm: 3 + 3k syncs and 1 + k applies for k
/// completed iterations.
struct CgResult : LevelCounters {
  la::Vector x;
  bool converged = false;
  bool indefinite = false;  ///< p^T A p <= 0 observed: A not SPD
  double residual_norm = 0.0;
  std::vector<double> residual_history;
};

/// Solve SPD system A x = b from initial guess \p x0.
[[nodiscard]] CgResult cg(const LinearOperator& A, const la::Vector& b,
                          const la::Vector& x0, const CgOptions& opts);

/// Convenience overload for CSR matrices with a zero initial guess.
[[nodiscard]] CgResult cg(const sparse::CsrMatrix& A, const la::Vector& b,
                          const CgOptions& opts);

} // namespace sdcgmres::krylov
