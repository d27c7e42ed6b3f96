#pragma once
/// \file arnoldi.hpp
/// \brief The Arnoldi process (basis + Hessenberg matrix) as one GMRES
/// engine cycle.
///
/// Used directly by the property tests (orthonormality, the Arnoldi
/// relation A Q_k = Q_{k+1} H_k, and the paper's Eq. 3 bound) and by the
/// Fig. 2 structure and detector-bound benchmarks.  arnoldi() runs
/// GmresEngine for one cycle of m fixed iterations (tol = 0) from a zero
/// initial guess, so the residual is v0, and reads each Hessenberg column
/// back after every step: the hook sees exactly the event stream a GMRES
/// inner solve produces.

#include <cstddef>

#include "krylov/hooks.hpp"
#include "krylov/operator.hpp"
#include "krylov/orthogonalize.hpp"
#include "la/dense_matrix.hpp"
#include "la/krylov_basis.hpp"
#include "la/vector.hpp"

namespace sdcgmres::krylov {

/// Result of running the Arnoldi process for up to m steps.
struct ArnoldiResult {
  la::KrylovBasis q;      ///< k+1 orthonormal basis columns (k after a
                          ///< breakdown; contiguous, column-major;
                          ///< q.col(j) views column j)
  la::DenseMatrix h;      ///< (m+1) x m upper Hessenberg; columns past k
                          ///< stay zero
  std::size_t steps = 0;  ///< k, the number of completed steps
  bool breakdown = false; ///< happy breakdown occurred at step `steps`
};

/// Run m >= 1 steps of Arnoldi with start vector \p v0 (need not be
/// normalized).  Throws std::invalid_argument for a non-square operator,
/// a size mismatch or a zero start vector.  The engine's rules apply:
///   - happy breakdown stops the process when the subdiagonal falls below
///     \p breakdown_tol times ||A q_j|| (relative, not absolute);
///   - a column the hook aborts on (coefficient, subdiagonal or
///     whole-iteration check) is dropped: steps counts the columns
///     accepted before the abort.
[[nodiscard]] ArnoldiResult arnoldi(
    const LinearOperator& A, const la::Vector& v0, std::size_t m,
    Orthogonalization ortho = Orthogonalization::MGS,
    ArnoldiHook* hook = nullptr, double breakdown_tol = 1e-14);

} // namespace sdcgmres::krylov
