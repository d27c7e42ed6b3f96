#include "krylov/fcg.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "krylov/ft_gmres.hpp"
#include "la/blas1.hpp"

namespace sdcgmres::krylov {

FcgResult fcg(const LinearOperator& A, const la::Vector& b,
              const la::Vector& x0, const FcgOptions& opts,
              FlexiblePreconditioner& M) {
  if (A.rows() != A.cols()) {
    throw std::invalid_argument("fcg: operator must be square");
  }
  if (b.size() != A.rows() || x0.size() != A.cols()) {
    throw std::invalid_argument("fcg: vector size mismatch");
  }
  if (opts.max_outer == 0) {
    throw std::invalid_argument("fcg: max_outer must be positive");
  }

  FcgResult result;
  result.x = x0;
  const std::size_t n = A.rows();
  ++result.global_syncs; // ||b||
  const double bnorm = la::nrm2(b);
  const double abs_target = opts.tol * (bnorm > 0.0 ? bnorm : 1.0);

  la::Vector r(n);
  A.apply(result.x, r);
  la::waxpby(1.0, b, -1.0, r, r);
  ++result.global_syncs; // ||r0||
  result.residual_norm = la::nrm2(r);
  if (result.residual_norm <= abs_target) {
    result.status = SolveStatus::Converged;
    return result;
  }

  const auto sanitize = [&](la::Vector& z) {
    if (!opts.sanitize_preconditioner_output) return;
    ++result.global_syncs; // finiteness/zero screen of z
    if (!la::all_finite(z) || la::nrm2(z) == 0.0) {
      la::copy(r, z); // identity-preconditioner fallback
      ++result.sanitized_outputs;
    }
  };

  la::Vector z(n);
  M.apply(r, 0, z); // unreliable phase
  sanitize(z);
  la::Vector p = z;
  la::Vector ap(n);
  la::Vector r_prev(n);
  ++result.global_syncs; // <r, z>
  double rz = la::dot(r, z);

  for (std::size_t k = 0; k < opts.max_outer; ++k) {
    A.apply(p, ap);
    ++result.global_syncs; // p^T A p
    const double pap = la::dot(p, ap);
    if (!(pap > 0.0)) { // catches <= 0 and NaN
      result.status = SolveStatus::Indefinite;
      return result;
    }
    const double alpha = rz / pap;
    la::copy(r, r_prev);
    la::axpy(alpha, p, result.x);
    la::axpy(-alpha, ap, r);
    ++result.global_syncs; // ||r||
    result.residual_norm = la::nrm2(r);
    result.residual_history.push_back(result.residual_norm);
    result.iterations = k + 1;

    if (result.residual_norm <= abs_target) {
      if (!opts.verify_with_explicit_residual) {
        result.status = SolveStatus::Converged;
        return result;
      }
      // Reliable phase: trust only the explicit residual.
      la::Vector true_r(n);
      A.apply(result.x, true_r);
      la::waxpby(1.0, b, -1.0, true_r, true_r);
      ++result.global_syncs; // explicit ||b - A*x||
      const double true_norm = la::nrm2(true_r);
      if (true_norm <= abs_target) {
        result.residual_norm = true_norm;
        result.status = SolveStatus::Converged;
        return result;
      }
      la::copy(true_r, r); // resynchronize the recurrence and continue
      result.residual_norm = true_norm;
    }

    // Unreliable phase: apply the (flexible) preconditioner.
    M.apply(r, k + 1, z);
    sanitize(z);

    // Flexible (Polak-Ribiere style) beta keeps directions useful when
    // M changes between iterations; plain CG's <z,r>/<z_prev,r_prev>
    // assumes a fixed M.
    la::Vector dr = r;
    la::axpy(-1.0, r_prev, dr);
    ++result.global_syncs; // <z, r - r_prev>
    const double zdr = la::dot(z, dr);
    const double beta = (rz != 0.0) ? zdr / rz : 0.0;
    la::waxpby(1.0, z, beta, p, p);
    ++result.global_syncs; // <r, z>
    rz = la::dot(r, z);
    if (!(std::abs(rz) > 0.0) || !std::isfinite(rz)) {
      // <r, z> collapsed; restart the direction from the current residual
      // preconditioned output (equivalent to a fresh CG start).
      la::copy(z, p);
      ++result.global_syncs; // <r, z>
      rz = la::dot(r, z);
      if (rz == 0.0) {
        ++result.global_syncs; // <r, r>
        rz = la::dot(r, r); // last resort: steepest descent
      }
    }
  }
  result.status = result.residual_norm <= abs_target ? SolveStatus::Converged
                                                     : SolveStatus::MaxIterations;
  return result;
}

FtCgResult ft_cg(const LinearOperator& A, const la::Vector& b,
                 const FtCgOptions& opts, ArnoldiHook* inner_hook) {
  InnerGmresPreconditioner inner(A, opts.inner, inner_hook);
  FcgResult outer = fcg(A, b, la::Vector(A.cols()), opts.outer, inner);

  FtCgResult result;
  static_cast<NestedCounters&>(result) = inner.nested_counters(outer);
  result.x = std::move(outer.x);
  result.status = outer.status;
  result.residual_norm = outer.residual_norm;
  result.residual_history = std::move(outer.residual_history);
  return result;
}

FtCgResult ft_cg(const sparse::CsrMatrix& A, const la::Vector& b,
                 const FtCgOptions& opts, ArnoldiHook* inner_hook) {
  const CsrOperator op(A);
  return ft_cg(op, b, opts, inner_hook);
}

} // namespace sdcgmres::krylov
