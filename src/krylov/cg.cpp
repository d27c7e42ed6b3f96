#include "krylov/cg.hpp"

#include <cmath>
#include <stdexcept>

#include "la/blas1.hpp"

namespace sdcgmres::krylov {

CgResult cg(const LinearOperator& A, const la::Vector& b, const la::Vector& x0,
            const CgOptions& opts) {
  if (A.rows() != A.cols()) {
    throw std::invalid_argument("cg: operator must be square");
  }
  if (b.size() != A.rows() || x0.size() != A.cols()) {
    throw std::invalid_argument("cg: vector size mismatch");
  }
  const std::size_t n = A.rows();
  CgResult result;
  result.x = x0;

  la::Vector r(n);
  ++result.operator_applies;
  A.apply(result.x, r);
  la::waxpby(1.0, b, -1.0, r, r);
  ++result.global_syncs; // ||b||
  const double bnorm = la::nrm2(b);
  const double abs_target = opts.tol * (bnorm > 0.0 ? bnorm : 1.0);

  la::Vector z(n);
  if (opts.precond != nullptr) {
    opts.precond->apply(r, z);
  } else {
    la::copy(r, z);
  }
  la::Vector p = z;
  la::Vector ap(n);
  ++result.global_syncs; // <r, z>
  double rz = la::dot(r, z);
  ++result.global_syncs; // ||r0||
  result.residual_norm = la::nrm2(r);

  for (std::size_t it = 0; it < opts.max_iters; ++it) {
    if (result.residual_norm <= abs_target) {
      result.converged = true;
      return result;
    }
    ++result.operator_applies;
    A.apply(p, ap);
    ++result.global_syncs; // p^T A p
    const double pap = la::dot(p, ap);
    if (pap <= 0.0 || !std::isfinite(pap)) {
      result.indefinite = true;
      return result;
    }
    const double alpha = rz / pap;
    la::axpy(alpha, p, result.x);
    la::axpy(-alpha, ap, r);
    ++result.global_syncs; // ||r||
    result.residual_norm = la::nrm2(r);
    result.residual_history.push_back(result.residual_norm);
    result.iterations = it + 1;

    if (opts.precond != nullptr) {
      opts.precond->apply(r, z);
    } else {
      la::copy(r, z);
    }
    ++result.global_syncs; // <r, z>
    const double rz_next = la::dot(r, z);
    const double beta = rz_next / rz;
    la::waxpby(1.0, z, beta, p, p);
    rz = rz_next;
  }
  result.converged = result.residual_norm <= abs_target;
  return result;
}

CgResult cg(const sparse::CsrMatrix& A, const la::Vector& b,
            const CgOptions& opts) {
  const CsrOperator op(A);
  return cg(op, b, la::Vector(A.cols()), opts);
}

} // namespace sdcgmres::krylov
