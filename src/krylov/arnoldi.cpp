#include "krylov/arnoldi.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "krylov/gmres.hpp"
#include "la/blas1.hpp"

namespace sdcgmres::krylov {

ArnoldiResult arnoldi(const LinearOperator& A, const la::Vector& v0,
                      std::size_t m, Orthogonalization ortho,
                      ArnoldiHook* hook, double breakdown_tol) {
  if (A.rows() != A.cols()) {
    throw std::invalid_argument("arnoldi: operator must be square");
  }
  if (v0.size() != A.cols()) {
    throw std::invalid_argument("arnoldi: start vector size mismatch");
  }
  if (la::nrm2(v0) == 0.0) {
    throw std::invalid_argument("arnoldi: start vector must be nonzero");
  }

  // One GMRES cycle of m fixed iterations from x = 0: the residual is v0,
  // so the engine's basis and Hessenberg columns are the Arnoldi ones.
  GmresOptions opts;
  opts.max_iters = m;
  opts.restart = m;
  opts.tol = 0.0;
  opts.ortho = ortho;
  opts.breakdown_tol = breakdown_tol;
  KrylovWorkspace ws;
  la::Vector x(A.cols());
  GmresEngine engine(A, v0.span(), x.span(), opts, hook, 0, ws, nullptr);

  ArnoldiResult out;
  out.h.reshape(m + 1, m);
  while (!engine.finished()) {
    step_with_apply(A, engine);
    // An accepted step leaves column k-1 of H in the arena's h column.
    const std::size_t k = engine.stats().iterations;
    if (k == out.steps) continue;
    const std::vector<double>& hcol = ws.arena.h_column();
    for (std::size_t i = 0; i <= k; ++i) out.h(i, k - 1) = hcol[i];
    out.steps = k;
  }
  out.breakdown = engine.stats().status == SolveStatus::HappyBreakdown;
  out.q = std::move(ws.arena.basis());
  return out;
}

} // namespace sdcgmres::krylov
