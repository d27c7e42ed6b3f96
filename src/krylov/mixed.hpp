#pragma once
/// \file mixed.hpp
/// \brief The narrowed-mirror cache of FT-GMRES's inner data plane.
///
/// FT-GMRES's selective-reliability split (paper Section VI) localizes
/// all "unreliable" work in the inner solves; the flexible outer
/// iteration absorbs whatever perturbation they produce.  Reduced
/// precision is exactly such a perturbation, so the inner solves -- and
/// only the inner solves -- may run on a narrowed data plane: a float32
/// and/or int32-indexed mirror of the matrix, float32 Krylov basis,
/// Hessenberg QR, and BLAS.  The reliable outer FGMRES stays double and
/// keeps streaming the original operator.
///
/// The narrowed plane adds no operator or solver types of its own:
///
///   * the mirror is a MatrixOperator<sparse::CsrMatrixT<S, I>> or
///     MatrixOperator<sparse::SellMatrixT<S, I>> -- an ordinary
///     LinearOperatorT<S> (krylov/operator.hpp) with the same counting
///     wrappers as the outer operator, byte counts at the mirror's widths;
///   * the inner solve is InnerGmresT<S> (krylov/ft_gmres.hpp), the same
///     class the default plane runs, which stages the outer residual
///     through float only when S is float.
///
/// What lives here is the cache slot: MixedPlane<Mirror> owns one mirror
/// and its operator behind the type-erased MixedPlaneBase that the solver
/// workspaces hold, and ensure_plane() builds the right mirror for the
/// OUTER operator's storage format on first use and reuses it while the
/// source matrix is unchanged, so repeated solves (the sweep) pay the
/// narrowing once.

#include <memory>
#include <stdexcept>

#include "krylov/operator.hpp"
#include "krylov/sell_operator.hpp"
#include "sparse/csr_mixed.hpp"
#include "sparse/sell.hpp"

namespace sdcgmres::krylov {

/// Type-erased cache slot for one narrowed mirror (see
/// FtGmresWorkspace::plane).  stats() surfaces the mirror's traffic so
/// solvers and the sweep can fold inner-plane bytes into their totals
/// without knowing the instantiation.
class MixedPlaneBase {
public:
  virtual ~MixedPlaneBase() = default;
  /// Traffic counters of the mirror's operator.
  [[nodiscard]] virtual OperatorStats stats() const noexcept = 0;
  /// Zero the mirror's counters (between measured phases).
  virtual void reset_stats() const noexcept = 0;
  /// Identity of the source matrix the mirror was narrowed from.
  [[nodiscard]] virtual const void* source() const noexcept = 0;
};

/// One narrowed mirror (a CsrMatrixT or SellMatrixT instantiation) plus
/// its counting operator.
template <typename Mirror>
class MixedPlane final : public MixedPlaneBase {
public:
  /// Narrows \p a (throws std::overflow_error when the shape overflows
  /// the mirror's index type).
  template <typename Source>
  explicit MixedPlane(const Source& a) : matrix(a), op(matrix), src_(&a) {}

  [[nodiscard]] OperatorStats stats() const noexcept override {
    return op.stats();
  }
  void reset_stats() const noexcept override { op.reset_stats(); }
  [[nodiscard]] const void* source() const noexcept override { return src_; }

  Mirror matrix;
  MatrixOperator<Mirror> op;

private:
  const void* src_;
};

/// Fetch (building or reusing) the Mirror of \p source in \p cache.
template <typename Mirror, typename Source>
[[nodiscard]] inline const MatrixOperator<Mirror>&
ensure_mirror(std::shared_ptr<MixedPlaneBase>& cache, const Source& source) {
  if (auto* hit = dynamic_cast<MixedPlane<Mirror>*>(cache.get());
      hit != nullptr && hit->source() == &source) {
    return hit->op;
  }
  auto fresh = std::make_shared<MixedPlane<Mirror>>(source);
  cache = fresh;
  return fresh->op;
}

/// The counting operator of the <S, I> mirror of \p A, built or reused in
/// the cache slot \p cache.  A CsrOperator gets a CsrMatrixT mirror, a
/// SellOperator a SellMatrixT mirror of the same chunk geometry (so inner
/// results stay bitwise identical across backends at every precision).
/// The mirror is rebuilt only when the slot holds a different
/// instantiation or a different source matrix.  Throws
/// std::invalid_argument when \p A is not matrix-backed: the mixed plane
/// narrows a concrete matrix, not an abstract operator.
template <typename S, typename I>
[[nodiscard]] inline const LinearOperatorT<S>&
ensure_plane(std::shared_ptr<MixedPlaneBase>& cache,
             const LinearOperator& A) {
  if (const auto* csr = dynamic_cast<const CsrOperator*>(&A)) {
    return ensure_mirror<sparse::CsrMatrixT<S, I>>(cache, csr->matrix());
  }
  if (const auto* sell = dynamic_cast<const SellOperator*>(&A)) {
    return ensure_mirror<sparse::SellMatrixT<S, I>>(cache, sell->matrix());
  }
  throw std::invalid_argument(
      "ft_gmres: mixed precision/index configurations require a "
      "matrix-backed (csr/sell) operator");
}

} // namespace sdcgmres::krylov
