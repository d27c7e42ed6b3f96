#pragma once
/// \file mixed.hpp
/// \brief The mixed-precision inner data plane of FT-GMRES.
///
/// FT-GMRES's selective-reliability split (paper Section VI) localizes
/// all "unreliable" work in the inner solves; the flexible outer
/// iteration absorbs whatever perturbation they produce.  Reduced
/// precision is exactly such a perturbation, so the inner solves -- and
/// only the inner solves -- may run on a narrowed data plane: a float32
/// and/or int32-indexed mirror of the CSR matrix, float32 Krylov basis,
/// Hessenberg QR, and BLAS.  The reliable outer FGMRES stays double and
/// keeps streaming the original operator.
///
/// The pieces:
///
///   * MixedPlane<S, I>: the CSR instantiation of the mixed-plane cache
///     slot (the abstract seam -- MixedOperatorT / MixedPlaneBase /
///     MixedPlaneOf -- lives in mixed_plane.hpp, and the SELL
///     instantiation in sell_operator.hpp).  ensure_plane() builds the
///     right instantiation for the OUTER operator's storage format on
///     first use and reuses it while the source matrix is unchanged, so
///     repeated solves (the sweep) pay the narrowing once.
///   * MixedCsrOperator<S, I>: the counting apply/apply_block seam of the
///     narrowed CSR matrix.  Deliberately NOT a LinearOperator (that
///     seam is double); it reports the same OperatorStats vocabulary,
///     with scalar_bytes/index_bytes computed at sizeof(S)/sizeof(I).
///   * MixedInnerGmresT<S>: the mixed mirror of
///     InnerGmresPreconditioner -- same make_engine/finish_engine batch
///     seam, same InnerSolveLedger bookkeeping -- that down-converts
///     the outer residual column on entry and up-converts the inner
///     correction on exit.  It drives any MixedOperatorT<S>, so one
///     instantiation serves every storage format and index width.  For
///     S = double (the index=32 configuration) the staging copies are
///     bitwise exact, so (double, int32) results are bit-identical to
///     the default path: indices never enter the arithmetic.
///
/// step_with_apply_t generalizes the gmres.hpp step driver over any
/// operator exposing apply(span<const S>, span<S>).

#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "krylov/ft_gmres.hpp"
#include "krylov/gmres.hpp"
#include "krylov/mixed_plane.hpp"
#include "krylov/operator.hpp"
#include "krylov/precision.hpp"
#include "krylov/sell_operator.hpp"
#include "krylov/workspace.hpp"
#include "la/vector.hpp"
#include "sparse/csr_mixed.hpp"

namespace sdcgmres::krylov {

/// Narrowing / widening staging copies between the double outer plane
/// and the scalar-S inner plane.  Both are bitwise copies when S is
/// double.
template <typename S>
inline void narrow_into(std::span<const double> src, std::span<S> dst) {
  for (std::size_t i = 0; i < src.size(); ++i)
    dst[i] = static_cast<S>(src[i]);
}

template <typename S>
inline void widen_into(std::span<const S> src, std::span<double> dst) {
  for (std::size_t i = 0; i < src.size(); ++i)
    dst[i] = static_cast<double>(src[i]);
}

/// The S-typed inner workspace slot of an FtGmresWorkspace: the double
/// plane reuses the standard inner slot, float configurations use the
/// dedicated float arena.
template <typename S>
[[nodiscard]] inline KrylovWorkspaceT<S>&
inner_workspace_for(FtGmresWorkspace& w) noexcept {
  if constexpr (std::is_same_v<S, double>) {
    return w.inner;
  } else {
    return w.inner_f32;
  }
}

/// Counting apply seam of the narrowed CSR mirror: the CSR instantiation
/// of MixedOperatorT<S> (counting wrappers and stats live in the base;
/// see mixed_plane.hpp).
template <typename S, typename I>
class MixedCsrOperator final : public MixedOperatorT<S> {
public:
  explicit MixedCsrOperator(const sparse::CsrMatrixT<S, I>& A) : a_(&A) {}

  [[nodiscard]] std::size_t rows() const noexcept override {
    return a_->rows();
  }
  [[nodiscard]] std::size_t cols() const noexcept override {
    return a_->cols();
  }

protected:
  void do_apply(std::span<const S> x, std::span<S> y) const override {
    a_->spmv(x, y);
  }
  /// Columns are bitwise identical to apply() per column -- the lockstep
  /// contract, unchanged at reduced precision.
  void do_apply_block(const la::BasisViewT<S>& x,
                      la::BlockViewT<S> y) const override {
    a_->spmm(x, y);
  }
  /// One stream with C operand columns: values once + C operand and C
  /// result columns, all at sizeof(S).
  [[nodiscard]] std::size_t
  do_scalar_bytes(std::size_t columns) const noexcept override {
    return sizeof(S) * (a_->nnz() + columns * (a_->rows() + a_->cols()));
  }
  /// row_ptr (rows+1) + col_idx (nnz) at the compressed sizeof(I).
  [[nodiscard]] std::size_t do_index_bytes() const noexcept override {
    return sizeof(I) * (a_->nnz() + a_->rows() + 1);
  }

private:
  const sparse::CsrMatrixT<S, I>* a_;
};

/// One (scalar, index) instantiation of the narrowed CSR mirror: the
/// compressed matrix copy plus its counting operator.
template <typename S, typename I>
class MixedPlane final : public MixedPlaneOf<S> {
public:
  /// Narrows \p a (throws std::overflow_error when the shape overflows
  /// the index type I -- see CsrMatrixT).
  explicit MixedPlane(const sparse::CsrMatrix& a)
      : matrix(a), op(matrix), src_(&a) {}

  [[nodiscard]] OperatorStats stats() const noexcept override {
    return op.stats();
  }
  void reset_stats() const noexcept override { op.reset_stats(); }
  [[nodiscard]] const void* source() const noexcept override { return src_; }
  [[nodiscard]] const MixedOperatorT<S>& typed_op() const noexcept override {
    return op;
  }

  sparse::CsrMatrixT<S, I> matrix;
  MixedCsrOperator<S, I> op;

private:
  const void* src_;
};

/// Fetch (building or reusing) the <S, I> mirror of \p A in the cache
/// slot \p cache, narrowing whatever storage format the outer operator
/// streams: a CsrOperator gets a CsrMatrixT mirror, a SellOperator gets
/// a SellMatrixT mirror of the same chunk geometry (so inner results
/// stay bitwise identical across backends at every precision).  The
/// mirror is rebuilt only when the slot holds a different instantiation
/// or a different source matrix, so repeated solves through one
/// workspace narrow once.  Throws std::invalid_argument when \p A is
/// not matrix-backed: the mixed plane narrows a concrete matrix, not an
/// abstract operator.
template <typename S, typename I>
[[nodiscard]] inline MixedPlaneOf<S>&
ensure_plane(std::shared_ptr<MixedPlaneBase>& cache,
             const LinearOperator& A) {
  if (const auto* csr = dynamic_cast<const CsrOperator*>(&A);
      csr != nullptr) {
    if (auto* hit = dynamic_cast<MixedPlane<S, I>*>(cache.get());
        hit != nullptr && hit->source() == &csr->matrix()) {
      return *hit;
    }
    auto fresh = std::make_shared<MixedPlane<S, I>>(csr->matrix());
    cache = fresh;
    return *fresh;
  }
  if (const auto* sell = dynamic_cast<const SellOperator*>(&A);
      sell != nullptr) {
    if (auto* hit = dynamic_cast<SellMixedPlane<S, I>*>(cache.get());
        hit != nullptr && hit->source() == &sell->matrix()) {
      return *hit;
    }
    auto fresh = std::make_shared<SellMixedPlane<S, I>>(sell->matrix());
    cache = fresh;
    return *fresh;
  }
  throw std::invalid_argument(
      "ft_gmres: mixed precision/index configurations require a "
      "matrix-backed (csr/sell) operator");
}

/// One protocol step of an S-typed engine against any operator exposing
/// apply(span<const S>, span<S>) -- the generic form of
/// step_with_apply() (gmres.hpp), same sequence of operations.
template <typename Op, typename S>
inline bool step_with_apply_t(const Op& A, GmresEngineT<S>& engine) {
  if (engine.awaiting_residual()) {
    A.apply(engine.residual_operand(), engine.residual_target());
    return engine.start_cycle();
  }
  engine.begin_iteration();
  A.apply(engine.direction(), engine.v_target());
  return engine.advance();
}

/// The mixed-plane mirror of InnerGmresPreconditioner: each application
/// approximately solves A z = q at the plane's precision from a zero
/// initial guess.  The outer residual column q is down-converted into
/// per-instance staging on entry (make_engine) and the inner correction
/// up-converted into the outer Z-arena column on exit (finish_engine);
/// with S = double both conversions are bitwise copies, so the
/// (double, int32) configuration reproduces the default path bit for
/// bit.  Same make_engine/finish_engine seam as the double
/// preconditioner, and the same InnerSolveLedger bookkeeping (options,
/// records, recovery turnover).
template <typename S>
class MixedInnerGmresT : public InnerSolveLedger {
public:
  MixedInnerGmresT(const MixedOperatorT<S>& A, const GmresOptions& opts,
                   ArnoldiHook* hook, bool robust_first_solve,
                   KrylovWorkspaceT<S>& ws, InnerRecovery recovery)
      : InnerSolveLedger(opts, robust_first_solve, recovery), a_(&A),
        hook_(hook), ws_(&ws) {}

  /// Stage q down to the plane's scalar, zero the staged iterate, and
  /// construct the step-driveable S-typed engine.  The caller drives it
  /// and hands it to finish_engine(), which up-converts the correction
  /// into \p z.
  [[nodiscard]] GmresEngineT<S> make_engine(std::span<const double> q,
                                            std::size_t outer_index,
                                            std::span<double> z) {
    cur_z_ = z;
    const GmresOptions opts = begin_solve(outer_index);
    q_staged_.resize(q.size());
    z_staged_.resize(z.size());
    narrow_into<S>(q, q_staged_.span());
    std::fill(z_staged_.span().begin(), z_staged_.span().end(), S(0));
    return GmresEngineT<S>(a_->rows(), a_->cols(),
                           std::span<const S>(q_staged_.span()),
                           z_staged_.span(), opts, hook_, outer_index, *ws_,
                           /*residual_history=*/nullptr);
  }

  /// Up-convert the finished engine's correction into the outer Z-arena
  /// column and record its bookkeeping.
  void finish_engine(const GmresEngineT<S>& engine) {
    widen_into<S>(z_staged_.span(), cur_z_);
    record(engine.solve_index(), engine.stats());
  }

  /// Hook-free recompute of the flagged inner solve on the same staged
  /// operands (selective reliability: the retry stays at the plane's
  /// precision -- reduced precision is a deliberate configuration, not
  /// a fault).
  [[nodiscard]] GmresEngineT<S> make_reliable_retry(
      const GmresEngineT<S>& aborted) {
    const GmresOptions opts = begin_retry(aborted.stats());
    std::fill(z_staged_.span().begin(), z_staged_.span().end(), S(0));
    return GmresEngineT<S>(a_->rows(), a_->cols(),
                           std::span<const S>(q_staged_.span()),
                           z_staged_.span(), opts, /*hook=*/nullptr,
                           current_outer(), *ws_,
                           /*residual_history=*/nullptr);
  }

private:
  const MixedOperatorT<S>* a_;
  ArnoldiHook* hook_;
  KrylovWorkspaceT<S>* ws_;
  // Per-instance staging of the engine operands at the plane's scalar
  // (stable storage: live engines hold spans into these), plus the
  // outer-side column the correction widens back into.
  la::VectorT<S> q_staged_;
  la::VectorT<S> z_staged_;
  std::span<double> cur_z_;
};

} // namespace sdcgmres::krylov
