#pragma once
/// \file operator.hpp
/// \brief Abstract linear operator, the solver-facing matrix interface.
///
/// Mirrors the role of Tpetra::Operator in the paper's Trilinos
/// implementation: solvers see only y = A*x.
///
/// The virtual cores (do_apply / do_apply_block) are span-in/span-out so
/// that solvers can feed basis columns straight out of a contiguous
/// la::KrylovBasis arena and receive results straight into workspace
/// storage, with zero owning-vector copies at the operator boundary.
/// Thin la::Vector overloads remain for callers that hold owning vectors;
/// they resize the output and forward.
///
/// The public apply()/apply_block() entry points are non-virtual counting
/// wrappers: every application is tallied in per-instance OperatorStats
/// (calls and operand columns), which is how the batched sweep proves its
/// matrix-traffic reduction with measured numbers instead of wall-clock.
///
/// There is one seam for both data planes: LinearOperatorT<S> is typed on
/// the scalar it streams, LinearOperator is its double instantiation, and
/// MatrixOperator<M> is the one matrix-backed implementor -- CSR or SELL,
/// full-width or narrowed (float values and/or int32 indices).

#include <atomic>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "la/block.hpp"
#include "la/krylov_basis.hpp"
#include "la/vector.hpp"
#include "sparse/csr.hpp"

namespace sdcgmres::krylov {

/// A snapshot of an operator's application counters.  apply() streams
/// the matrix once for one operand column; apply_block() streams it once
/// for a whole block of columns -- so streams() is the number of matrix
/// passes paid and columns() the number of operand columns processed.
/// The lockstep batch drivers keep columns() fixed while dividing
/// streams() by ~B.
struct OperatorStats {
  std::size_t apply_calls = 0;       ///< span-core applications (1 column)
  std::size_t apply_block_calls = 0; ///< fused block applications
  std::size_t block_columns = 0;     ///< operand columns across all
                                     ///< apply_block calls
  std::size_t scalar_bytes = 0;      ///< bytes of scalar traffic (matrix
                                     ///< values + operand/result columns)
                                     ///< at the operator's own precision
  std::size_t index_bytes = 0;       ///< bytes of index traffic (row_ptr +
                                     ///< col_idx) at the operator's own
                                     ///< index width

  /// Matrix passes paid (the traffic proxy the batch optimizes).
  [[nodiscard]] std::size_t streams() const noexcept {
    return apply_calls + apply_block_calls;
  }
  /// Total operand columns processed (the work, identical at any batch).
  [[nodiscard]] std::size_t columns() const noexcept {
    return apply_calls + block_columns;
  }
  /// Total bytes streamed (the traffic the mixed-precision plane halves).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return scalar_bytes + index_bytes;
  }

  bool operator==(const OperatorStats&) const = default;

  OperatorStats& operator+=(const OperatorStats& other) noexcept {
    apply_calls += other.apply_calls;
    apply_block_calls += other.apply_block_calls;
    block_columns += other.block_columns;
    scalar_bytes += other.scalar_bytes;
    index_bytes += other.index_bytes;
    return *this;
  }
};

/// Abstract y = A*x, typed on the scalar S of the data plane it streams.
/// LinearOperator (S = double) is the reliable plane's operator; the
/// narrowed inner plane of FT-GMRES (krylov/mixed.hpp) streams a
/// LinearOperatorT<float> (or a double operator over an int32-indexed
/// mirror).  Both count their traffic through the same wrappers.
template <typename S>
class LinearOperatorT {
public:
  virtual ~LinearOperatorT() = default;

  [[nodiscard]] virtual std::size_t rows() const = 0;
  [[nodiscard]] virtual std::size_t cols() const = 0;

  /// y := A*x, the span entry point.  x.size() must equal cols() and
  /// y.size() must equal rows(); x and y must not alias.  The
  /// implementation (do_apply) must write every entry of y.
  void apply(std::span<const S> x, std::span<S> y) const {
    apply_calls_.fetch_add(1, std::memory_order_relaxed);
    scalar_bytes_.fetch_add(do_scalar_bytes(1), std::memory_order_relaxed);
    index_bytes_.fetch_add(do_index_bytes(1), std::memory_order_relaxed);
    do_apply(x, y);
  }

  /// Convenience: y := A*x for owning vectors; resizes y to rows().
  void apply(const la::VectorT<S>& x, la::VectorT<S>& y) const {
    if (y.size() != rows()) y.resize(rows());
    apply(std::span<const S>(x.span()), y.span());
  }

  /// Convenience: y := A*x for a span operand into an owning result.
  void apply(std::span<const S> x, la::VectorT<S>& y) const {
    if (y.size() != rows()) y.resize(rows());
    apply(x, y.span());
  }

  /// Convenience: A*x by value.
  [[nodiscard]] la::VectorT<S> operator()(const la::VectorT<S>& x) const {
    la::VectorT<S> y(rows());
    apply(x, y);
    return y;
  }

  /// Y := A*X over a block of operand columns, the block entry point of
  /// the data plane.  x.rows() must equal cols(), y.rows() must equal
  /// rows(), and x.cols() must equal y.cols(); the blocks must not alias.
  /// Each output column must be BITWISE identical to apply() on the
  /// matching operand column -- batch drivers rely on this to keep
  /// lockstep solves equal to their solo runs.  The default core walks
  /// the columns through do_apply, so every implementor is block-capable
  /// for free; matrix-backed operators override do_apply_block with a
  /// fused SpMM that streams the matrix once per block.  A zero-column
  /// block is a no-op.
  void apply_block(const la::BasisViewT<S>& x, la::BlockViewT<S> y) const {
    apply_block_calls_.fetch_add(1, std::memory_order_relaxed);
    block_columns_.fetch_add(x.cols(), std::memory_order_relaxed);
    scalar_bytes_.fetch_add(do_scalar_bytes(x.cols()),
                            std::memory_order_relaxed);
    index_bytes_.fetch_add(do_index_bytes(x.cols()),
                           std::memory_order_relaxed);
    do_apply_block(x, y);
  }

  /// Snapshot of this instance's traffic counters.  The counters are
  /// relaxed atomics, so a const operator shared across threads stays
  /// well-defined and counts exactly; still prefer one operator per
  /// thread over a shared matrix (the sweep engine's pattern) so each
  /// phase's traffic is attributable, and sum the stats afterwards.
  [[nodiscard]] OperatorStats stats() const noexcept {
    return {.apply_calls = apply_calls_.load(std::memory_order_relaxed),
            .apply_block_calls =
                apply_block_calls_.load(std::memory_order_relaxed),
            .block_columns = block_columns_.load(std::memory_order_relaxed),
            .scalar_bytes = scalar_bytes_.load(std::memory_order_relaxed),
            .index_bytes = index_bytes_.load(std::memory_order_relaxed)};
  }

  /// Zero the counters (e.g. between measured phases).
  void reset_stats() const noexcept {
    apply_calls_.store(0, std::memory_order_relaxed);
    apply_block_calls_.store(0, std::memory_order_relaxed);
    block_columns_.store(0, std::memory_order_relaxed);
    scalar_bytes_.store(0, std::memory_order_relaxed);
    index_bytes_.store(0, std::memory_order_relaxed);
  }

protected:
  LinearOperatorT() = default;
  /// Copies/assignments of an implementor carry its configuration, not
  /// its traffic history: the copied-to operator's counters (re)start
  /// at zero.
  LinearOperatorT(const LinearOperatorT&) noexcept {}
  LinearOperatorT& operator=(const LinearOperatorT&) noexcept {
    reset_stats();
    return *this;
  }

  /// Virtual span core (see apply() for the contract).
  virtual void do_apply(std::span<const S> x, std::span<S> y) const = 0;

  /// Virtual block core (see apply_block() for the contract).  The
  /// default loops over do_apply so counting stays call-accurate: one
  /// block call, x.cols() columns, however the block is realized.
  virtual void do_apply_block(const la::BasisViewT<S>& x,
                              la::BlockViewT<S> y) const {
    for (std::size_t j = 0; j < x.cols(); ++j) do_apply(x.col(j), y.col(j));
  }

  /// Bytes of scalar traffic one application with \p columns operand
  /// columns streams (matrix values once, plus operand and result columns
  /// at the operator's own precision).  The default 0 keeps synthetic /
  /// test operators out of the traffic accounting; matrix-backed
  /// operators override.
  [[nodiscard]] virtual std::size_t
  do_scalar_bytes(std::size_t columns) const noexcept {
    (void)columns;
    return 0;
  }

  /// Bytes of index traffic one application streams (independent of the
  /// column count).  Default 0, see do_scalar_bytes.
  [[nodiscard]] virtual std::size_t
  do_index_bytes(std::size_t columns) const noexcept {
    (void)columns;
    return 0;
  }

private:
  mutable std::atomic<std::size_t> apply_calls_{0};
  mutable std::atomic<std::size_t> apply_block_calls_{0};
  mutable std::atomic<std::size_t> block_columns_{0};
  mutable std::atomic<std::size_t> scalar_bytes_{0};
  mutable std::atomic<std::size_t> index_bytes_{0};
};

using LinearOperator = LinearOperatorT<double>;

/// Scalar type of a sparse matrix format (the element type of values()).
template <typename M>
using matrix_scalar_t = typename std::remove_cvref_t<
    decltype(std::declval<const M&>().values())>::value_type;

/// Counting operator over a sparse matrix (non-owning): CSR or SELL, at
/// full width or as a narrowed (scalar S, index I) mirror.  The format M
/// provides spmv/spmm, stored() (entry slots streamed per pass, padding
/// included) and index_slots() (index-typed entries streamed per pass).
/// Byte accounting counts those at the format's true stored widths:
/// one stream with C operand columns touches the stored slots once and
/// C operand + C result columns, plus every index slot once.
template <typename M>
class MatrixOperator final : public LinearOperatorT<matrix_scalar_t<M>> {
public:
  using S = matrix_scalar_t<M>;
  using I = typename std::remove_cvref_t<
      decltype(std::declval<const M&>().col_idx())>::value_type;

  explicit MatrixOperator(const M& a) : a_(&a) {}

  [[nodiscard]] std::size_t rows() const noexcept override {
    return a_->rows();
  }
  [[nodiscard]] std::size_t cols() const noexcept override {
    return a_->cols();
  }

  /// The matrix behind the operator (the mixed plane narrows it).
  [[nodiscard]] const M& matrix() const noexcept { return *a_; }

protected:
  /// Zero-copy SpMV straight between spans (basis column in, workspace
  /// column out).
  void do_apply(std::span<const S> x, std::span<S> y) const override {
    a_->spmv(x, y);
  }

  /// Fused SpMM: one pass over the matrix for the whole block instead of
  /// one per column (columns stay bitwise identical to spmv).
  void do_apply_block(const la::BasisViewT<S>& x,
                      la::BlockViewT<S> y) const override {
    if (x.rows() != a_->cols() || y.rows() != a_->rows() ||
        x.cols() != y.cols()) {
      throw std::invalid_argument("MatrixOperator::apply_block: shape "
                                  "mismatch");
    }
    if (x.cols() == 0) return; // nothing to do; data() may be null
    a_->spmm(x.cols(), x.data(), x.ld(), y.data(), y.ld());
  }

  [[nodiscard]] std::size_t
  do_scalar_bytes(std::size_t columns) const noexcept override {
    return sizeof(S) * (a_->stored() + columns * (a_->rows() + a_->cols()));
  }

  [[nodiscard]] std::size_t
  do_index_bytes(std::size_t columns) const noexcept override {
    (void)columns;
    return sizeof(I) * a_->index_slots();
  }

private:
  const M* a_;
};

/// The CSR matrix as a LinearOperator.
using CsrOperator = MatrixOperator<sparse::CsrMatrix>;

/// Operator scaled by a constant: y = alpha * A * x (used in tests).
class ScaledOperator final : public LinearOperator {
public:
  ScaledOperator(const LinearOperator& A, double alpha) : a_(&A), alpha_(alpha) {}

  [[nodiscard]] std::size_t rows() const override { return a_->rows(); }
  [[nodiscard]] std::size_t cols() const override { return a_->cols(); }

protected:
  void do_apply(std::span<const double> x, std::span<double> y) const override;

private:
  const LinearOperator* a_;
  double alpha_;
};

} // namespace sdcgmres::krylov
