#pragma once
/// \file blas1.hpp
/// \brief Level-1 dense kernels (dot, axpy, norms, ...) on la::Vector.
///
/// These are the only vector kernels the Krylov solvers use, so they are the
/// natural unit for OpenMP parallelism.  All functions validate dimensions
/// with exceptions rather than assertions so that misuse is loud in Release
/// builds too (faults in *metadata* are out of the paper's scope, but bugs
/// are not faults).

#include <cstddef>
#include <functional>
#include <span>

#include "la/vector.hpp"

namespace sdcgmres::la {

/// Euclidean inner product x.y.  Throws std::invalid_argument on size
/// mismatch.
[[nodiscard]] double dot(const Vector& x, const Vector& y);

// --- Span kernels -----------------------------------------------------------
//
// The contiguous KrylovBasis exposes its columns as std::span views; these
// overloads let every kernel run on a basis column without materializing an
// owning la::Vector.  The Vector overloads forward here, so both entry
// points share one implementation (and one summation order: results are
// bitwise identical between the two).

/// Euclidean inner product over spans (identical to the Vector overload).
///
/// Summation order, shared by every reduction in this header (dot,
/// dot_columns, nrm2, nrm1, dot_axpy) and so by la::gemv_t:
///   - [0, n) splits into fixed blocks of 4096 entries;
///   - inside a block, lane l (0..7) sums the terms i = l (mod 8) in index
///     order, and the lanes combine as ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7));
///   - the block partials are added to zero in block order.
/// The order depends only on n, so the result is bitwise identical at any
/// OpenMP thread count.  With several threads, each thread owns whole
/// blocks; with one thread, or one block, no OpenMP region is entered.
[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y);

/// out[j] = dot(x, column j) for the rows x cols column-major block \p b
/// (leading dimension \p ld >= rows; x has rows entries, out has cols):
/// each out[j] is bitwise la::dot's.  One pass over b, with each 4096-entry
/// block of x kept in cache while the columns stream past it.  The core of
/// la::gemv_t.
void dot_columns(std::size_t rows, std::size_t cols, const double* b,
                 std::size_t ld, const double* x, double* out);

/// 2-norm of a span.
[[nodiscard]] double nrm2(std::span<const double> x);

/// y := alpha*x + y over spans.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x := alpha*x over a span.
void scal(double alpha, std::span<double> x);

/// y := x over spans (sizes must match).
void copy(std::span<const double> x, std::span<double> y);

/// w := alpha*x + beta*y over spans (sizes must match; w may alias x or y).
void waxpby(double alpha, std::span<const double> x, double beta,
            std::span<const double> y, std::span<double> w);

/// Element-wise product z := x .* y over spans (sizes must match).
void hadamard(std::span<const double> x, std::span<const double> y,
              std::span<double> z);

/// True when every entry of the span is finite (no Inf, no NaN).
[[nodiscard]] bool all_finite(std::span<const double> x);

/// Number of span entries that are NaN or infinite.
[[nodiscard]] std::size_t count_nonfinite(std::span<const double> x);

/// Fused MGS step: computes h = x.y, then y := y - h*x, in one kernel
/// (at most one parallel region; one fork/join instead of two, and x is
/// hot in cache for the correction).  The dot is summed in dot()'s order,
/// so the returned coefficient and the corrected y are bitwise identical to
/// the unfused dot+axpy sequence at any thread count.  Returns h.
double dot_axpy(std::span<const double> x, std::span<double> y);

/// Instrumented variant: \p adjust runs once with the freshly computed
/// coefficient BEFORE it is applied to y, and may mutate it; the mutated
/// value is what gets subtracted (and returned).  This is the projection-
/// coefficient hook point of the Arnoldi process (SDC injection/detection
/// site), preserved inside the fused kernel.
double dot_axpy(std::span<const double> x, std::span<double> y,
                const std::function<void(double&)>& adjust);

// --- Float kernels (mixed-precision inner plane) ------------------------
//
// Concrete overloads (not deduced templates) so that the implicit
// span<float> -> span<const float> conversions keep working at call
// sites, exactly as they do for the double overloads above.  All
// arithmetic, including the reductions, runs in float: the inner solve of
// the mixed-precision plane is genuinely a float32 computation, not a
// float-stored/double-accumulated hybrid.  Loop structure, OpenMP
// thresholds, and summation order mirror the double kernels one-to-one.

[[nodiscard]] float dot(std::span<const float> x, std::span<const float> y);
void dot_columns(std::size_t rows, std::size_t cols, const float* b,
                 std::size_t ld, const float* x, float* out);
[[nodiscard]] float nrm2(std::span<const float> x);
void axpy(float alpha, std::span<const float> x, std::span<float> y);
void scal(float alpha, std::span<float> x);
void copy(std::span<const float> x, std::span<float> y);
void waxpby(float alpha, std::span<const float> x, float beta,
            std::span<const float> y, std::span<float> w);
[[nodiscard]] bool all_finite(std::span<const float> x);
[[nodiscard]] std::size_t count_nonfinite(std::span<const float> x);

/// Fused MGS step in float (see the double overload for the contract).
float dot_axpy(std::span<const float> x, std::span<float> y);

/// Instrumented float variant; the hook observes/mutates the float
/// coefficient directly (callers widen for double-typed hook protocols).
float dot_axpy(std::span<const float> x, std::span<float> y,
               const std::function<void(float&)>& adjust);

/// 2-norm of \p x, computed as sqrt(dot(x, x)).
[[nodiscard]] double nrm2(const Vector& x);

/// 1-norm (sum of absolute values, in dot()'s summation order).
[[nodiscard]] double nrm1(const Vector& x);

/// Infinity-norm (max absolute value); 0 for the empty vector.
[[nodiscard]] double nrminf(std::span<const double> x);
[[nodiscard]] double nrminf(const Vector& x);

/// y := alpha*x + y.
void axpy(double alpha, const Vector& x, Vector& y);

/// w := alpha*x + beta*y (three-operand update; w may alias x or y).
void waxpby(double alpha, const Vector& x, double beta, const Vector& y,
            Vector& w);

/// x := alpha*x.
void scal(double alpha, Vector& x);

/// y := x (sizes must already match).
void copy(const Vector& x, Vector& y);

/// Element-wise product z := x .* y.
void hadamard(const Vector& x, const Vector& y, Vector& z);

/// True when every entry is finite (no Inf, no NaN).
[[nodiscard]] bool all_finite(const Vector& x);

/// Number of entries that are NaN or infinite.
[[nodiscard]] std::size_t count_nonfinite(const Vector& x);

} // namespace sdcgmres::la
