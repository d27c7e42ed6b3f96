#pragma once
/// \file blas2.hpp
/// \brief Dense level-2 kernels on DenseMatrix / Vector and on contiguous
/// column-major blocks (KrylovBasis views).
///
/// The raw gemv kernel is blocked over columns: it updates each y chunk
/// once per four columns instead of once per column.  gemv_t takes its
/// column sums from la::dot_columns, each bitwise la::dot(column j, x), so
/// every coefficient carries blas1's one summation order (see la::dot): the
/// Arnoldi hook protocol observes bitwise the same projection coefficients
/// through the fused CGS path as through the per-vector reference path, at
/// any OpenMP thread count.

#include <cstddef>
#include <span>

#include "la/dense_matrix.hpp"
#include "la/krylov_basis.hpp"
#include "la/vector.hpp"

namespace sdcgmres::la {

/// y := alpha*B*x + beta*y over a column-major block (\p rows x \p cols,
/// leading dimension \p lda >= rows).  x has cols entries, y has rows
/// entries.
void gemv(double alpha, std::size_t rows, std::size_t cols, const double* b,
          std::size_t lda, const double* x, double beta, double* y);

/// y := alpha*B^T*x + beta*y over the same block layout.  x has rows
/// entries, y has cols entries.  Before scaling, each y[j] is bitwise
/// la::dot(col_j, x).
void gemv_t(double alpha, std::size_t rows, std::size_t cols, const double* b,
            std::size_t lda, const double* x, double beta, double* y);

/// y := alpha*Q*x + beta*y for a basis view (x.size() == Q.cols(),
/// y.size() == Q.rows()).
void gemv(double alpha, const BasisView& q, std::span<const double> x,
          double beta, std::span<double> y);

/// y := alpha*Q^T*x + beta*y for a basis view (x.size() == Q.rows(),
/// y.size() == Q.cols()).
void gemv_t(double alpha, const BasisView& q, std::span<const double> x,
            double beta, std::span<double> y);

// --- Float kernels (mixed-precision inner plane) ------------------------
//
// Concrete float overloads of the raw and BasisView gemv/gemv_t kernels:
// same column blocking, summation order, and OpenMP thresholds as the
// double kernels, with all arithmetic in float.

void gemv(float alpha, std::size_t rows, std::size_t cols, const float* b,
          std::size_t lda, const float* x, float beta, float* y);

void gemv_t(float alpha, std::size_t rows, std::size_t cols, const float* b,
            std::size_t lda, const float* x, float beta, float* y);

void gemv(float alpha, const BasisViewT<float>& q, std::span<const float> x,
          float beta, std::span<float> y);

void gemv_t(float alpha, const BasisViewT<float>& q, std::span<const float> x,
            float beta, std::span<float> y);

/// y := alpha*A*x + beta*y.
void gemv(double alpha, const DenseMatrix& A, const Vector& x, double beta,
          Vector& y);

/// y := alpha*A^T*x + beta*y.
void gemv_t(double alpha, const DenseMatrix& A, const Vector& x, double beta,
            Vector& y);

/// C := A*B (no accumulation; C is reshaped as needed).
void gemm(const DenseMatrix& A, const DenseMatrix& B, DenseMatrix& C);

/// Frobenius norm of a dense matrix.
[[nodiscard]] double frobenius_norm(const DenseMatrix& A);

/// Maximum absolute deviation of A^T*A from the identity; measures loss of
/// orthonormality of A's columns (used by the Arnoldi property tests).
[[nodiscard]] double orthonormality_defect(const DenseMatrix& A);

/// Same measure over a contiguous basis view.
[[nodiscard]] double orthonormality_defect(const BasisView& q);

} // namespace sdcgmres::la
