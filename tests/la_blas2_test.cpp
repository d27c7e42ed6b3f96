#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "la/blas2.hpp"
#include "la/krylov_basis.hpp"
#include "reference_sum_order.hpp"

namespace la = sdcgmres::la;

namespace {

double entry(std::size_t i, std::size_t j) {
  return std::sin(1.3 * static_cast<double>(i) +
                  0.7 * static_cast<double>(j)) +
         0.01 * static_cast<double>((i + 2 * j) % 7);
}

la::DenseMatrix test_matrix(std::size_t rows, std::size_t cols) {
  la::DenseMatrix a(rows, cols);
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i < rows; ++i) a(i, j) = entry(i, j);
  }
  return a;
}

la::KrylovBasis test_basis(std::size_t rows, std::size_t cols) {
  la::KrylovBasis b(rows, cols);
  for (std::size_t j = 0; j < cols; ++j) {
    std::span<double> c = b.append();
    for (std::size_t i = 0; i < rows; ++i) c[i] = entry(i, j);
  }
  return b;
}

la::Vector test_vector(std::size_t n, double phase) {
  la::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::cos(0.9 * static_cast<double>(i) + phase);
  }
  return v;
}

/// Textbook row-by-row reference, deliberately unblocked.
la::Vector naive_gemv(double alpha, const la::DenseMatrix& a,
                      const la::Vector& x, double beta, const la::Vector& y0) {
  la::Vector y = y0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) sum += a(i, j) * x[j];
    y[i] = alpha * sum + beta * y0[i];
  }
  return y;
}

la::Vector naive_gemv_t(double alpha, const la::DenseMatrix& a,
                        const la::Vector& x, double beta,
                        const la::Vector& y0) {
  la::Vector y = y0;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) sum += a(i, j) * x[i];
    y[j] = alpha * sum + beta * y0[j];
  }
  return y;
}

} // namespace

/// The blocked kernels must agree with the naive reference across column
/// counts straddling the 4-wide block boundary (1..9 exercises full
/// blocks, remainders, and the empty remainder).
TEST(Blas2Gemv, BlockedMatchesNaiveAcrossColumnCounts) {
  const std::size_t rows = 53;
  for (std::size_t cols = 1; cols <= 9; ++cols) {
    const auto a = test_matrix(rows, cols);
    const auto x = test_vector(cols, 0.2);
    const auto y0 = test_vector(rows, 1.1);
    for (const double beta : {0.0, 1.0, -0.5}) {
      la::Vector y = y0;
      la::gemv(2.0, a, x, beta, y);
      const la::Vector ref = naive_gemv(2.0, a, x, beta, y0);
      for (std::size_t i = 0; i < rows; ++i) {
        EXPECT_NEAR(y[i], ref[i], 1e-12) << "cols=" << cols
                                         << " beta=" << beta << " i=" << i;
      }
    }
  }
}

TEST(Blas2GemvT, BlockedMatchesNaiveAcrossColumnCounts) {
  const std::size_t rows = 53;
  for (std::size_t cols = 1; cols <= 9; ++cols) {
    const auto a = test_matrix(rows, cols);
    const auto x = test_vector(rows, 0.4);
    const auto y0 = test_vector(cols, 2.3);
    for (const double beta : {0.0, 1.0, -0.5}) {
      la::Vector y = y0;
      la::gemv_t(1.5, a, x, beta, y);
      const la::Vector ref = naive_gemv_t(1.5, a, x, beta, y0);
      for (std::size_t j = 0; j < cols; ++j) {
        EXPECT_NEAR(y[j], ref[j], 1e-12) << "cols=" << cols
                                         << " beta=" << beta << " j=" << j;
      }
    }
  }
}

/// With beta == 0, y must be overwritten even when it starts as NaN (the
/// coefficients buffer of the fused CGS pass is uninitialized scratch).
TEST(Blas2GemvT, BetaZeroOverwritesNonFiniteY) {
  const auto a = test_matrix(10, 3);
  const auto x = test_vector(10, 0.0);
  la::Vector y(3, std::nan(""));
  la::gemv_t(1.0, a, x, 0.0, y);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_TRUE(std::isfinite(y[j]));
}

TEST(Blas2Gemv, BetaZeroOverwritesNonFiniteY) {
  const auto a = test_matrix(6, 2);
  const auto x = test_vector(2, 0.0);
  la::Vector y(6, std::nan(""));
  la::gemv(1.0, a, x, 0.0, y);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_TRUE(std::isfinite(y[i]));
}

/// Each gemv_t coefficient is summed in la::dot's documented order:
/// bitwise equality with the scalar reference, not just closeness.  This is
/// what makes the fused CGS hook values identical to the per-vector path.
TEST(Blas2GemvT, CoefficientsBitwiseMatchReferenceOrderDot) {
  const std::size_t cols = 7;
  // One short block, a block plus one, and three blocks plus a ragged tail.
  for (const std::size_t rows : {257u, 4097u, 3u * 4096u + 5u}) {
    const auto b = test_basis(rows, cols);
    const auto x = test_vector(rows, 0.8);
    std::vector<double> y(cols, 0.0);
    la::gemv_t(1.0, b.view(cols), x.span(), 0.0, y);
    for (std::size_t j = 0; j < cols; ++j) {
      EXPECT_EQ(y[j], sdcgmres::reference::dot<double>(b.col(j), x.span()))
          << "rows " << rows << " column " << j;
    }
  }
}

TEST(Blas2BasisView, GemvAgreesWithDenseCopy) {
  const std::size_t rows = 31;
  const std::size_t cols = 6;
  const auto b = test_basis(rows, cols);
  const la::DenseMatrix a = b.to_dense();
  const auto x = test_vector(cols, 0.5);
  la::Vector y_basis(rows);
  la::gemv(1.0, b.view(cols), x.span(), 0.0, y_basis.span());
  la::Vector y_dense(rows);
  la::gemv(1.0, a, x, 0.0, y_dense);
  for (std::size_t i = 0; i < rows; ++i) {
    EXPECT_DOUBLE_EQ(y_basis[i], y_dense[i]);
  }
}

TEST(Blas2BasisView, DimensionMismatchThrows) {
  const auto b = test_basis(5, 2);
  la::Vector x(3), y(5);
  EXPECT_THROW(la::gemv(1.0, b.view(2), x.span(), 0.0, y.span()),
               std::invalid_argument);
  EXPECT_THROW(la::gemv_t(1.0, b.view(2), y.span(), 0.0, x.span()),
               std::invalid_argument);
}

TEST(Blas2, OrthonormalityDefectOnBasisView) {
  la::KrylovBasis b(4, 2);
  b.append(la::Vector{1.0, 0.0, 0.0, 0.0});
  b.append(la::Vector{0.0, 1.0, 0.0, 0.0});
  EXPECT_NEAR(la::orthonormality_defect(b.view()), 0.0, 1e-15);
  // Perturb: defect must track the perturbation.
  b.col(1)[0] = 0.25;
  EXPECT_NEAR(la::orthonormality_defect(b.view()), 0.25, 1e-12);
}
