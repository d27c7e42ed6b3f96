#include "la/blas2.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "la/blas1.hpp"

namespace sdcgmres::la {

namespace {

/// Row-chunk size for gemv: the y chunk stays cache-resident while all
/// columns stream past it (one pass over B, ~cols/4 passes over y instead
/// of cols).
constexpr std::size_t kGemvRowChunk = 4096;

void gemv_chunk(double alpha, std::size_t rows, std::size_t cols,
                const double* b, std::size_t lda, const double* x,
                double beta, double* y, std::size_t r0, std::size_t r1) {
  (void)rows;
  if (beta == 0.0) {
    for (std::size_t i = r0; i < r1; ++i) y[i] = 0.0;
  } else if (beta != 1.0) {
    for (std::size_t i = r0; i < r1; ++i) y[i] *= beta;
  }
  std::size_t j = 0;
  for (; j + 4 <= cols; j += 4) {
    const double* c0 = b + j * lda;
    const double* c1 = c0 + lda;
    const double* c2 = c1 + lda;
    const double* c3 = c2 + lda;
    const double a0 = alpha * x[j];
    const double a1 = alpha * x[j + 1];
    const double a2 = alpha * x[j + 2];
    const double a3 = alpha * x[j + 3];
    for (std::size_t i = r0; i < r1; ++i) {
      y[i] += a0 * c0[i] + a1 * c1[i] + a2 * c2[i] + a3 * c3[i];
    }
  }
  for (; j < cols; ++j) {
    const double* cj = b + j * lda;
    const double aj = alpha * x[j];
    for (std::size_t i = r0; i < r1; ++i) {
      y[i] += aj * cj[i];
    }
  }
}

// Each y[j] is alpha * la::dot(column j, x) (+ beta * y[j]): la::dot_columns
// carries the one summation order of blas1, so the fused CGS path sees the
// same coefficients as the per-vector path.
template <typename S>
void gemv_t_columns(S alpha, std::size_t rows, std::size_t cols, const S* b,
                    std::size_t lda, const S* x, S beta, S* y) {
  if (beta == S(0)) {
    dot_columns(rows, cols, b, lda, x, y);
    for (std::size_t j = 0; j < cols; ++j) y[j] = alpha * y[j];
    return;
  }
  std::vector<S> s(cols);
  dot_columns(rows, cols, b, lda, x, s.data());
  for (std::size_t j = 0; j < cols; ++j) y[j] = alpha * s[j] + beta * y[j];
}

} // namespace

void gemv(double alpha, std::size_t rows, std::size_t cols, const double* b,
          std::size_t lda, const double* x, double beta, double* y) {
  const auto nchunks = static_cast<std::int64_t>(
      (rows + kGemvRowChunk - 1) / kGemvRowChunk);
#pragma omp parallel for schedule(static) if (nchunks > 1 && rows * cols > 65536)
  for (std::int64_t c = 0; c < nchunks; ++c) {
    const std::size_t r0 = static_cast<std::size_t>(c) * kGemvRowChunk;
    const std::size_t r1 = std::min(rows, r0 + kGemvRowChunk);
    gemv_chunk(alpha, rows, cols, b, lda, x, beta, y, r0, r1);
  }
}

void gemv_t(double alpha, std::size_t rows, std::size_t cols, const double* b,
            std::size_t lda, const double* x, double beta, double* y) {
  gemv_t_columns(alpha, rows, cols, b, lda, x, beta, y);
}

void gemv(double alpha, const BasisView& q, std::span<const double> x,
          double beta, std::span<double> y) {
  if (x.size() != q.cols()) {
    throw std::invalid_argument("la::gemv: x size must equal basis cols");
  }
  if (y.size() != q.rows()) {
    throw std::invalid_argument("la::gemv: y size must equal basis rows");
  }
  gemv(alpha, q.rows(), q.cols(), q.data(), q.ld(), x.data(), beta,
       y.data());
}

void gemv_t(double alpha, const BasisView& q, std::span<const double> x,
            double beta, std::span<double> y) {
  if (x.size() != q.rows()) {
    throw std::invalid_argument("la::gemv_t: x size must equal basis rows");
  }
  if (y.size() != q.cols()) {
    throw std::invalid_argument("la::gemv_t: y size must equal basis cols");
  }
  gemv_t(alpha, q.rows(), q.cols(), q.data(), q.ld(), x.data(), beta,
         y.data());
}

// --- Float kernels ----------------------------------------------------------
//
// Float mirrors of the raw kernels above: identical blocking and
// accumulation order, all arithmetic in float.

namespace {

void gemv_chunk_f(float alpha, std::size_t cols, const float* b,
                  std::size_t lda, const float* x, float beta, float* y,
                  std::size_t r0, std::size_t r1) {
  if (beta == 0.0f) {
    for (std::size_t i = r0; i < r1; ++i) y[i] = 0.0f;
  } else if (beta != 1.0f) {
    for (std::size_t i = r0; i < r1; ++i) y[i] *= beta;
  }
  std::size_t j = 0;
  for (; j + 4 <= cols; j += 4) {
    const float* c0 = b + j * lda;
    const float* c1 = c0 + lda;
    const float* c2 = c1 + lda;
    const float* c3 = c2 + lda;
    const float a0 = alpha * x[j];
    const float a1 = alpha * x[j + 1];
    const float a2 = alpha * x[j + 2];
    const float a3 = alpha * x[j + 3];
    for (std::size_t i = r0; i < r1; ++i) {
      y[i] += a0 * c0[i] + a1 * c1[i] + a2 * c2[i] + a3 * c3[i];
    }
  }
  for (; j < cols; ++j) {
    const float* cj = b + j * lda;
    const float aj = alpha * x[j];
    for (std::size_t i = r0; i < r1; ++i) {
      y[i] += aj * cj[i];
    }
  }
}

} // namespace

void gemv(float alpha, std::size_t rows, std::size_t cols, const float* b,
          std::size_t lda, const float* x, float beta, float* y) {
  const auto nchunks = static_cast<std::int64_t>(
      (rows + kGemvRowChunk - 1) / kGemvRowChunk);
#pragma omp parallel for schedule(static) if (nchunks > 1 && rows * cols > 65536)
  for (std::int64_t c = 0; c < nchunks; ++c) {
    const std::size_t r0 = static_cast<std::size_t>(c) * kGemvRowChunk;
    const std::size_t r1 = std::min(rows, r0 + kGemvRowChunk);
    gemv_chunk_f(alpha, cols, b, lda, x, beta, y, r0, r1);
  }
}

void gemv_t(float alpha, std::size_t rows, std::size_t cols, const float* b,
            std::size_t lda, const float* x, float beta, float* y) {
  gemv_t_columns(alpha, rows, cols, b, lda, x, beta, y);
}

void gemv(float alpha, const BasisViewT<float>& q, std::span<const float> x,
          float beta, std::span<float> y) {
  if (x.size() != q.cols()) {
    throw std::invalid_argument("la::gemv: x size must equal basis cols");
  }
  if (y.size() != q.rows()) {
    throw std::invalid_argument("la::gemv: y size must equal basis rows");
  }
  gemv(alpha, q.rows(), q.cols(), q.data(), q.ld(), x.data(), beta,
       y.data());
}

void gemv_t(float alpha, const BasisViewT<float>& q, std::span<const float> x,
            float beta, std::span<float> y) {
  if (x.size() != q.rows()) {
    throw std::invalid_argument("la::gemv_t: x size must equal basis rows");
  }
  if (y.size() != q.cols()) {
    throw std::invalid_argument("la::gemv_t: y size must equal basis cols");
  }
  gemv_t(alpha, q.rows(), q.cols(), q.data(), q.ld(), x.data(), beta,
         y.data());
}

void gemv(double alpha, const DenseMatrix& A, const Vector& x, double beta,
          Vector& y) {
  if (x.size() != A.cols()) {
    throw std::invalid_argument("la::gemv: x size must equal A.cols()");
  }
  if (y.size() != A.rows()) {
    throw std::invalid_argument("la::gemv: y size must equal A.rows()");
  }
  gemv(alpha, A.rows(), A.cols(), A.data(), A.rows(), x.data(), beta,
       y.data());
}

void gemv_t(double alpha, const DenseMatrix& A, const Vector& x, double beta,
            Vector& y) {
  if (x.size() != A.rows()) {
    throw std::invalid_argument("la::gemv_t: x size must equal A.rows()");
  }
  if (y.size() != A.cols()) {
    throw std::invalid_argument("la::gemv_t: y size must equal A.cols()");
  }
  gemv_t(alpha, A.rows(), A.cols(), A.data(), A.rows(), x.data(), beta,
         y.data());
}

void gemm(const DenseMatrix& A, const DenseMatrix& B, DenseMatrix& C) {
  if (A.cols() != B.rows()) {
    throw std::invalid_argument("la::gemm: inner dimensions must agree");
  }
  C.reshape(A.rows(), B.cols());
  for (std::size_t j = 0; j < B.cols(); ++j) {
    for (std::size_t k = 0; k < A.cols(); ++k) {
      const double bkj = B(k, j);
      if (bkj == 0.0) continue;
      const double* colk = A.col(k);
      double* coutj = C.col(j);
      for (std::size_t i = 0; i < A.rows(); ++i) {
        coutj[i] += colk[i] * bkj;
      }
    }
  }
}

double frobenius_norm(const DenseMatrix& A) {
  double sum = 0.0;
  for (std::size_t j = 0; j < A.cols(); ++j) {
    const double* colj = A.col(j);
    for (std::size_t i = 0; i < A.rows(); ++i) {
      sum += colj[i] * colj[i];
    }
  }
  return std::sqrt(sum);
}

namespace {

double orthonormality_defect_impl(const double* data, std::size_t rows,
                                  std::size_t cols, std::size_t lda) {
  double worst = 0.0;
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t k = j; k < cols; ++k) {
      const double sum = dot(std::span<const double>(data + j * lda, rows),
                             std::span<const double>(data + k * lda, rows));
      const double target = (j == k) ? 1.0 : 0.0;
      worst = std::max(worst, std::abs(sum - target));
    }
  }
  return worst;
}

} // namespace

double orthonormality_defect(const DenseMatrix& A) {
  return orthonormality_defect_impl(A.data(), A.rows(), A.cols(), A.rows());
}

double orthonormality_defect(const BasisView& q) {
  return orthonormality_defect_impl(q.data(), q.rows(), q.cols(), q.ld());
}

} // namespace sdcgmres::la
