#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace sdcgmres::sparse {

CsrMatrix::CsrMatrix(CooMatrix coo) : rows_(coo.rows()), cols_(coo.cols()) {
  coo.compress();
  const auto& entries = coo.entries();
  row_ptr_.assign(rows_ + 1, 0);
  col_idx_.reserve(entries.size());
  values_.reserve(entries.size());
  for (const Triplet& t : entries) {
    ++row_ptr_[t.row + 1];
    col_idx_.push_back(t.col);
    values_.push_back(t.value);
  }
  for (std::size_t i = 0; i < rows_; ++i) {
    row_ptr_[i + 1] += row_ptr_[i];
  }
  validate();
}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::size_t> row_ptr,
                     std::vector<std::size_t> col_idx,
                     std::vector<double> values)
    : rows_(rows), cols_(cols), row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)), values_(std::move(values)) {
  validate();
}

void CsrMatrix::validate() const {
  if (row_ptr_.size() != rows_ + 1) {
    throw std::invalid_argument("CsrMatrix: row_ptr size must be rows+1");
  }
  if (row_ptr_.front() != 0 || row_ptr_.back() != values_.size() ||
      col_idx_.size() != values_.size()) {
    throw std::invalid_argument("CsrMatrix: inconsistent CSR arrays");
  }
  for (std::size_t i = 0; i < rows_; ++i) {
    if (row_ptr_[i] > row_ptr_[i + 1]) {
      throw std::invalid_argument("CsrMatrix: row_ptr must be nondecreasing");
    }
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      if (col_idx_[k] >= cols_) {
        throw std::invalid_argument("CsrMatrix: column index out of range");
      }
      if (k > row_ptr_[i] && col_idx_[k] <= col_idx_[k - 1]) {
        throw std::invalid_argument(
            "CsrMatrix: column indices must be strictly increasing per row");
      }
    }
  }
}

std::span<const std::size_t> CsrMatrix::row_cols(std::size_t i) const {
  if (i >= rows_) throw std::out_of_range("CsrMatrix::row_cols");
  return {col_idx_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
}

std::span<const double> CsrMatrix::row_values(std::size_t i) const {
  if (i >= rows_) throw std::out_of_range("CsrMatrix::row_values");
  return {values_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
}

double CsrMatrix::at(std::size_t i, std::size_t j) const {
  if (i >= rows_ || j >= cols_) throw std::out_of_range("CsrMatrix::at");
  const auto cols = row_cols(i);
  const auto it = std::lower_bound(cols.begin(), cols.end(), j);
  if (it == cols.end() || *it != j) return 0.0;
  return values_[row_ptr_[i] + static_cast<std::size_t>(it - cols.begin())];
}

void CsrMatrix::spmv(std::span<const double> x, std::span<double> y) const {
  if (x.size() != cols_) {
    throw std::invalid_argument("CsrMatrix::spmv: x size mismatch");
  }
  if (y.size() != rows_) {
    throw std::invalid_argument("CsrMatrix::spmv: y size mismatch");
  }
  detail::csr_spmv_core(rows_, row_ptr_.data(), col_idx_.data(),
                        values_.data(), x.data(), y.data());
}

void CsrMatrix::spmv(std::span<const double> x, la::Vector& y) const {
  if (y.size() != rows_) y.resize(rows_);
  spmv(x, y.span());
}

void CsrMatrix::spmv(const la::Vector& x, la::Vector& y) const {
  spmv(x.span(), y);
}

void CsrMatrix::spmm(std::size_t ncols, const double* x, std::size_t ldx,
                     double* y, std::size_t ldy) const {
  // Zero-column blocks are a no-op, returned before any pointer
  // arithmetic (see detail::csr_spmm_core).
  if (ncols == 0) return;
  detail::csr_spmm_core(rows_, row_ptr_.data(), col_idx_.data(),
                        values_.data(), ncols, x, ldx, y, ldy);
}

void CsrMatrix::spmm(const la::BasisView& x, la::KrylovBasis& y) const {
  if (x.cols() == 0 && y.cols() == 0) return; // empty block: nothing to do
  if (x.rows() != cols_) {
    throw std::invalid_argument("CsrMatrix::spmm: X row count mismatch");
  }
  if (y.rows() != rows_ || y.cols() != x.cols()) {
    throw std::invalid_argument("CsrMatrix::spmm: Y shape mismatch");
  }
  spmm(x.cols(), x.data(), x.ld(), y.data(), y.ld());
}

void CsrMatrix::spmv_transpose(std::span<const double> x, la::Vector& y) const {
  if (x.size() != rows_) {
    throw std::invalid_argument("CsrMatrix::spmv_transpose: x size mismatch");
  }
  y.resize(cols_);
#ifdef _OPENMP
  const int max_threads = omp_get_max_threads();
  if (max_threads > 1 && nnz() > 16384) {
    // Column-ownership parallelization: a one-time O(nnz + cols) partition
    // assigns each chunk a contiguous, nnz-balanced column range that it
    // ALONE writes.  Every chunk scans all rows in ascending order (with
    // the same xi == 0 skip as the serial path) and, per row, locates its
    // column sub-range by binary search -- valid because validate()
    // guarantees strictly increasing column indices per row.  Each output
    // column therefore accumulates its terms in exactly the serial row
    // order, so results are bitwise identical to the serial fallback, with
    // NO per-thread dense buffers (the old scheme cost O(threads * cols)
    // scratch plus a reduction pass; this writes y directly).
    std::vector<std::size_t> col_prefix(cols_ + 1, 0);
    for (const std::size_t j : col_idx_) ++col_prefix[j + 1];
    for (std::size_t j = 0; j < cols_; ++j) col_prefix[j + 1] += col_prefix[j];
    const int nchunks = max_threads;
    std::vector<std::size_t> bounds(static_cast<std::size_t>(nchunks) + 1);
    bounds[0] = 0;
    bounds[static_cast<std::size_t>(nchunks)] = cols_;
    for (int t = 1; t < nchunks; ++t) {
      const std::size_t target =
          (nnz() * static_cast<std::size_t>(t)) / static_cast<std::size_t>(nchunks);
      bounds[static_cast<std::size_t>(t)] = static_cast<std::size_t>(
          std::lower_bound(col_prefix.begin(), col_prefix.end(), target) -
          col_prefix.begin());
    }
    const std::size_t* cbeg = col_idx_.data();
    double* py = y.data();
#pragma omp parallel for schedule(static) num_threads(max_threads)
    for (int t = 0; t < nchunks; ++t) {
      const std::size_t c_lo = bounds[static_cast<std::size_t>(t)];
      const std::size_t c_hi = bounds[static_cast<std::size_t>(t) + 1];
      if (c_lo == c_hi) continue;
      std::fill(py + c_lo, py + c_hi, 0.0);
      for (std::size_t i = 0; i < rows_; ++i) {
        const double xi = x[i];
        if (xi == 0.0) continue;
        const std::size_t kb = row_ptr_[i];
        const std::size_t ke = row_ptr_[i + 1];
        const std::size_t k0 = static_cast<std::size_t>(
            std::lower_bound(cbeg + kb, cbeg + ke, c_lo) - cbeg);
        const std::size_t k1 = static_cast<std::size_t>(
            std::lower_bound(cbeg + k0, cbeg + ke, c_hi) - cbeg);
        for (std::size_t k = k0; k < k1; ++k) {
          py[cbeg[k]] += values_[k] * xi;
        }
      }
    }
    return;
  }
#endif
  y.fill(0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      y[col_idx_[k]] += values_[k] * xi;
    }
  }
}

void CsrMatrix::spmv_transpose(const la::Vector& x, la::Vector& y) const {
  spmv_transpose(x.span(), y);
}

void CsrMatrix::spmm_transpose(std::size_t ncols, const double* x,
                               std::size_t ldx, double* y,
                               std::size_t ldy) const {
  if (ncols == 0) return; // empty block: no pointer arithmetic (see spmm)
  // Operand columns go in blocks of 4: one pass over the matrix per block
  // instead of one per operand.  Each output column accumulates in
  // ascending-row order with spmv_transpose's x_i == 0 row skip applied
  // PER COLUMN (the skip only elides += of a*0 terms for that column), so
  // every output column is bitwise identical to a separate spmv_transpose.
  for (std::size_t c0 = 0; c0 < ncols; c0 += 4) {
    const std::size_t bw = std::min<std::size_t>(4, ncols - c0);
    const double* x0 = x + c0 * ldx;
    double* y0 = y + c0 * ldy;
#ifdef _OPENMP
    const int max_threads = omp_get_max_threads();
    if (max_threads > 1 && nnz() > 16384) {
      // Same column-ownership parallelization as spmv_transpose: each
      // chunk alone writes a contiguous, nnz-balanced matrix-column range
      // of every output column, scanning the rows in serial order, so the
      // threaded fused product stays bitwise identical too.
      std::vector<std::size_t> col_prefix(cols_ + 1, 0);
      for (const std::size_t j : col_idx_) ++col_prefix[j + 1];
      for (std::size_t j = 0; j < cols_; ++j) {
        col_prefix[j + 1] += col_prefix[j];
      }
      const int nchunks = max_threads;
      std::vector<std::size_t> bounds(static_cast<std::size_t>(nchunks) + 1);
      bounds[0] = 0;
      bounds[static_cast<std::size_t>(nchunks)] = cols_;
      for (int t = 1; t < nchunks; ++t) {
        const std::size_t target = (nnz() * static_cast<std::size_t>(t)) /
                                   static_cast<std::size_t>(nchunks);
        bounds[static_cast<std::size_t>(t)] = static_cast<std::size_t>(
            std::lower_bound(col_prefix.begin(), col_prefix.end(), target) -
            col_prefix.begin());
      }
      const std::size_t* cbeg = col_idx_.data();
#pragma omp parallel for schedule(static) num_threads(max_threads)
      for (int t = 0; t < nchunks; ++t) {
        const std::size_t c_lo = bounds[static_cast<std::size_t>(t)];
        const std::size_t c_hi = bounds[static_cast<std::size_t>(t) + 1];
        if (c_lo == c_hi) continue;
        for (std::size_t c = 0; c < bw; ++c) {
          std::fill(y0 + c * ldy + c_lo, y0 + c * ldy + c_hi, 0.0);
        }
        for (std::size_t i = 0; i < rows_; ++i) {
          double xi[4];
          bool any = false;
          for (std::size_t c = 0; c < bw; ++c) {
            xi[c] = x0[i + c * ldx];
            any = any || xi[c] != 0.0;
          }
          if (!any) continue;
          const std::size_t kb = row_ptr_[i];
          const std::size_t ke = row_ptr_[i + 1];
          const std::size_t k0 = static_cast<std::size_t>(
              std::lower_bound(cbeg + kb, cbeg + ke, c_lo) - cbeg);
          const std::size_t k1 = static_cast<std::size_t>(
              std::lower_bound(cbeg + k0, cbeg + ke, c_hi) - cbeg);
          for (std::size_t k = k0; k < k1; ++k) {
            const double a = values_[k];
            const std::size_t j = cbeg[k];
            for (std::size_t c = 0; c < bw; ++c) {
              if (xi[c] != 0.0) y0[j + c * ldy] += a * xi[c];
            }
          }
        }
      }
      continue;
    }
#endif
    for (std::size_t c = 0; c < bw; ++c) {
      std::fill(y0 + c * ldy, y0 + c * ldy + cols_, 0.0);
    }
    for (std::size_t i = 0; i < rows_; ++i) {
      double xi[4];
      bool any = false;
      for (std::size_t c = 0; c < bw; ++c) {
        xi[c] = x0[i + c * ldx];
        any = any || xi[c] != 0.0;
      }
      if (!any) continue;
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        const double a = values_[k];
        const std::size_t j = col_idx_[k];
        for (std::size_t c = 0; c < bw; ++c) {
          if (xi[c] != 0.0) y0[j + c * ldy] += a * xi[c];
        }
      }
    }
  }
}

void CsrMatrix::spmm_transpose(const la::BasisView& x,
                               la::KrylovBasis& y) const {
  if (x.cols() == 0 && y.cols() == 0) return; // empty block: nothing to do
  if (x.rows() != rows_) {
    throw std::invalid_argument("CsrMatrix::spmm_transpose: X row count "
                                "mismatch");
  }
  if (y.rows() != cols_ || y.cols() != x.cols()) {
    throw std::invalid_argument("CsrMatrix::spmm_transpose: Y shape "
                                "mismatch");
  }
  spmm_transpose(x.cols(), x.data(), x.ld(), y.data(), y.ld());
}

la::Vector CsrMatrix::apply(const la::Vector& x) const {
  la::Vector y(rows_);
  spmv(x, y);
  return y;
}

la::Vector CsrMatrix::diagonal() const {
  const std::size_t n = std::min(rows_, cols_);
  la::Vector d(n);
  // Single pass over the stored entries; column indices are strictly
  // increasing per row, so the scan can stop at the first index >= i.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const std::size_t j = col_idx_[k];
      if (j >= i) {
        if (j == i) d[i] = values_[k];
        break;
      }
    }
  }
  return d;
}

CsrMatrix CsrMatrix::transposed() const {
  // Counting-sort transpose: O(nnz), no COO round-trip, no re-sort.  The
  // result's per-row column indices are increasing by construction (rows
  // are visited in order), so the CSR invariants hold without validate().
  std::vector<std::size_t> t_row_ptr(cols_ + 1, 0);
  for (const std::size_t j : col_idx_) ++t_row_ptr[j + 1];
  for (std::size_t j = 0; j < cols_; ++j) t_row_ptr[j + 1] += t_row_ptr[j];
  std::vector<std::size_t> t_col_idx(nnz());
  std::vector<double> t_values(nnz());
  std::vector<std::size_t> next(t_row_ptr.begin(), t_row_ptr.end() - 1);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const std::size_t pos = next[col_idx_[k]]++;
      t_col_idx[pos] = i;
      t_values[pos] = values_[k];
    }
  }
  return CsrMatrix(Prevalidated{}, cols_, rows_, std::move(t_row_ptr),
                   std::move(t_col_idx), std::move(t_values));
}

double CsrMatrix::frobenius_norm() const {
  double sum = 0.0;
  for (const double v : values_) sum += v * v;
  return std::sqrt(sum);
}

CsrMatrix CsrMatrix::scaled(double alpha) const {
  std::vector<double> vals = values_;
  for (double& v : vals) v *= alpha;
  return CsrMatrix(Prevalidated{}, rows_, cols_, row_ptr_, col_idx_,
                   std::move(vals));
}

CooMatrix CsrMatrix::to_coo() const {
  CooMatrix coo(rows_, cols_);
  coo.reserve(nnz());
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      coo.add(i, col_idx_[k], values_[k]);
    }
  }
  return coo;
}

} // namespace sdcgmres::sparse
