#include "sparse/sell.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace sdcgmres::sparse {

SellMatrix::SellMatrix(const CsrMatrix& src, std::size_t chunk,
                       std::size_t sigma_chunks)
    : rows_(src.rows()), cols_(src.cols()), nnz_(src.nnz()), chunk_(chunk),
      sigma_(sigma_chunks) {
  if (chunk == 0 || chunk > kMaxChunk) {
    throw std::invalid_argument(
        "SellMatrix: chunk height C must be in [1, 256]");
  }
  if (sigma_chunks == 0) {
    throw std::invalid_argument(
        "SellMatrix: sorting window sigma must be >= 1 chunk");
  }
  const std::vector<std::size_t>& rp = src.row_ptr();
  n_chunks_ = (rows_ + chunk_ - 1) / chunk_;

  // Windowed length sort: stable descending-by-length inside windows of
  // sigma chunks, so ties keep CSR row order and the permutation is
  // deterministic.  Every chunk is a contiguous slice of one sorted
  // window, hence slot lengths are non-increasing inside each chunk --
  // the invariant the active-prefix kernels rely on.
  perm_.resize(rows_);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});
  const std::size_t window = chunk_ * sigma_;
  for (std::size_t w0 = 0; w0 < rows_; w0 += window) {
    const std::size_t w1 = std::min(rows_, w0 + window);
    std::stable_sort(perm_.begin() + static_cast<std::ptrdiff_t>(w0),
                     perm_.begin() + static_cast<std::ptrdiff_t>(w1),
                     [&rp](std::size_t a, std::size_t b) {
                       return rp[a + 1] - rp[a] > rp[b + 1] - rp[b];
                     });
  }
  inv_perm_.resize(rows_);
  for (std::size_t s = 0; s < rows_; ++s) inv_perm_[perm_[s]] = s;

  // Slot lengths (phantom slots past rows() stay 0) and chunk offsets:
  // each chunk is padded to its longest slot, which is slot 0 after the
  // descending sort.
  len_.assign(n_chunks_ * chunk_, 0);
  for (std::size_t s = 0; s < rows_; ++s) {
    len_[s] = rp[perm_[s] + 1] - rp[perm_[s]];
  }
  chunk_ptr_.assign(n_chunks_ + 1, 0);
  for (std::size_t c = 0; c < n_chunks_; ++c) {
    chunk_ptr_[c + 1] = chunk_ptr_[c] + len_[c * chunk_] * chunk_;
  }

  // Fill, column-major inside each chunk and left-aligned, keeping every
  // row's ascending-column CSR entry order along j.  Padding slots hold
  // +0.0 / column 0 purely for alignment; the kernels never read them.
  values_.assign(chunk_ptr_[n_chunks_], 0.0);
  col_idx_.assign(chunk_ptr_[n_chunks_], 0);
  const std::vector<std::size_t>& sci = src.col_idx();
  const std::vector<double>& sv = src.values();
  for (std::size_t s = 0; s < rows_; ++s) {
    const std::size_t c = s / chunk_;
    const std::size_t r = s % chunk_;
    const std::size_t kb = rp[perm_[s]];
    for (std::size_t j = 0; j < len_[s]; ++j) {
      const std::size_t slot = chunk_ptr_[c] + j * chunk_ + r;
      values_[slot] = sv[kb + j];
      col_idx_[slot] = sci[kb + j];
    }
  }
}

void SellMatrix::spmv(std::span<const double> x, std::span<double> y) const {
  if (x.size() != cols_) {
    throw std::invalid_argument("SellMatrix::spmv: x size mismatch");
  }
  if (y.size() != rows_) {
    throw std::invalid_argument("SellMatrix::spmv: y size mismatch");
  }
  const double* px = x.data();
  double* py = y.data();
  detail::dispatch_chunk(chunk_, [&](auto c0) {
    detail::sell_spmv_core<decltype(c0)::value, double, std::size_t>(
        rows_, n_chunks_, chunk_, chunk_ptr_.data(), len_.data(), perm_.data(),
        values_.data(), col_idx_.data(), px, py);
  });
}

void SellMatrix::spmm(std::size_t ncols, const double* x, std::size_t ldx,
                      double* y, std::size_t ldy) const {
  if (ncols == 0) return;
  detail::dispatch_chunk(chunk_, [&](auto c0) {
    detail::sell_spmm_core<decltype(c0)::value, double, std::size_t>(
        rows_, n_chunks_, chunk_, chunk_ptr_.data(), len_.data(), perm_.data(),
        values_.data(), col_idx_.data(), ncols, x, ldx, y, ldy);
  });
}

void SellMatrix::spmm(const la::BasisView& x, la::BlockView y) const {
  if (x.cols() == 0 && y.cols() == 0) return;
  if (x.rows() != cols_) {
    throw std::invalid_argument("SellMatrix::spmm: X row count mismatch");
  }
  if (y.rows() != rows_ || y.cols() != x.cols()) {
    throw std::invalid_argument("SellMatrix::spmm: Y shape mismatch");
  }
  spmm(x.cols(), x.data(), x.ld(), y.data(), y.ld());
}

} // namespace sdcgmres::sparse
