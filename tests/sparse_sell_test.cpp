#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "gen/circuit.hpp"
#include "gen/convection_diffusion.hpp"
#include "gen/poisson.hpp"
#include "gen/random_sparse.hpp"
#include "la/block.hpp"
#include "la/krylov_basis.hpp"
#include "sparse/csr.hpp"
#include "sparse/csr_mixed.hpp"
#include "sparse/sell.hpp"

namespace sparse = sdcgmres::sparse;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;

namespace {

/// Ragged matrix exercising every structural corner: an empty row, a
/// dense row, single-entry rows, and a row count that is not a multiple
/// of any chunk height (phantom slots in the last chunk).
sparse::CsrMatrix ragged_matrix() {
  const std::size_t n = 11;
  sparse::CooMatrix coo(n, n);
  for (std::size_t j = 0; j < n; ++j) coo.add(0, j, 1.0 + 0.1 * j); // dense
  // Row 3 stays empty.
  for (std::size_t i = 1; i < n; ++i) {
    if (i == 3) continue;
    coo.add(i, i, 2.0 + i);
    if (i + 2 < n) coo.add(i, i + 2, -0.5 * i);
    if (i % 3 == 0 && i >= 2) coo.add(i, i - 2, 0.25);
  }
  return sparse::CsrMatrix(std::move(coo));
}

la::Vector test_vector(std::size_t n, double phase = 0.0) {
  la::Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(0.7 * static_cast<double>(i + 1) + phase) + 0.25;
  }
  return x;
}

void expect_bitwise_spmv(const sparse::CsrMatrix& A, std::size_t chunk,
                         std::size_t sigma) {
  const sparse::SellMatrix S(A, chunk, sigma);
  const la::Vector x = test_vector(A.cols());
  la::Vector y_csr(A.rows());
  la::Vector y_sell(A.rows(), 7.0); // poison: spmv must overwrite every row
  A.spmv(x, y_csr);
  S.spmv(std::span<const double>(x.span()), y_sell.span());
  for (std::size_t i = 0; i < A.rows(); ++i) {
    EXPECT_EQ(y_csr[i], y_sell[i]) << "row " << i << " C=" << chunk
                                   << " sigma=" << sigma;
  }
}

void expect_bitwise_spmm(const sparse::CsrMatrix& A, std::size_t chunk,
                         std::size_t sigma, std::size_t ncols) {
  const sparse::SellMatrix S(A, chunk, sigma);
  la::KrylovBasis x(A.cols(), ncols);
  for (std::size_t c = 0; c < ncols; ++c) {
    std::span<double> col = x.append();
    const la::Vector v = test_vector(A.cols(), 1.3 * static_cast<double>(c));
    std::copy(v.begin(), v.end(), col.begin());
  }
  std::vector<double> ybuf(A.rows() * ncols);
  la::BlockView yview(ybuf.data(), A.rows(), ncols, A.rows());
  S.spmm(x.view(), yview);
  // Each SpMM output column must be bitwise equal to CSR spmv of that
  // operand column (the backend acceptance contract).
  la::Vector y_ref(A.rows());
  for (std::size_t c = 0; c < ncols; ++c) {
    A.spmv(x.col(c), y_ref.span());
    std::span<const double> got = yview.col(c);
    for (std::size_t i = 0; i < A.rows(); ++i) {
      EXPECT_EQ(y_ref[i], got[i])
          << "col " << c << " row " << i << " C=" << chunk << " b=" << ncols;
    }
  }
}

} // namespace

TEST(Sell, RoundTripReconstructsEveryEntry) {
  const sparse::CsrMatrix A = ragged_matrix();
  const sparse::SellMatrix S(A, 4, 2);
  EXPECT_EQ(S.rows(), A.rows());
  EXPECT_EQ(S.cols(), A.cols());
  EXPECT_EQ(S.nnz(), A.nnz());
  EXPECT_GE(S.stored(), S.nnz());
  // Walk every slot and reassemble the original rows.
  std::vector<std::vector<std::pair<std::size_t, double>>> rebuilt(A.rows());
  for (std::size_t c = 0; c < S.n_chunks(); ++c) {
    const std::size_t base = c * S.chunk();
    for (std::size_t r = 0; r < S.chunk() && base + r < A.rows(); ++r) {
      const std::size_t row = S.perm()[base + r];
      for (std::size_t j = 0; j < S.slot_lengths()[base + r]; ++j) {
        const std::size_t at = S.chunk_ptr()[c] + j * S.chunk() + r;
        rebuilt[row].emplace_back(S.col_idx()[at], S.values()[at]);
      }
    }
  }
  const auto& rp = A.row_ptr();
  for (std::size_t i = 0; i < A.rows(); ++i) {
    ASSERT_EQ(rebuilt[i].size(), rp[i + 1] - rp[i]) << "row " << i;
    for (std::size_t k = 0; k < rebuilt[i].size(); ++k) {
      EXPECT_EQ(rebuilt[i][k].first, A.col_idx()[rp[i] + k]);
      EXPECT_EQ(rebuilt[i][k].second, A.values()[rp[i] + k]);
    }
  }
}

TEST(Sell, PermutationIsitsInverseAndWindowLocal) {
  const sparse::CsrMatrix A = gen::poisson2d(9);
  const std::size_t chunk = 8;
  const std::size_t sigma = 4;
  const sparse::SellMatrix S(A, chunk, sigma);
  ASSERT_EQ(S.perm().size(), A.rows());
  for (std::size_t i = 0; i < A.rows(); ++i) {
    EXPECT_EQ(S.perm()[S.inv_perm()[i]], i);
    // Windowed sort: a row never leaves its sigma-chunk window.
    const std::size_t window = chunk * sigma;
    EXPECT_EQ(S.inv_perm()[i] / window, i / window);
  }
  // Slot lengths are non-increasing inside each chunk (what makes the
  // active-prefix kernel correct).
  for (std::size_t c = 0; c < S.n_chunks(); ++c) {
    for (std::size_t r = 1; r < chunk; ++r) {
      const std::size_t s = c * chunk + r;
      if (s >= S.slot_lengths().size()) break;
      EXPECT_LE(S.slot_lengths()[s], S.slot_lengths()[s - 1]);
    }
  }
}

TEST(Sell, SpmvBitwiseMatchesCsrAcrossGeometries) {
  const sparse::CsrMatrix mats[] = {
      ragged_matrix(), gen::poisson2d(7), gen::convection_diffusion2d(6, 1.5, -0.75),
      gen::circuit_like(), gen::random_diag_dominant(83, 5)};
  for (const auto& A : mats) {
    for (const std::size_t chunk : {1u, 4u, 8u, 16u, 32u, 6u}) {
      for (const std::size_t sigma : {1u, 4u}) {
        expect_bitwise_spmv(A, chunk, sigma);
      }
    }
  }
}

TEST(Sell, SpmmBitwiseMatchesCsrSpmvPerColumn) {
  const sparse::CsrMatrix A = gen::poisson2d(8);
  for (const std::size_t chunk : {4u, 8u}) {
    for (const std::size_t sigma : {1u, 4u}) {
      for (const std::size_t b : {1u, 3u, 4u, 5u, 9u}) {
        expect_bitwise_spmm(A, chunk, sigma, b);
      }
    }
  }
}

/// SELL padding is a deterministic function of the sparsity pattern and
/// the geometry, so the stored slot counts are pinned exactly: the 1600-row
/// Poisson and convection-diffusion stencils pad their ragged boundary
/// rows (7840 nonzeros), the 2000-node circuit's irregular rows pad far
/// more (20381 nonzeros), and sorting within 4-chunk windows (sigma = 4)
/// recovers most of it.
TEST(Sell, PaddingCountsArePinnedOnTheModelMatrices) {
  gen::CircuitOptions circuit;
  circuit.nodes = 2000;
  struct Case {
    const char* name;
    sparse::CsrMatrix A;
    std::size_t nnz;
    std::size_t stored[4]; // sell:4:1, sell:8:1, sell:8:4, sell:32:1
  };
  const Case cases[] = {
      {"poisson2d(40)", gen::poisson2d(40), 7840, {7920, 7920, 7920, 7936}},
      {"convection_diffusion2d(40)",
       gen::convection_diffusion2d(40, 1.5, -0.75),
       7840,
       {7920, 7920, 7920, 7936}},
      {"circuit(2000)", gen::circuit_like(circuit), 20381,
       {25072, 27096, 22696, 31360}},
  };
  const std::size_t geometry[4][2] = {{4, 1}, {8, 1}, {8, 4}, {32, 1}};
  for (const Case& c : cases) {
    EXPECT_EQ(c.A.nnz(), c.nnz) << c.name;
    for (std::size_t g = 0; g < 4; ++g) {
      const sparse::SellMatrix S(c.A, geometry[g][0], geometry[g][1]);
      EXPECT_EQ(S.stored(), c.stored[g])
          << c.name << " sell:" << geometry[g][0] << ":" << geometry[g][1];
    }
  }
}

TEST(Sell, PaddingIsInertEvenAgainstInfAndNan) {
  // Poison x with Inf/NaN at column 0 -- where padding slots point.  If a
  // kernel ever multiplied a padding slot, 0.0 * Inf = NaN would
  // contaminate a sum; the active-prefix loop must keep every result
  // finite and bitwise equal to CSR (which skips the entries entirely).
  sparse::CooMatrix coo(9, 9);
  for (std::size_t i = 0; i < 9; ++i) coo.add(i, i, 1.0 + i);
  for (std::size_t j = 1; j < 9; ++j) coo.add(8, j, 0.5); // long last row
  const sparse::CsrMatrix A(std::move(coo));
  const sparse::SellMatrix S(A, 4, 1);
  EXPECT_GT(S.stored(), S.nnz()); // padding exists
  la::Vector x = test_vector(9);
  x[0] = std::numeric_limits<double>::infinity();
  la::Vector y_csr(9);
  la::Vector y_sell(9);
  A.spmv(x, y_csr);
  S.spmv(std::span<const double>(x.span()), y_sell.span());
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(y_csr[i], y_sell[i]);
  x[0] = std::numeric_limits<double>::quiet_NaN();
  A.spmv(x, y_csr);
  S.spmv(std::span<const double>(x.span()), y_sell.span());
  for (std::size_t i = 1; i < 9; ++i) { // rows not touching col 0
    EXPECT_EQ(y_csr[i], y_sell[i]);
    EXPECT_FALSE(std::isnan(y_sell[i])) << "padding leaked NaN into row " << i;
  }
}

TEST(Sell, EmptyRowsProduceZeroLikeCsr) {
  sparse::CooMatrix coo(6, 6);
  coo.add(1, 1, 3.0);
  coo.add(4, 2, -1.0);
  const sparse::CsrMatrix A(std::move(coo));
  const sparse::SellMatrix S(A, 4, 1);
  const la::Vector x = test_vector(6);
  la::Vector y(6, 99.0);
  S.spmv(std::span<const double>(x.span()), y.span());
  EXPECT_EQ(y[0], 0.0);
  EXPECT_EQ(y[2], 0.0);
  EXPECT_EQ(y[3], 0.0);
  EXPECT_EQ(y[5], 0.0);
  EXPECT_EQ(y[1], 3.0 * x[1]);
  EXPECT_EQ(y[4], -1.0 * x[2]);
}

TEST(Sell, GeometryValidation) {
  const sparse::CsrMatrix A = ragged_matrix();
  EXPECT_THROW(sparse::SellMatrix(A, 0, 1), std::invalid_argument);
  EXPECT_THROW(sparse::SellMatrix(A, 257, 1), std::invalid_argument);
  EXPECT_THROW(sparse::SellMatrix(A, 8, 0), std::invalid_argument);
  EXPECT_NO_THROW(sparse::SellMatrix(A, 256, 3));
}

TEST(Sell, NarrowedMirrorBitwiseMatchesWideSell) {
  const sparse::CsrMatrix A = gen::poisson2d(7);
  const sparse::SellMatrix S(A, 8, 1);
  const sparse::SellMatrixT<double, std::int32_t> M(S);
  EXPECT_EQ(M.stored(), S.stored());
  const la::Vector x = test_vector(A.cols());
  la::Vector y_wide(A.rows());
  la::Vector y_mirror(A.rows());
  S.spmv(std::span<const double>(x.span()), y_wide.span());
  M.spmv(std::span<const double>(x.span()), y_mirror.span());
  for (std::size_t i = 0; i < A.rows(); ++i) EXPECT_EQ(y_wide[i], y_mirror[i]);
}

TEST(Sell, FloatMirrorMatchesFloatCsrMirrorBitwise) {
  // The (float, int32) SELL mirror accumulates each row in the same order
  // as the (float, int32) CSR mirror, so the float results are bitwise
  // identical too -- the mixed-plane acceptance contract.
  const sparse::CsrMatrix A = gen::convection_diffusion2d(6, 1.5, -0.75);
  const sparse::SellMatrix S(A, 8, 1);
  const sparse::SellMatrixT<float, std::int32_t> Ms(S);
  const sparse::CsrMatrixT<float, std::int32_t> Mc(A);
  std::vector<float> x(A.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(std::sin(0.7 * static_cast<double>(i + 1)));
  }
  std::vector<float> y_sell(A.rows());
  std::vector<float> y_csr(A.rows());
  Ms.spmv(std::span<const float>(x), std::span<float>(y_sell));
  Mc.spmv(std::span<const float>(x), std::span<float>(y_csr));
  for (std::size_t i = 0; i < A.rows(); ++i) EXPECT_EQ(y_csr[i], y_sell[i]);
}

TEST(Sell, NarrowingOverflowThrows) {
  const sparse::CsrMatrix A = ragged_matrix();
  const sparse::SellMatrix S(A, 4, 1);
  using Tiny = sparse::SellMatrixT<double, std::int8_t>;
  // 11 rows fit int8, but stored() padded entries exceed 127?  Build a
  // matrix that clearly overflows: poisson2d(12) has 144 rows > 127.
  const sparse::SellMatrix big(gen::poisson2d(12), 8, 1);
  EXPECT_THROW(Tiny t(big), std::overflow_error);
  (void)S;
}

TEST(Sell, ThreadCountInvariance) {
#ifdef _OPENMP
  // Large enough to cross the kernels' OpenMP threshold (rows > 2048).
  const sparse::CsrMatrix A = gen::poisson2d(50); // 2500 rows
  const sparse::SellMatrix S(A, 8, 4);
  const la::Vector x = test_vector(A.cols());
  la::Vector y_serial(A.rows());
  la::Vector y_par(A.rows());
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  S.spmv(std::span<const double>(x.span()), y_serial.span());
  omp_set_num_threads(4);
  S.spmv(std::span<const double>(x.span()), y_par.span());
  omp_set_num_threads(saved);
  for (std::size_t i = 0; i < A.rows(); ++i) {
    EXPECT_EQ(y_serial[i], y_par[i]);
  }
  // And still bitwise equal to CSR at the parallel setting.
  la::Vector y_csr(A.rows());
  A.spmv(x, y_csr);
  for (std::size_t i = 0; i < A.rows(); ++i) EXPECT_EQ(y_csr[i], y_par[i]);
#else
  GTEST_SKIP() << "OpenMP not enabled";
#endif
}
