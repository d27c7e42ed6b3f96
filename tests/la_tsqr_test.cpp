#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/block.hpp"
#include "la/tsqr.hpp"

namespace la = sdcgmres::la;

namespace {

/// Deterministic random panel in a BlockWorkspace arena (padding included).
template <typename S>
la::BlockWorkspaceT<S> random_panel(std::size_t n, std::size_t m,
                                    unsigned seed) {
  la::BlockWorkspaceT<S> ws(n, m);
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t j = 0; j < m; ++j) {
    auto col = ws.col(j);
    for (std::size_t i = 0; i < n; ++i) col[i] = static_cast<S>(dist(gen));
  }
  return ws;
}

/// max |(Q*R - A0)(i,j)| over the panel.
template <typename S>
double reconstruction_error(la::BlockViewT<S> q, const std::vector<S>& r,
                            std::size_t ldr,
                            const std::vector<std::vector<S>>& original) {
  double worst = 0.0;
  const std::size_t m = q.cols();
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = 0; i < q.rows(); ++i) {
      double acc = 0.0;
      for (std::size_t k = 0; k <= j; ++k) {
        acc += static_cast<double>(q.col(k)[i]) *
               static_cast<double>(r[k + j * ldr]);
      }
      worst = std::max(worst,
                       std::abs(acc - static_cast<double>(original[j][i])));
    }
  }
  return worst;
}

/// max |(Q^T Q - I)(i,j)|.
template <typename S>
double ortho_defect(la::BlockViewT<S> q) {
  double worst = 0.0;
  for (std::size_t a = 0; a < q.cols(); ++a) {
    for (std::size_t b = 0; b < q.cols(); ++b) {
      double acc = 0.0;
      for (std::size_t i = 0; i < q.rows(); ++i) {
        acc += static_cast<double>(q.col(a)[i]) *
               static_cast<double>(q.col(b)[i]);
      }
      worst = std::max(worst, std::abs(acc - (a == b ? 1.0 : 0.0)));
    }
  }
  return worst;
}

template <typename S>
std::vector<std::vector<S>> snapshot(la::BlockViewT<S> p) {
  std::vector<std::vector<S>> out(p.cols());
  for (std::size_t j = 0; j < p.cols(); ++j) {
    out[j].assign(p.col(j).begin(), p.col(j).end());
  }
  return out;
}

/// CGS2 reference orthonormalization of the same panel (two full classical
/// Gram-Schmidt passes + normalization), for defect comparison.
double cgs2_defect(const std::vector<std::vector<double>>& cols) {
  const std::size_t m = cols.size();
  const std::size_t n = cols[0].size();
  std::vector<std::vector<double>> q = cols;
  for (std::size_t j = 0; j < m; ++j) {
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < j; ++i) {
        double h = la::dot(std::span<const double>(q[i]),
                           std::span<const double>(q[j]));
        la::axpy(-h, std::span<const double>(q[i]), std::span<double>(q[j]));
      }
    }
    double norm = la::nrm2(std::span<const double>(q[j]));
    la::scal(1.0 / norm, std::span<double>(q[j]));
  }
  double worst = 0.0;
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) acc += q[a][i] * q[b][i];
      worst = std::max(worst, std::abs(acc - (a == b ? 1.0 : 0.0)));
    }
  }
  return worst;
}

} // namespace

/// One factorization shape: rows, columns and row-panel height.
struct PanelShape {
  std::size_t n;
  std::size_t m;
  std::size_t panel_rows;
};

class TsqrShapes : public ::testing::TestWithParam<PanelShape> {};

TEST_P(TsqrShapes, ReconstructsAndOrthogonalizesRandomPanel) {
  const auto [n, m, panel_rows] = GetParam();
  auto ws = random_panel<double>(n, m, 42u);
  auto panel = ws.view(m);
  const auto original = snapshot(panel);

  std::vector<double> r(m * m, -1.0);
  la::tsqr(panel, r.data(), m, panel_rows);

  EXPECT_LT(reconstruction_error(panel, r, m, original), 1e-12);
  EXPECT_LT(ortho_defect(panel), 1e-13);
  for (std::size_t j = 0; j < m; ++j) {
    EXPECT_GE(r[j + j * m], 0.0) << "diagonal must be nonnegative";
    for (std::size_t i = j + 1; i < m; ++i) {
      EXPECT_EQ(r[i + j * m], 0.0) << "below-diagonal must be zeroed";
    }
  }
  // TSQR's defect must be at least as good as the CGS2 reference's.
  EXPECT_LE(ortho_defect(panel), std::max(cgs2_defect(original), 1e-14));
}

/// A 300-row panel in 64-row panels, and the s-step commit shapes (s = 2,
/// 4, 8) at 16384 rows in the default 2048-row panels.
INSTANTIATE_TEST_SUITE_P(
    Tsqr, TsqrShapes,
    ::testing::Values(PanelShape{300, 5, 64}, PanelShape{16384, 2, 2048},
                      PanelShape{16384, 4, 2048}, PanelShape{16384, 8, 2048}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_m" +
             std::to_string(info.param.m);
    });

TEST(Tsqr, SinglePanelWhenPanelRowsExceedRows) {
  const std::size_t n = 100, m = 4;
  auto ws = random_panel<double>(n, m, 7u);
  auto panel = ws.view(m);
  const auto original = snapshot(panel);
  std::vector<double> r(m * m, 0.0);
  la::tsqr(panel, r.data(), m, /*panel_rows=*/4096);
  EXPECT_LT(reconstruction_error(panel, r, m, original), 1e-12);
  EXPECT_LT(ortho_defect(panel), 1e-13);
}

TEST(Tsqr, NearRankDeficientPanelStaysOrthonormal) {
  const std::size_t n = 200, m = 4;
  auto ws = random_panel<double>(n, m, 11u);
  // Column 2 := column 1 + tiny perturbation of column 0.
  for (std::size_t i = 0; i < n; ++i) {
    ws.col(2)[i] = ws.col(1)[i] + 1e-13 * ws.col(0)[i];
  }
  auto panel = ws.view(m);
  const auto original = snapshot(panel);
  std::vector<double> r(m * m, 0.0);
  la::tsqr(panel, r.data(), m, 64);
  // Q must stay orthonormal even though R(2,2) is ~1e-13.
  EXPECT_LT(ortho_defect(panel), 1e-12);
  EXPECT_LT(reconstruction_error(panel, r, m, original), 1e-12);
  EXPECT_LT(r[2 + 2 * m], 1e-10);
}

TEST(Tsqr, ExactlyDependentColumnYieldsZeroDiagonal) {
  const std::size_t n = 64, m = 3;
  la::BlockWorkspaceT<double> ws(n, m);
  std::mt19937 gen(3u);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    ws.col(0)[i] = dist(gen);
    ws.col(1)[i] = 2.0 * ws.col(0)[i]; // exactly dependent
    ws.col(2)[i] = dist(gen);
  }
  auto panel = ws.view(m);
  std::vector<double> r(m * m, 0.0);
  la::tsqr(panel, r.data(), m, 16);
  EXPECT_NEAR(r[1 + 1 * m], 0.0, 1e-13);
  EXPECT_LT(ortho_defect(panel), 1e-12);
}

TEST(Tsqr, PaddedLeadingDimensionArena) {
  // rows = 512 doubles triggers the anti-aliasing pad: ld = 520 != rows.
  const std::size_t n = 512, m = 6;
  auto ws = random_panel<double>(n, m, 99u);
  ASSERT_GT(ws.ld(), n);
  auto panel = ws.view(m);
  const auto original = snapshot(panel);
  std::vector<double> r(m * m, 0.0);
  la::tsqr(panel, r.data(), m, 100);
  EXPECT_LT(reconstruction_error(panel, r, m, original), 1e-12);
  EXPECT_LT(ortho_defect(panel), 1e-13);
}

TEST(Tsqr, FloatPanelWorks) {
  const std::size_t n = 150, m = 4;
  auto ws = random_panel<float>(n, m, 21u);
  auto panel = ws.view(m);
  const auto original = snapshot(panel);
  std::vector<float> r(m * m, 0.0f);
  la::tsqr(panel, r.data(), m, 32);
  EXPECT_LT(reconstruction_error(panel, r, m, original), 1e-4);
  EXPECT_LT(ortho_defect(panel), 1e-5);
  for (std::size_t j = 0; j < m; ++j) EXPECT_GE(r[j + j * m], 0.0f);
}

TEST(Tsqr, BitwiseThreadInvariant) {
#ifndef _OPENMP
  GTEST_SKIP() << "OpenMP not enabled";
#else
  const std::size_t n = 1000, m = 5;
  auto run = [&](int threads) {
    const int saved = omp_get_max_threads();
    omp_set_num_threads(threads);
    auto ws = random_panel<double>(n, m, 5u);
    auto panel = ws.view(m);
    std::vector<double> r(m * m, 0.0);
    la::tsqr(panel, r.data(), m, /*panel_rows=*/128); // 7 panels
    omp_set_num_threads(saved);
    std::vector<std::vector<double>> q = snapshot(panel);
    return std::make_pair(q, r);
  };
  const auto serial = run(1);
  const auto threaded = run(4);
  ASSERT_EQ(serial.second.size(), threaded.second.size());
  for (std::size_t i = 0; i < serial.second.size(); ++i) {
    EXPECT_EQ(serial.second[i], threaded.second[i]) << "R entry " << i;
  }
  for (std::size_t j = 0; j < m; ++j) {
    ASSERT_EQ(serial.first[j].size(), threaded.first[j].size());
    EXPECT_EQ(0, std::memcmp(serial.first[j].data(), threaded.first[j].data(),
                             serial.first[j].size() * sizeof(double)))
        << "Q column " << j;
  }
#endif
}

TEST(Tsqr, RejectsBadShapes) {
  la::BlockWorkspaceT<double> ws(4, 6);
  std::vector<double> r(36, 0.0);
  EXPECT_THROW(la::tsqr(ws.view(6), r.data(), 6), std::invalid_argument);
  EXPECT_THROW(la::tsqr(ws.view(0), r.data(), 6), std::invalid_argument);
  EXPECT_THROW(la::tsqr(ws.view(4), r.data(), 2), std::invalid_argument);
}
