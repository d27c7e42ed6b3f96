#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "gen/convection_diffusion.hpp"
#include "gen/poisson.hpp"
#include "krylov/fgmres.hpp"
#include "krylov/ft_gmres.hpp"
#include "krylov/gmres.hpp"
#include "krylov/ilu0.hpp"
#include "krylov/workspace.hpp"
#include "la/blas1.hpp"
#include "la/workspace.hpp"
#include "sdc/injection.hpp"

namespace krylov = sdcgmres::krylov;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;
namespace sdc = sdcgmres::sdc;

namespace {

void expect_same_vector(const la::Vector& a, const la::Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "entry " << i;
  }
}

} // namespace

TEST(SolverWorkspace, ReserveIsMonotoneAndShapesArenas) {
  la::SolverWorkspace ws;
  ws.reserve(100, 30);
  EXPECT_EQ(ws.rows(), 100u);
  EXPECT_EQ(ws.max_dim(), 30u);
  EXPECT_EQ(ws.basis().rows(), 100u);
  EXPECT_EQ(ws.basis().capacity(), 31u);
  EXPECT_EQ(ws.directions().capacity(), 30u);
  EXPECT_GE(ws.h_column().size(), 32u);
  for (std::size_t s = 0; s < la::SolverWorkspace::kScratchSlots; ++s) {
    EXPECT_EQ(ws.scratch(s).size(), 100u);
  }

  const double* before = ws.basis().data();
  ws.reserve(100, 20); // fits: no reshape
  EXPECT_EQ(ws.basis().data(), before);
  EXPECT_EQ(ws.max_dim(), 30u);

  ws.reserve(100, 50); // column growth
  EXPECT_EQ(ws.max_dim(), 50u);
  ws.reserve(64, 10); // row change reshapes to the new row count
  EXPECT_EQ(ws.rows(), 64u);
  EXPECT_EQ(ws.basis().rows(), 64u);
}

TEST(Workspace, RepeatedGmresSolvesMatchFreshState) {
  // Two consecutive solves from ONE workspace must equal two fresh-state
  // solves bitwise: no state may leak between checkouts.
  const auto A = gen::convection_diffusion2d(12, 8.0, 4.0);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());
  const la::Vector x0 = la::zeros(A.rows());
  krylov::GmresOptions opts;
  opts.tol = 1e-10;
  opts.max_iters = 200;
  opts.restart = 30; // exercise the per-cycle reset path too

  const auto fresh1 = krylov::gmres(op, b, x0, opts);
  const auto fresh2 = krylov::gmres(op, b, x0, opts);

  krylov::KrylovWorkspace ws;
  const auto reused1 = krylov::gmres(op, b, x0, opts, nullptr, 0, &ws);
  const auto reused2 = krylov::gmres(op, b, x0, opts, nullptr, 0, &ws);

  ASSERT_EQ(fresh1.status, krylov::SolveStatus::Converged);
  EXPECT_EQ(reused1.status, fresh1.status);
  EXPECT_EQ(reused2.status, fresh2.status);
  EXPECT_EQ(reused1.iterations, fresh1.iterations);
  EXPECT_EQ(reused2.iterations, fresh2.iterations);
  EXPECT_EQ(reused1.residual_norm, fresh1.residual_norm);
  EXPECT_EQ(reused2.residual_norm, fresh2.residual_norm);
  expect_same_vector(reused1.x, fresh1.x);
  expect_same_vector(reused2.x, fresh2.x);
  EXPECT_EQ(reused1.residual_history, fresh1.residual_history);
  EXPECT_EQ(reused2.residual_history, fresh2.residual_history);
}

TEST(Workspace, RepeatedFgmresSolvesMatchFreshState) {
  const auto A = gen::poisson2d(10);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());
  const la::Vector x0 = la::zeros(A.rows());
  krylov::Ilu0Preconditioner ilu(A);
  krylov::FixedFlexibleAdapter M(ilu);
  krylov::FgmresOptions opts;
  opts.tol = 1e-10;
  opts.max_outer = 80;

  const auto fresh1 = krylov::fgmres(op, b, x0, opts, M);
  const auto fresh2 = krylov::fgmres(op, b, x0, opts, M);

  krylov::KrylovWorkspace ws;
  const auto reused1 = krylov::fgmres(op, b, x0, opts, M, &ws);
  const auto reused2 = krylov::fgmres(op, b, x0, opts, M, &ws);

  ASSERT_EQ(fresh1.status, krylov::SolveStatus::Converged);
  EXPECT_EQ(reused1.status, fresh1.status);
  EXPECT_EQ(reused2.status, fresh2.status);
  EXPECT_EQ(reused1.iterations, fresh1.iterations);
  EXPECT_EQ(reused2.iterations, fresh2.iterations);
  EXPECT_EQ(reused1.residual_norm, fresh1.residual_norm);
  EXPECT_EQ(reused2.residual_norm, fresh2.residual_norm);
  expect_same_vector(reused1.x, fresh1.x);
  expect_same_vector(reused2.x, fresh2.x);
}

TEST(Workspace, RepeatedFtGmresSolvesMatchFreshState) {
  // The full nested solver, with a fault campaign attached on the second
  // solve of each pair so the workspace also survives faulty solves.
  const auto A = gen::poisson2d(8);
  const la::Vector b = la::ones(A.rows());
  krylov::FtGmresOptions opts;
  opts.inner.max_iters = 10;
  opts.outer.tol = 1e-8;
  opts.outer.max_outer = 100;

  const auto make_campaign = [] {
    return sdc::FaultCampaign(sdc::InjectionPlan::hessenberg(
        3, sdc::MgsPosition::First, sdc::FaultModel::scale(1e150)));
  };

  const auto fresh_clean = krylov::ft_gmres(A, b, opts);
  auto campaign1 = make_campaign();
  const auto fresh_faulty = krylov::ft_gmres(A, b, opts, &campaign1);

  krylov::FtGmresWorkspace ws;
  const auto reused_clean = krylov::ft_gmres(A, b, opts, nullptr, &ws);
  auto campaign2 = make_campaign();
  const auto reused_faulty = krylov::ft_gmres(A, b, opts, &campaign2, &ws);

  EXPECT_EQ(reused_clean.status, fresh_clean.status);
  EXPECT_EQ(reused_clean.outer_iterations, fresh_clean.outer_iterations);
  EXPECT_EQ(reused_clean.total_inner_iterations,
            fresh_clean.total_inner_iterations);
  EXPECT_EQ(reused_clean.residual_norm, fresh_clean.residual_norm);
  expect_same_vector(reused_clean.x, fresh_clean.x);

  ASSERT_TRUE(campaign1.fired());
  ASSERT_TRUE(campaign2.fired());
  EXPECT_EQ(reused_faulty.status, fresh_faulty.status);
  EXPECT_EQ(reused_faulty.outer_iterations, fresh_faulty.outer_iterations);
  EXPECT_EQ(reused_faulty.residual_norm, fresh_faulty.residual_norm);
  expect_same_vector(reused_faulty.x, fresh_faulty.x);
}

TEST(Workspace, SurvivesShapeChangesBetweenSolves) {
  // A workspace reused across different problem sizes must reshape and
  // still produce fresh-state results.
  krylov::KrylovWorkspace ws;
  krylov::GmresOptions opts;
  opts.tol = 1e-10;

  for (const std::size_t n : {6u, 12u, 9u}) {
    const auto A = gen::poisson2d(n);
    const krylov::CsrOperator op(A);
    const la::Vector b = la::ones(A.rows());
    const la::Vector x0 = la::zeros(A.rows());
    const auto fresh = krylov::gmres(op, b, x0, opts);
    const auto reused = krylov::gmres(op, b, x0, opts, nullptr, 0, &ws);
    EXPECT_EQ(reused.iterations, fresh.iterations);
    expect_same_vector(reused.x, fresh.x);
  }
}

TEST(Workspace, InPlaceSpanSolveMatchesVectorApi) {
  const auto A = gen::poisson2d(9);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());
  krylov::GmresOptions opts;
  opts.tol = 1e-10;

  const auto byvalue = krylov::gmres(op, b, la::zeros(A.rows()), opts);

  la::Vector x = la::zeros(A.rows());
  std::vector<double> history;
  krylov::KrylovWorkspace ws;
  const auto stats = krylov::gmres_in_place(
      op, b.span(), x.span(), opts, nullptr, 0, &ws, &history);

  EXPECT_EQ(stats.status, byvalue.status);
  EXPECT_EQ(stats.iterations, byvalue.iterations);
  EXPECT_EQ(stats.residual_norm, byvalue.residual_norm);
  expect_same_vector(x, byvalue.x);
  EXPECT_EQ(history, byvalue.residual_history);
}
