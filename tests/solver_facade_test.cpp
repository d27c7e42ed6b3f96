/// \file solver_facade_test.cpp
/// \brief The façade contract: every IterativeSolver adapter is bitwise
/// identical to the free-function solver it wraps, options translate
/// exactly, and hook seams behave.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "gen/poisson.hpp"
#include "gen/random_sparse.hpp"
#include "krylov/cg.hpp"
#include "krylov/fcg.hpp"
#include "krylov/fgmres.hpp"
#include "krylov/ft_gmres.hpp"
#include "krylov/gmres.hpp"
#include "krylov/ilu0.hpp"
#include "krylov/operator.hpp"
#include "la/blas1.hpp"
#include "sdc/injection.hpp"
#include "solver/solver.hpp"

namespace solver = sdcgmres::solver;
namespace krylov = sdcgmres::krylov;
namespace gen = sdcgmres::gen;
namespace sdc = sdcgmres::sdc;
namespace la = sdcgmres::la;
using sdcgmres::sparse::CsrMatrix;

namespace {

void expect_bitwise_equal(const la::Vector& a, const la::Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "element " << i;
  }
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "entry " << i;
  }
}

} // namespace

TEST(OptionsTranslation, DefaultsMatchNativeDefaults) {
  const solver::Options o;
  const auto g = solver::to_gmres_options(o);
  EXPECT_EQ(g.max_iters, krylov::GmresOptions{}.max_iters);
  EXPECT_EQ(g.lsq_policy, krylov::GmresOptions{}.lsq_policy);
  EXPECT_EQ(g.breakdown_tol, krylov::GmresOptions{}.breakdown_tol);

  const auto f = solver::to_fgmres_options(o);
  EXPECT_EQ(f.max_outer, krylov::FgmresOptions{}.max_outer);
  EXPECT_EQ(f.lsq_policy, krylov::FgmresOptions{}.lsq_policy);
  EXPECT_EQ(f.breakdown_tol, krylov::FgmresOptions{}.breakdown_tol);

  const auto ft = solver::to_ft_gmres_options(o);
  EXPECT_EQ(ft.inner.max_iters, krylov::FtGmresOptions{}.inner.max_iters);
  EXPECT_EQ(ft.inner.tol, krylov::FtGmresOptions{}.inner.tol);

  EXPECT_EQ(solver::to_cg_options(o).max_iters, krylov::CgOptions{}.max_iters);
  EXPECT_EQ(solver::to_fcg_options(o).max_outer,
            krylov::FcgOptions{}.max_outer);
}

TEST(OptionsTranslation, ExplicitFieldsCarryOver) {
  solver::Options o;
  o.max_iters = 77;
  o.restart = 11;
  o.tol = 1e-6;
  o.ortho = krylov::Orthogonalization::CGS2;
  o.lsq_policy = sdcgmres::dense::LsqPolicy::Fallback;
  o.inner_iters = 9;
  o.robust_first_inner = true;

  const auto g = solver::to_gmres_options(o);
  EXPECT_EQ(g.max_iters, 77u);
  EXPECT_EQ(g.restart, 11u);
  EXPECT_EQ(g.ortho, krylov::Orthogonalization::CGS2);
  EXPECT_EQ(g.lsq_policy, sdcgmres::dense::LsqPolicy::Fallback);

  const auto ft = solver::to_ft_gmres_options(o);
  EXPECT_EQ(ft.outer.max_outer, 77u);
  EXPECT_EQ(ft.inner.max_iters, 9u);
  EXPECT_TRUE(ft.robust_first_inner);
  EXPECT_EQ(ft.inner.lsq_policy, sdcgmres::dense::LsqPolicy::Fallback);
}

TEST(SolverFacade, GmresBitwiseIdenticalToFreeFunction) {
  const CsrMatrix A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());

  solver::Options o;
  o.max_iters = 200;
  o.restart = 20;

  const auto direct = krylov::gmres(op, b, la::Vector(A.cols()),
                                    solver::to_gmres_options(o));
  ASSERT_EQ(direct.status, krylov::SolveStatus::Converged);

  solver::GmresSolver facade(op, o);
  solver::SolveReport rep;
  const la::Vector x = facade.solve(b, &rep);

  EXPECT_EQ(rep.status, direct.status);
  EXPECT_EQ(rep.iterations, direct.iterations);
  EXPECT_EQ(rep.residual_norm, direct.residual_norm);
  EXPECT_EQ(rep.lsq_effective_rank, direct.lsq_effective_rank);
  expect_bitwise_equal(x, direct.x);
  expect_bitwise_equal(rep.residual_history, direct.residual_history);
}

TEST(SolverFacade, GmresRespectsInitialGuessAndPreconditioner) {
  const CsrMatrix A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());
  const krylov::Ilu0Preconditioner ilu(A);

  solver::Options o;
  o.max_iters = 100;
  o.precond = &ilu;

  la::Vector x0(A.rows());
  for (std::size_t i = 0; i < x0.size(); ++i) x0[i] = 0.01 * double(i % 7);

  const auto direct =
      krylov::gmres(op, b, x0, solver::to_gmres_options(o));

  solver::GmresSolver facade(op, o);
  la::Vector x = x0;
  const solver::SolveReport rep = facade.solve(b.span(), x.span());

  EXPECT_EQ(rep.iterations, direct.iterations);
  expect_bitwise_equal(x, direct.x);
}

TEST(SolverFacade, FgmresBitwiseIdenticalToFreeFunction) {
  const CsrMatrix A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());
  const krylov::JacobiPreconditioner jacobi(A);

  solver::Options o;
  o.max_iters = 150;
  o.precond = &jacobi;

  krylov::FixedFlexibleAdapter flex(jacobi);
  const auto direct = krylov::fgmres(op, b, la::Vector(A.cols()),
                                     solver::to_fgmres_options(o), flex);
  ASSERT_EQ(direct.status, krylov::SolveStatus::Converged);

  solver::FgmresSolver facade(op, o);
  solver::SolveReport rep;
  const la::Vector x = facade.solve(b, &rep);

  EXPECT_EQ(rep.status, direct.status);
  EXPECT_EQ(rep.iterations, direct.iterations);
  EXPECT_EQ(rep.residual_norm, direct.residual_norm);
  EXPECT_EQ(rep.rank_checks, direct.rank_checks);
  EXPECT_EQ(rep.min_sigma_ratio, direct.min_sigma_ratio);
  expect_bitwise_equal(x, direct.x);
  expect_bitwise_equal(rep.residual_history, direct.residual_history);
}

TEST(SolverFacade, FtGmresBitwiseIdenticalWithAndWithoutFault) {
  const CsrMatrix A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());

  solver::Options o;
  o.inner_iters = 6;
  o.max_iters = 150;

  // Failure-free.
  const auto direct =
      krylov::ft_gmres(op, b, solver::to_ft_gmres_options(o));
  ASSERT_EQ(direct.status, krylov::SolveStatus::Converged);

  solver::FtGmresSolver facade(op, o);
  solver::SolveReport rep;
  la::Vector x = facade.solve(b, &rep);
  EXPECT_EQ(rep.status, direct.status);
  EXPECT_EQ(rep.iterations, direct.outer_iterations);
  EXPECT_EQ(rep.total_inner_iterations, direct.total_inner_iterations);
  expect_bitwise_equal(x, direct.x);
  expect_bitwise_equal(rep.residual_history, direct.residual_history);
  ASSERT_EQ(rep.inner_solves.size(), direct.inner_solves.size());

  // With one planned class-1 fault: the façade seam must reproduce the
  // free function's hook wiring exactly.
  const auto plan = sdc::InjectionPlan::hessenberg(
      direct.total_inner_iterations / 2, sdc::MgsPosition::First,
      sdc::fault_classes::very_large());
  sdc::FaultCampaign direct_campaign(plan);
  const auto faulty_direct = krylov::ft_gmres(
      op, b, solver::to_ft_gmres_options(o), &direct_campaign);

  sdc::FaultCampaign facade_campaign(plan);
  facade.set_hook(&facade_campaign);
  solver::SolveReport faulty_rep;
  la::Vector faulty_x = facade.solve(b, &faulty_rep);

  EXPECT_EQ(direct_campaign.fired(), facade_campaign.fired());
  EXPECT_TRUE(facade_campaign.fired());
  EXPECT_EQ(faulty_rep.iterations, faulty_direct.outer_iterations);
  EXPECT_EQ(faulty_rep.sanitized_outputs, faulty_direct.sanitized_outputs);
  expect_bitwise_equal(faulty_x, faulty_direct.x);
}

TEST(SolverFacade, WorkspaceReuseAcrossSolvesStaysBitwise) {
  // One façade instance solved twice must give the same doubles both
  // times (the internal workspace reuse may not leak state).
  const CsrMatrix A = gen::poisson2d(7);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());

  solver::Options o;
  o.inner_iters = 5;
  solver::FtGmresSolver facade(op, o);
  solver::SolveReport r1, r2;
  const la::Vector x1 = facade.solve(b, &r1);
  const la::Vector x2 = facade.solve(b, &r2);
  EXPECT_EQ(r1.iterations, r2.iterations);
  expect_bitwise_equal(x1, x2);
}

TEST(SolverFacade, FtGmresBitwiseIdenticalAtEveryThreadCount) {
  // 10^4 rows: every Krylov inner product spans several summation blocks,
  // so with more than one thread the kernels take their parallel paths.
  // The summation order depends only on the length, so the whole solve is
  // bitwise identical at any OpenMP team size.  A short solve (3 outer x
  // 10 inner iterations) already feeds every kernel result into x, and
  // keeps the test quick when other multi-threaded tests share the cores.
  const CsrMatrix A = gen::poisson2d(100);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());
  solver::Options o;
  o.inner_iters = 10;
  o.max_iters = 3;

  std::vector<la::Vector> xs;
  std::vector<solver::SolveReport> reps;
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
#endif
  for (const int threads : {1, 2, 4}) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    solver::FtGmresSolver facade(op, o);
    reps.emplace_back();
    xs.push_back(facade.solve(b, &reps.back()));
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
  ASSERT_EQ(reps[0].iterations, 3u);
  for (std::size_t t = 1; t < xs.size(); ++t) {
    EXPECT_EQ(reps[t].iterations, reps[0].iterations) << "run " << t;
    EXPECT_EQ(reps[t].global_syncs, reps[0].global_syncs) << "run " << t;
    expect_bitwise_equal(xs[t], xs[0]);
  }
}

TEST(SolverFacade, CgBitwiseIdenticalToFreeFunction) {
  const CsrMatrix A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());

  solver::Options o;
  o.max_iters = 500;

  const auto direct =
      krylov::cg(op, b, la::Vector(A.cols()), solver::to_cg_options(o));
  ASSERT_TRUE(direct.converged);

  solver::CgSolver facade(op, o);
  solver::SolveReport rep;
  const la::Vector x = facade.solve(b, &rep);
  EXPECT_EQ(rep.status, solver::SolveStatus::Converged);
  EXPECT_EQ(rep.iterations, direct.iterations);
  EXPECT_EQ(rep.residual_norm, direct.residual_norm);
  expect_bitwise_equal(x, direct.x);
  expect_bitwise_equal(rep.residual_history, direct.residual_history);
}

TEST(SolverFacade, CgReportCountsSyncsAndApplies) {
  // cg used to report zero global syncs.  Setup pays ||b||, <r,z> and
  // ||r0|| plus the residual product; each iteration pays p^T A p, ||r||
  // and <r,z> plus one product.
  const CsrMatrix A = gen::poisson2d(40);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());
  solver::CgSolver facade(op);
  solver::SolveReport rep;
  (void)facade.solve(b, &rep);
  ASSERT_EQ(rep.status, solver::SolveStatus::Converged);
  ASSERT_GT(rep.iterations, 0u);
  EXPECT_EQ(rep.global_syncs, 3 + 3 * rep.iterations);
  EXPECT_EQ(rep.operator_applies, 1 + rep.iterations);
  EXPECT_EQ(op.stats().columns(), rep.operator_applies);
}

TEST(SolverFacade, FcgBitwiseIdenticalToFreeFunction) {
  const CsrMatrix A = gen::random_spd(60, 7);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());
  const krylov::JacobiPreconditioner jacobi(A);

  solver::Options o;
  o.max_iters = 300;
  o.precond = &jacobi;

  krylov::FixedFlexibleAdapter flex(jacobi);
  const auto direct = krylov::fcg(op, b, la::Vector(A.cols()),
                                  solver::to_fcg_options(o), flex);
  ASSERT_EQ(direct.status, krylov::SolveStatus::Converged);

  solver::FcgSolver facade(op, o);
  solver::SolveReport rep;
  const la::Vector x = facade.solve(b, &rep);
  EXPECT_EQ(rep.status, direct.status);
  EXPECT_EQ(rep.iterations, direct.iterations);
  expect_bitwise_equal(x, direct.x);
  expect_bitwise_equal(rep.residual_history, direct.residual_history);
}

TEST(SolverFacade, FtCgBitwiseIdenticalToFreeFunction) {
  const CsrMatrix A = gen::random_spd(60, 7);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());

  solver::Options o;
  o.inner_iters = 5;

  const auto direct = krylov::ft_cg(op, b, solver::to_ft_cg_options(o));
  ASSERT_EQ(direct.status, krylov::SolveStatus::Converged);

  solver::FtCgSolver facade(op, o);
  solver::SolveReport rep;
  const la::Vector x = facade.solve(b, &rep);
  EXPECT_EQ(rep.status, direct.status);
  EXPECT_EQ(rep.iterations, direct.outer_iterations);
  EXPECT_EQ(rep.total_inner_iterations, direct.total_inner_iterations);
  expect_bitwise_equal(x, direct.x);
}

TEST(SolverFacade, FtCgReportCountsOuterAndInnerSyncs) {
  // ft_cg used to report zero global syncs and zero inner applies.
  const CsrMatrix A = gen::poisson2d(10);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());
  solver::Options o;
  o.inner_iters = 10;
  solver::FtCgSolver facade(op, o);
  solver::SolveReport rep;
  (void)facade.solve(b, &rep);

  // The same nested solve taken apart: the FCG outer level and the
  // records of its inner GMRES solves.
  const krylov::FtCgOptions opts = solver::to_ft_cg_options(o);
  krylov::InnerGmresPreconditioner inner(op, opts.inner);
  const krylov::FcgResult outer =
      krylov::fcg(op, b, la::zeros(A.rows()), opts.outer, inner);
  std::size_t inner_syncs = 0;
  std::size_t inner_applies = 0;
  for (const krylov::InnerSolveRecord& rec : inner.records()) {
    inner_syncs += rec.global_syncs;
    inner_applies += rec.operator_applies;
  }
  EXPECT_GT(outer.global_syncs, 0u);
  EXPECT_GT(rep.global_syncs, 0u);
  EXPECT_EQ(rep.global_syncs, outer.global_syncs + inner_syncs);
  EXPECT_GT(rep.operator_applies, 0u);
  EXPECT_EQ(rep.operator_applies, inner_applies);
}

TEST(SolverFacade, HookSeamEnforced) {
  const CsrMatrix A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
      0, sdc::MgsPosition::First, sdc::fault_classes::very_large()));

  solver::GmresSolver gmres(op);
  solver::FtGmresSolver ft(op);
  solver::FtCgSolver ftcg(op);
  EXPECT_TRUE(gmres.supports_hooks());
  EXPECT_TRUE(ft.supports_hooks());
  EXPECT_TRUE(ftcg.supports_hooks());
  EXPECT_NO_THROW(gmres.set_hook(&campaign));
  EXPECT_NO_THROW(gmres.set_hook(nullptr));

  solver::CgSolver cg(op);
  solver::FgmresSolver fgmres(op);
  solver::FcgSolver fcg(op);
  EXPECT_FALSE(cg.supports_hooks());
  EXPECT_THROW(cg.set_hook(&campaign), std::invalid_argument);
  EXPECT_THROW(fgmres.set_hook(&campaign), std::invalid_argument);
  EXPECT_THROW(fcg.set_hook(&campaign), std::invalid_argument);
  EXPECT_NO_THROW(cg.set_hook(nullptr)); // detaching is always fine
}

TEST(SolverFacade, SizeMismatchThrows) {
  const CsrMatrix A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  solver::GmresSolver facade(op);
  la::Vector b(A.rows());
  la::Vector x(A.rows() + 1);
  EXPECT_THROW((void)facade.solve(b.span(), x.span()), std::invalid_argument);
}
