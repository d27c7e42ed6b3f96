/// \file krylov_mixed_precision_test.cpp
/// \brief The mixed-precision inner data plane of FT-GMRES: (double,
/// int32) bitwise identity with the default, the float-inner convergence
/// envelope on the paper's Figure-3 scenario grid, detector-triggered
/// recovery on the float/int32 plane in lockstep, spec-key validation,
/// non-CSR rejection, and the bytes-streamed accounting of the mirror.
///
/// Envelope contract (documented here, asserted below): a float32 inner
/// plane is just another bounded perturbation of the unreliable inner
/// solves, so the flexible outer absorbs it the way it absorbs injected
/// faults -- every failure-free float solve must converge with at most
/// FLOAT_OUTER_SLACK more outer iterations than the all-double solve of
/// the same scenario.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"
#include "experiment/scenario_spec.hpp"
#include "gen/convection_diffusion.hpp"
#include "gen/poisson.hpp"
#include "krylov/ft_gmres.hpp"
#include "krylov/ft_gmres_batch.hpp"
#include "krylov/hooks.hpp"
#include "krylov/mixed.hpp"
#include "krylov/operator.hpp"
#include "la/blas1.hpp"
#include "la/vector.hpp"
#include "sdc/detector.hpp"
#include "sdc/fault_model.hpp"
#include "sdc/injection.hpp"

namespace krylov = sdcgmres::krylov;
namespace experiment = sdcgmres::experiment;
namespace sparse = sdcgmres::sparse;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;
namespace sdc = sdcgmres::sdc;

namespace {

/// Documented float-inner outer-iteration slack (see file comment).
constexpr std::size_t FLOAT_OUTER_SLACK = 2;

la::Vector ones(std::size_t n) {
  la::Vector b(n);
  b.fill(1.0);
  return b;
}

krylov::FtGmresOptions paper_options() {
  krylov::FtGmresOptions opts; // inner: 25 iterations, tol 0
  opts.outer.tol = 1e-8;
  opts.outer.max_outer = 200;
  return opts;
}

/// Every field of a lockstep instance must equal its own single solve,
/// the vectors and norms bitwise.
void expect_bitwise(const krylov::FtGmresResult& got,
                    const krylov::FtGmresResult& want, std::size_t instance) {
  SCOPED_TRACE(instance);
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.outer_iterations, want.outer_iterations);
  EXPECT_EQ(got.total_inner_iterations, want.total_inner_iterations);
  EXPECT_EQ(got.total_inner_applies, want.total_inner_applies);
  EXPECT_EQ(got.reliable_retries, want.reliable_retries);
  EXPECT_EQ(got.outer_restarts, want.outer_restarts);
  EXPECT_EQ(got.global_syncs, want.global_syncs);
  EXPECT_EQ(got.residual_norm, want.residual_norm);
  ASSERT_EQ(got.x.size(), want.x.size());
  for (std::size_t i = 0; i < got.x.size(); ++i) {
    ASSERT_EQ(got.x[i], want.x[i]) << "x[" << i << "]";
  }
  ASSERT_EQ(got.residual_history, want.residual_history);
  ASSERT_EQ(got.inner_solves.size(), want.inner_solves.size());
  for (std::size_t k = 0; k < got.inner_solves.size(); ++k) {
    const krylov::InnerSolveRecord& g = got.inner_solves[k];
    const krylov::InnerSolveRecord& w = want.inner_solves[k];
    EXPECT_EQ(g.status, w.status) << k;
    EXPECT_EQ(g.iterations, w.iterations) << k;
    EXPECT_EQ(g.operator_applies, w.operator_applies) << k;
    EXPECT_EQ(g.residual_norm, w.residual_norm) << k;
    EXPECT_EQ(g.reliable_retries, w.reliable_retries) << k;
    EXPECT_EQ(g.triggered_outer_restart, w.triggered_outer_restart) << k;
    EXPECT_EQ(g.global_syncs, w.global_syncs) << k;
  }
}

/// A class-1 fault at inner iteration 5 plus a bound detector carrying
/// \p response: the detector fires mid-way through the first inner
/// solve, i.e. in the middle of a lockstep inner block.
struct FlaggedHook {
  FlaggedHook(double bound, sdc::DetectorResponse response)
      : campaign(sdc::InjectionPlan::hessenberg(
            5, sdc::MgsPosition::First, sdc::FaultModel::scale(1e150))),
        detector(bound, response), chain({&campaign, &detector}) {}
  sdc::FaultCampaign campaign;
  sdc::HessenbergBoundDetector detector;
  krylov::HookChain chain;
};

/// Mixed-plane recovery in lockstep: a float32/int32 batch of 3 in which
/// only instance 1 carries the flagged hook.  Every instance must be
/// bitwise equal to its own single ft_gmres solve, and the flagged
/// instance's records must show the recovery that ran.
std::vector<krylov::FtGmresResult> run_flagged_float_batch(
    krylov::InnerRecovery recovery, sdc::DetectorResponse response) {
  const auto A = gen::poisson2d(10);
  const krylov::CsrOperator op(A);
  auto opts = paper_options();
  opts.inner.max_iters = 8;
  opts.precision = krylov::Precision::Float;
  opts.index_width = krylov::IndexWidth::I32;
  opts.recovery = recovery;
  const double bound = A.frobenius_norm();
  std::vector<la::Vector> bs;
  for (std::size_t i = 0; i < 3; ++i) {
    la::Vector b(A.rows());
    for (std::size_t j = 0; j < b.size(); ++j) {
      b[j] = 1.0 + 0.01 * static_cast<double>((i + j) % 7);
    }
    bs.push_back(std::move(b));
  }

  FlaggedHook flagged(bound, response);
  std::vector<krylov::ArnoldiHook*> hooks(bs.size(), nullptr);
  hooks[1] = &flagged.chain;
  krylov::FtGmresBatchWorkspace ws;
  auto batch = krylov::ft_gmres_batch(op, bs, opts, hooks, &ws);
  EXPECT_TRUE(flagged.detector.triggered());

  for (std::size_t i = 0; i < bs.size(); ++i) {
    FlaggedHook own(bound, response);
    const auto single = krylov::ft_gmres(op, bs[i], opts,
                                         i == 1 ? &own.chain : nullptr);
    expect_bitwise(batch[i], single, i);
  }
  return batch;
}

} // namespace

TEST(MixedPrecisionFtGmres, DoubleInt32IsBitwiseIdenticalToDefault) {
  // Index narrowing never touches the arithmetic: iterate, residual, and
  // iteration counts must be bitwise equal to the default plane.
  const auto A = gen::convection_diffusion2d(20, 1.0, 0.5); // n = 400
  const la::Vector b = ones(A.rows());
  const auto opts = paper_options();

  const auto ref = krylov::ft_gmres(A, b, opts);
  ASSERT_EQ(ref.status, krylov::SolveStatus::Converged);

  auto opts32 = opts;
  opts32.index_width = krylov::IndexWidth::I32;
  const auto got = krylov::ft_gmres(A, b, opts32);
  EXPECT_EQ(got.status, ref.status);
  EXPECT_EQ(got.outer_iterations, ref.outer_iterations);
  EXPECT_EQ(got.total_inner_iterations, ref.total_inner_iterations);
  EXPECT_EQ(got.residual_norm, ref.residual_norm);
  ASSERT_EQ(got.x.size(), ref.x.size());
  for (std::size_t i = 0; i < ref.x.size(); ++i) {
    EXPECT_EQ(got.x[i], ref.x[i]) << i;
  }
}

TEST(MixedPrecisionFtGmres, BatchedDoubleInt32IsBitwiseIdenticalToDefault) {
  const auto A = gen::poisson2d(20); // n = 400
  const krylov::CsrOperator op(A);
  std::vector<la::Vector> bs;
  for (std::size_t i = 0; i < 3; ++i) {
    la::Vector b(A.rows());
    for (std::size_t j = 0; j < b.size(); ++j) {
      b[j] = 1.0 + 0.01 * static_cast<double>((i + j) % 7);
    }
    bs.push_back(std::move(b));
  }
  const auto opts = paper_options();
  const auto ref = krylov::ft_gmres_batch(op, bs, opts);

  auto opts32 = opts;
  opts32.index_width = krylov::IndexWidth::I32;
  const auto got = krylov::ft_gmres_batch(op, bs, opts32);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t r = 0; r < ref.size(); ++r) {
    EXPECT_EQ(got[r].outer_iterations, ref[r].outer_iterations) << r;
    EXPECT_EQ(got[r].residual_norm, ref[r].residual_norm) << r;
    for (std::size_t i = 0; i < ref[r].x.size(); ++i) {
      EXPECT_EQ(got[r].x[i], ref[r].x[i]) << r << "," << i;
    }
  }
}

TEST(MixedPrecisionFtGmres, FloatInnerConvergesWithinEnvelopeOnFig3Grid) {
  // The failure-free corner of the paper's Figure-3 scenario grid: the
  // Poisson model problem and a nonsymmetric convection-diffusion
  // variant, solo and batched, inner = 25 / tol = 0 / outer tol = 1e-8.
  struct Cell {
    const char* name;
    sparse::CsrMatrix A;
  };
  std::vector<Cell> grid;
  grid.push_back({"poisson-40", gen::poisson2d(40)});
  grid.push_back({"poisson-20", gen::poisson2d(20)});
  grid.push_back({"convdiff-20", gen::convection_diffusion2d(20, 1.0, 0.5)});

  for (const Cell& cell : grid) {
    const la::Vector b = ones(cell.A.rows());
    const auto opts = paper_options();
    const auto ref = krylov::ft_gmres(cell.A, b, opts);
    ASSERT_EQ(ref.status, krylov::SolveStatus::Converged) << cell.name;

    auto fopts = opts;
    fopts.precision = krylov::Precision::Float;
    fopts.index_width = krylov::IndexWidth::I32;
    const auto got = krylov::ft_gmres(cell.A, b, fopts);
    EXPECT_EQ(got.status, krylov::SolveStatus::Converged) << cell.name;
    EXPECT_LE(got.outer_iterations,
              ref.outer_iterations + FLOAT_OUTER_SLACK)
        << cell.name;
    // The outer residual check is the reliable (double) plane either
    // way, so the converged float run meets the same (relative)
    // tolerance as the all-double one.
    EXPECT_LE(got.residual_norm, opts.outer.tol * la::nrm2(b)) << cell.name;

    // Batched lockstep float: same envelope per instance.
    const krylov::CsrOperator op(cell.A);
    const std::vector<la::Vector> bs(4, b);
    const auto batch = krylov::ft_gmres_batch(op, bs, fopts);
    for (const auto& r : batch) {
      EXPECT_EQ(r.status, krylov::SolveStatus::Converged) << cell.name;
      EXPECT_LE(r.outer_iterations, ref.outer_iterations + FLOAT_OUTER_SLACK)
          << cell.name;
    }
  }
}

TEST(MixedPrecisionFtGmres, FloatRetryReliableInLockstepMatchesSingleSolves) {
  const auto batch = run_flagged_float_batch(
      krylov::InnerRecovery::RetryReliable,
      sdc::DetectorResponse::RetryReliable);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[1].reliable_retries, 1u);
  EXPECT_EQ(batch[1].inner_solves.front().reliable_retries, 1u);
  EXPECT_EQ(batch[0].reliable_retries, 0u);
  EXPECT_EQ(batch[2].reliable_retries, 0u);
  EXPECT_EQ(batch[1].status, krylov::SolveStatus::Converged);
}

TEST(MixedPrecisionFtGmres, FloatRestartOuterInLockstepMatchesSingleSolves) {
  const auto batch = run_flagged_float_batch(
      krylov::InnerRecovery::RestartOuter,
      sdc::DetectorResponse::RestartOuter);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(batch[1].inner_solves.front().triggered_outer_restart);
  EXPECT_EQ(batch[1].outer_restarts, 1u);
  EXPECT_EQ(batch[0].outer_restarts, 0u);
  EXPECT_EQ(batch[2].outer_restarts, 0u);
  EXPECT_EQ(batch[1].status, krylov::SolveStatus::Converged);
}

TEST(MixedPrecisionFtGmres, FloatInnerRequiresCsrBackedOperator) {
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator csr(A);
  const krylov::ScaledOperator scaled(csr, 1.0); // not CSR-backed
  const la::Vector b = ones(A.rows());
  auto opts = paper_options();
  opts.precision = krylov::Precision::Float;
  EXPECT_THROW((void)krylov::ft_gmres(scaled, b, opts),
               std::invalid_argument);
  opts.precision = krylov::Precision::Double;
  opts.index_width = krylov::IndexWidth::I32;
  EXPECT_THROW((void)krylov::ft_gmres(scaled, b, opts),
               std::invalid_argument);
  // The same non-CSR operator is fine on the default plane.
  opts.index_width = krylov::IndexWidth::I64;
  EXPECT_EQ(krylov::ft_gmres(scaled, b, opts).status,
            krylov::SolveStatus::Converged);
}

TEST(MixedPrecisionFtGmres, MirrorCountsNarrowedBytes) {
  const auto A = gen::poisson2d(10); // n = 100
  const sparse::CsrMatrixT<float, std::int32_t> M(A);
  const krylov::MixedCsrOperator<float, std::int32_t> op(M);
  std::vector<float> x(A.cols(), 1.0f), y(A.rows());
  op.apply(std::span<const float>(x), std::span<float>(y));
  const auto s = op.stats();
  EXPECT_EQ(s.apply_calls, 1u);
  EXPECT_EQ(s.scalar_bytes,
            sizeof(float) * (A.nnz() + A.rows() + A.cols()));
  EXPECT_EQ(s.index_bytes, sizeof(std::int32_t) * (A.nnz() + A.rows() + 1));
  // Same stream on the double/size_t CsrOperator costs exactly 2x in
  // both categories -- the traffic halving the bench demonstrates.
  const krylov::CsrOperator dop(A);
  la::Vector xd(A.cols()), yd(A.rows());
  xd.fill(1.0);
  dop.apply(std::span<const double>(xd.span()), yd.span());
  const auto sd = dop.stats();
  EXPECT_EQ(sd.scalar_bytes, 2 * s.scalar_bytes);
  EXPECT_EQ(sd.index_bytes, 2 * s.index_bytes);
}

TEST(MixedPrecisionScenario, SpecKeysValidate) {
  using experiment::ScenarioSpec;
  try {
    (void)experiment::run_scenario(
        ScenarioSpec::parse("solver=ft_gmres matrix=poisson n=6 precision=half"));
    FAIL() << "precision=half must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precision"), std::string::npos) << what;
    EXPECT_NE(what.find("double float"), std::string::npos) << what;
  }
  try {
    (void)experiment::run_scenario(
        ScenarioSpec::parse("solver=ft_gmres matrix=poisson n=6 index=16"));
    FAIL() << "index=16 must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("index"), std::string::npos) << what;
    EXPECT_NE(what.find("32 64"), std::string::npos) << what;
  }
  // Mixed keys apply to the nested solvers only.
  try {
    (void)experiment::run_scenario(
        ScenarioSpec::parse("solver=gmres matrix=poisson n=6 precision=float"));
    FAIL() << "precision=float on plain gmres must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ft_gmres"), std::string::npos) << what;
  }
}

TEST(MixedPrecisionScenario, SpecDrivenPlanesMatchDefaultScenario) {
  using experiment::ScenarioSpec;
  const auto base = experiment::run_scenario(
      ScenarioSpec::parse("solver=ft_gmres matrix=poisson n=20"));
  ASSERT_TRUE(base.report.converged());

  // index=32 through the registry: bitwise identical solve.
  const auto i32 = experiment::run_scenario(
      ScenarioSpec::parse("solver=ft_gmres matrix=poisson n=20 index=32"));
  EXPECT_EQ(i32.report.iterations, base.report.iterations);
  EXPECT_EQ(i32.report.residual_norm, base.report.residual_norm);

  // precision=float index=32 through the registry: converges within the
  // documented envelope; same for the batched solver.
  for (const char* spec :
       {"solver=ft_gmres matrix=poisson n=20 precision=float index=32",
        "solver=ft_gmres_batch matrix=poisson n=20 precision=float index=32"}) {
    const auto f = experiment::run_scenario(ScenarioSpec::parse(spec));
    EXPECT_TRUE(f.report.converged()) << spec;
    EXPECT_LE(f.report.iterations,
              base.report.iterations + FLOAT_OUTER_SLACK)
        << spec;
  }
}
