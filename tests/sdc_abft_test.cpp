#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "gen/convection_diffusion.hpp"
#include "gen/poisson.hpp"
#include "krylov/arnoldi.hpp"
#include "krylov/ft_gmres.hpp"
#include "krylov/gmres.hpp"
#include "krylov/mixed.hpp"
#include "la/blas1.hpp"
#include "sdc/abft.hpp"
#include "sdc/injection.hpp"
#include "sparse/csr_mixed.hpp"

namespace sdc = sdcgmres::sdc;
namespace krylov = sdcgmres::krylov;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;
namespace sparse = sdcgmres::sparse;

namespace {

la::Vector generic_vector(std::size_t n) {
  la::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(1.7 * static_cast<double>(i) + 0.3) + 0.01;
  }
  return v;
}

/// Online-ABFT-style recorder: consumes on_iteration_end only and folds
/// every value of every view it receives (context, each basis column,
/// the H column) into one FNV-1a digest over the IEEE bit patterns.  On
/// the float plane the views are widened float data, so every basis
/// entry must round-trip through float exactly.
class ViewRecorder final : public krylov::ArnoldiHook {
public:
  std::uint64_t digest = 14695981039346656037ull;
  std::size_t views = 0;
  std::size_t columns = 0;
  bool float_exact = true;

  void on_iteration_end(const krylov::ArnoldiContext& ctx,
                        const krylov::ArnoldiIterationView& view) override {
    ++views;
    mix(ctx.solve_index);
    mix(ctx.iteration);
    for (std::size_t c = 0; c < view.basis.cols(); ++c) {
      ++columns;
      for (const double value : view.basis.col(c)) {
        mix(std::bit_cast<std::uint64_t>(value));
        float_exact = float_exact &&
                      static_cast<double>(static_cast<float>(value)) == value;
      }
    }
    for (const double h : view.h_column) mix(std::bit_cast<std::uint64_t>(h));
  }

private:
  void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (word >> (8 * byte)) & 0xffu;
      digest *= 1099511628211ull;
    }
  }
};

/// A failure-free float/int32 FT-GMRES solve (Poisson 12x12, 10 inner
/// iterations) observed by [recorder, AbftMonitor]; the monitor runs at
/// float-level tolerances, so a stale or misplaced mirror column breaks
/// the recomputed Arnoldi relation.
ViewRecorder record_float_views(std::size_t s_step) {
  const auto A = gen::poisson2d(12);
  const krylov::CsrOperator op(A);
  krylov::FtGmresOptions opts;
  opts.inner.max_iters = 10;
  opts.inner.s_step = s_step;
  opts.outer.tol = 1e-8;
  opts.outer.max_outer = 50;
  opts.precision = krylov::Precision::Float;
  opts.index_width = krylov::IndexWidth::I32;

  ViewRecorder recorder;
  sdc::AbftOptions aopts;
  aopts.relation_tol = 1e-3;
  aopts.ortho_tol = 1e-3;
  sdc::AbftMonitor monitor(op, aopts);
  krylov::HookChain chain({&recorder, &monitor});
  const auto res = krylov::ft_gmres(op, generic_vector(A.rows()), opts, &chain);

  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
  EXPECT_EQ(recorder.views, res.total_inner_iterations);
  EXPECT_EQ(monitor.checks(), recorder.views);
  EXPECT_EQ(monitor.detections(), 0u);
  EXPECT_TRUE(recorder.float_exact);
  return recorder;
}

/// Checks each view of a direct GmresEngineT<float> solve against the
/// engine's own float arena: basis column c of the view must be the
/// widened arena column c, bit for bit.
class ArenaMirrorChecker final : public krylov::ArnoldiHook {
public:
  explicit ArenaMirrorChecker(krylov::KrylovWorkspaceT<float>& ws)
      : ws_(&ws) {}

  std::size_t views = 0;
  std::size_t mismatches = 0;

  void on_iteration_end(const krylov::ArnoldiContext& ctx,
                        const krylov::ArnoldiIterationView& view) override {
    (void)ctx;
    ++views;
    const auto& q = ws_->arena.basis();
    for (std::size_t c = 0; c < view.basis.cols(); ++c) {
      const std::span<const float> want = q.col(c);
      const std::span<const double> got = view.basis.col(c);
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (got[i] != static_cast<double>(want[i])) ++mismatches;
      }
    }
  }

private:
  krylov::KrylovWorkspaceT<float>* ws_;
};

} // namespace

TEST(Abft, ZeroPeriodThrows) {
  const auto A = gen::poisson2d(4);
  const krylov::CsrOperator op(A);
  sdc::AbftOptions opts;
  opts.check_period = 0;
  EXPECT_THROW(sdc::AbftMonitor(op, opts), std::invalid_argument);
}

TEST(Abft, NoFalsePositivesOnCleanRun) {
  const auto A = gen::convection_diffusion2d(8, 20.0, -5.0);
  const krylov::CsrOperator op(A);
  sdc::AbftMonitor monitor(op);
  (void)krylov::arnoldi(op, generic_vector(64), 15,
                        krylov::Orthogonalization::MGS, &monitor);
  EXPECT_EQ(monitor.checks(), 15u);
  EXPECT_EQ(monitor.detections(), 0u);
  EXPECT_LT(monitor.worst_relation_defect(), 1e-10);
}

TEST(Abft, CheckPeriodIsRespected) {
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  sdc::AbftOptions opts;
  opts.check_period = 4;
  sdc::AbftMonitor monitor(op, opts);
  (void)krylov::arnoldi(op, generic_vector(64), 12,
                        krylov::Orthogonalization::MGS, &monitor);
  EXPECT_EQ(monitor.checks(), 3u); // iterations 0, 4, 8
  EXPECT_EQ(monitor.extra_spmv(), 3u);
}

TEST(Abft, DetectsAllThreeFaultClassesOnNonzeroCoefficient) {
  // The key coverage difference vs the bound detector: the orthogonality
  // check sees the un-removed basis component, so even the *undetectable*
  // (by magnitude) class-2 and class-3 faults are caught.
  const auto A = gen::convection_diffusion2d(8, 20.0, -5.0);
  const krylov::CsrOperator op(A);
  for (const auto model : {sdc::fault_classes::very_large(),
                           sdc::fault_classes::slightly_smaller(),
                           sdc::fault_classes::nearly_zero()}) {
    sdc::FaultCampaign campaign(
        sdc::InjectionPlan::hessenberg(2, sdc::MgsPosition::Last, model));
    sdc::AbftMonitor monitor(op);
    krylov::HookChain chain({&campaign, &monitor});
    (void)krylov::arnoldi(op, generic_vector(64), 8,
                          krylov::Orthogonalization::MGS, &chain);
    ASSERT_TRUE(campaign.fired()) << sdc::to_string(model);
    EXPECT_TRUE(monitor.triggered()) << sdc::to_string(model);
  }
}

TEST(Abft, MgsCoefficientFaultIsSelfConsistentWithArnoldiRelation) {
  // Documented property: the corrupted coefficient is both stored and
  // applied, so the relation check alone stays clean -- detection comes
  // from the orthogonality check.
  const auto A = gen::convection_diffusion2d(8, 20.0, -5.0);
  const krylov::CsrOperator op(A);
  sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
      2, sdc::MgsPosition::Last, sdc::fault_classes::slightly_smaller()));
  sdc::AbftOptions opts;
  opts.ortho_tol = 1e300; // disable the orthonormality check
  sdc::AbftMonitor monitor(op, opts);
  krylov::HookChain chain({&campaign, &monitor});
  (void)krylov::arnoldi(op, generic_vector(64), 8,
                        krylov::Orthogonalization::MGS, &chain);
  ASSERT_TRUE(campaign.fired());
  EXPECT_FALSE(monitor.triggered());
  EXPECT_LT(monitor.worst_relation_defect(), 1e-10);
}

TEST(Abft, DetectsSubdiagonalFaultViaNormality) {
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  sdc::InjectionPlan plan;
  plan.target = sdc::InjectionTarget::SubdiagonalNorm;
  plan.aggregate_iteration = 3;
  plan.model = sdc::FaultModel::scale(2.0); // modest -- bound can't see it
  sdc::FaultCampaign campaign(plan);
  sdc::AbftMonitor monitor(op);
  krylov::HookChain chain({&campaign, &monitor});
  (void)krylov::arnoldi(op, generic_vector(64), 8,
                        krylov::Orthogonalization::MGS, &chain);
  ASSERT_TRUE(campaign.fired());
  EXPECT_TRUE(monitor.triggered());
}

TEST(Abft, AbortResponseStopsGmres) {
  const auto A = gen::convection_diffusion2d(8, 20.0, -5.0);
  const krylov::CsrOperator op(A);
  sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
      4, sdc::MgsPosition::Last, sdc::fault_classes::slightly_smaller()));
  sdc::AbftOptions opts;
  opts.response = sdc::DetectorResponse::AbortSolve;
  sdc::AbftMonitor monitor(op, opts);
  krylov::HookChain chain({&campaign, &monitor});
  krylov::GmresOptions gopts;
  gopts.max_iters = 20;
  gopts.tol = 0.0;
  const auto res =
      krylov::gmres(op, la::ones(64), la::zeros(64), gopts, &chain, 0);
  EXPECT_EQ(res.status, krylov::SolveStatus::AbortedByDetector);
  // The tainted column (iteration 4) is dropped: only 4 columns used.
  EXPECT_EQ(res.iterations, 4u);
  EXPECT_TRUE(la::all_finite(res.x));
}

TEST(Abft, ResetClearsState) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  sdc::AbftMonitor monitor(op);
  (void)krylov::arnoldi(op, generic_vector(36), 5,
                        krylov::Orthogonalization::MGS, &monitor);
  ASSERT_GT(monitor.checks(), 0u);
  monitor.reset();
  EXPECT_EQ(monitor.checks(), 0u);
  EXPECT_EQ(monitor.extra_spmv(), 0u);
  EXPECT_EQ(monitor.worst_relation_defect(), 0.0);
}

// Digests of every view record_float_views() receives (see ViewRecorder).
constexpr std::size_t PINNED_VIEWS_S1 = 60;
constexpr std::size_t PINNED_COLUMNS_S1 = 390;
constexpr std::uint64_t PINNED_DIGEST_S1 = 596511016129325884ull;
constexpr std::size_t PINNED_VIEWS_S4 = 60;
constexpr std::size_t PINNED_COLUMNS_S4 = 390;
constexpr std::uint64_t PINNED_DIGEST_S4 = 10733058737998183631ull;

// The float inner plane hands whole-iteration hooks a widened double
// mirror of its basis.  The digests pin that mirror bit for bit (any
// change to how it is built must leave every view unchanged); the ABFT
// monitor in the chain independently checks each view against A.
TEST(AbftFloatPlane, WidenedViewsArePinnedOneVector) {
  const ViewRecorder rec = record_float_views(1);
  EXPECT_EQ(rec.views, PINNED_VIEWS_S1);
  EXPECT_EQ(rec.columns, PINNED_COLUMNS_S1);
  EXPECT_EQ(rec.digest, PINNED_DIGEST_S1);
}

TEST(AbftFloatPlane, WidenedViewsArePinnedSStep) {
  const ViewRecorder rec = record_float_views(4);
  EXPECT_EQ(rec.views, PINNED_VIEWS_S4);
  EXPECT_EQ(rec.columns, PINNED_COLUMNS_S4);
  EXPECT_EQ(rec.digest, PINNED_DIGEST_S4);
}

// Across restart cycles (restart 6, 20 iterations, so the last cycle is
// partial) every view equals the widened float arena, on both paths.
TEST(AbftFloatPlane, ViewsMirrorTheFloatArenaAcrossRestarts) {
  const auto A = gen::convection_diffusion2d(10, 20.0, -5.0);
  const sparse::CsrMatrixT<float, std::int32_t> af(A);
  const krylov::MatrixOperator<sparse::CsrMatrixT<float, std::int32_t>> op(af);
  const la::Vector bd = generic_vector(A.rows());
  std::vector<float> b(A.rows());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(bd[i]);

  for (const std::size_t s_step : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(s_step);
    krylov::GmresOptions opts;
    opts.max_iters = 20;
    opts.restart = 6;
    opts.tol = 0.0;
    opts.s_step = s_step;
    krylov::KrylovWorkspaceT<float> ws;
    ArenaMirrorChecker checker(ws);
    std::vector<float> x(A.rows(), 0.0f);
    krylov::GmresEngineT<float> engine(A.rows(), A.cols(), b, x, opts,
                                       &checker, 0, ws, nullptr);
    while (!engine.finished()) krylov::step_with_apply(op, engine);
    EXPECT_EQ(engine.stats().status, krylov::SolveStatus::MaxIterations);
    EXPECT_EQ(checker.views, 20u);
    EXPECT_EQ(checker.mismatches, 0u);
  }
}
