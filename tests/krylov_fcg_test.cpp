#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <stdexcept>

#include "gen/poisson.hpp"
#include "gen/random_sparse.hpp"
#include "krylov/cg.hpp"
#include "krylov/fcg.hpp"
#include "la/blas1.hpp"
#include "sdc/injection.hpp"

namespace krylov = sdcgmres::krylov;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;
namespace sdc = sdcgmres::sdc;

namespace {

double explicit_residual(const sdcgmres::sparse::CsrMatrix& A,
                         const la::Vector& b, const la::Vector& x) {
  la::Vector r(A.rows());
  A.spmv(x, r);
  la::waxpby(1.0, b, -1.0, r, r);
  return la::nrm2(r);
}

class IdentityFlexible final : public krylov::FlexiblePreconditioner {
public:
  using krylov::FlexiblePreconditioner::apply;
  void apply(std::span<const double> q, std::size_t,
             std::span<double> z) override {
    la::copy(q, z);
  }
};

/// Jacobi on even applications, identity on odd ones: a genuinely
/// changing preconditioner.
class AlternatingFlexible final : public krylov::FlexiblePreconditioner {
public:
  explicit AlternatingFlexible(la::Vector inv_diag)
      : inv_diag_(std::move(inv_diag)) {}
  using krylov::FlexiblePreconditioner::apply;
  void apply(std::span<const double> q, std::size_t index,
             std::span<double> z) override {
    if (index % 2 == 0) {
      la::hadamard(q, std::span<const double>(inv_diag_.span()), z);
    } else {
      la::copy(q, z);
    }
  }

private:
  la::Vector inv_diag_;
};

} // namespace

TEST(Fcg, IdentityPreconditionerMatchesPlainCgIterationCount) {
  const auto A = gen::poisson2d(10);
  const la::Vector b = la::ones(100);
  const krylov::CsrOperator op(A);
  IdentityFlexible M;
  krylov::FcgOptions opts;
  opts.tol = 1e-8;
  const auto flex = krylov::fcg(op, b, la::zeros(100), opts, M);

  krylov::CgOptions copts;
  copts.tol = 1e-8;
  const auto plain = krylov::cg(A, b, copts);

  ASSERT_EQ(flex.status, krylov::SolveStatus::Converged);
  ASSERT_TRUE(plain.converged);
  // With a fixed M, FCG reduces to PCG up to rounding; identical counts
  // modulo the explicit-residual verification step.
  EXPECT_NEAR(static_cast<double>(flex.iterations),
              static_cast<double>(plain.iterations), 2.0);
}

TEST(Fcg, ConvergesWithChangingPreconditioner) {
  const auto A = gen::anisotropic2d(12, 30.0, 1.0);
  const la::Vector b = la::ones(A.rows());
  const krylov::CsrOperator op(A);
  la::Vector inv_diag = A.diagonal();
  for (std::size_t i = 0; i < inv_diag.size(); ++i) {
    inv_diag[i] = 1.0 / inv_diag[i];
  }
  AlternatingFlexible M(std::move(inv_diag));
  krylov::FcgOptions opts;
  opts.tol = 1e-8;
  opts.max_outer = 3000;
  const auto res = krylov::fcg(op, b, la::zeros(A.rows()), opts, M);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
  EXPECT_LE(explicit_residual(A, b, res.x), 1e-6);
}

TEST(Fcg, DetectsIndefiniteOperator) {
  const auto A = gen::poisson2d(6).scaled(-1.0);
  const krylov::CsrOperator op(A);
  IdentityFlexible M;
  const auto res =
      krylov::fcg(op, la::ones(36), la::zeros(36), krylov::FcgOptions{}, M);
  EXPECT_EQ(res.status, krylov::SolveStatus::Indefinite);
}

TEST(Fcg, SanitizesNonFinitePreconditionerOutput) {
  class PoisonOnce final : public krylov::FlexiblePreconditioner {
  public:
    using krylov::FlexiblePreconditioner::apply;
    void apply(std::span<const double> q, std::size_t index,
               std::span<double> z) override {
      la::copy(q, z);
      if (index == 2) z[0] = std::nan("");
    }
  };
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  PoisonOnce M;
  krylov::FcgOptions opts;
  opts.tol = 1e-8;
  const auto res = krylov::fcg(op, la::ones(64), la::zeros(64), opts, M);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
  EXPECT_GE(res.sanitized_outputs, 1u);
}

TEST(Fcg, InvalidArgumentsThrow) {
  const auto A = gen::poisson1d(4);
  const krylov::CsrOperator op(A);
  IdentityFlexible M;
  krylov::FcgOptions opts;
  EXPECT_THROW((void)krylov::fcg(op, la::ones(5), la::zeros(4), opts, M),
               std::invalid_argument);
  opts.max_outer = 0;
  EXPECT_THROW((void)krylov::fcg(op, la::ones(4), la::zeros(4), opts, M),
               std::invalid_argument);
}

TEST(Fcg, StatusNamesAreStable) {
  EXPECT_STREQ(krylov::to_string(krylov::SolveStatus::Converged), "converged");
  EXPECT_STREQ(krylov::to_string(krylov::SolveStatus::MaxIterations),
               "max-iterations");
  EXPECT_STREQ(krylov::to_string(krylov::SolveStatus::Indefinite),
               "indefinite");
}

TEST(FtCg, SolvesPoissonFailureFree) {
  const auto A = gen::poisson2d(10);
  const la::Vector b = la::ones(100);
  krylov::FtCgOptions opts;
  opts.outer.tol = 1e-8;
  const auto res = krylov::ft_cg(A, b, opts);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
  EXPECT_LE(explicit_residual(A, b, res.x), 1e-8 * la::nrm2(b) * 1.01);
  EXPECT_GT(res.total_inner_iterations, 0u);
}

TEST(FtCg, FewerOuterIterationsThanPlainCg) {
  const auto A = gen::poisson2d(12);
  const la::Vector b = la::ones(A.rows());
  krylov::FtCgOptions opts;
  opts.outer.tol = 1e-8;
  const auto nested = krylov::ft_cg(A, b, opts);
  krylov::CgOptions copts;
  copts.tol = 1e-8;
  const auto plain = krylov::cg(A, b, copts);
  ASSERT_EQ(nested.status, krylov::SolveStatus::Converged);
  ASSERT_TRUE(plain.converged);
  EXPECT_LT(nested.outer_iterations, plain.iterations / 2);
}

TEST(FtCg, RunsThroughSingleFaults) {
  // The paper's future-work experiment: does the FT pattern transfer to a
  // flexible CG outer iteration?  Single faults of all three classes are
  // absorbed with bounded penalty.
  const auto A = gen::poisson2d(8);
  const la::Vector b = la::ones(64);
  krylov::FtCgOptions opts;
  opts.outer.tol = 1e-8;
  const auto baseline = krylov::ft_cg(A, b, opts);
  ASSERT_EQ(baseline.status, krylov::SolveStatus::Converged);

  for (const auto model : {sdc::fault_classes::very_large(),
                           sdc::fault_classes::slightly_smaller(),
                           sdc::fault_classes::nearly_zero()}) {
    sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
        5, sdc::MgsPosition::Last, model));
    const auto res = krylov::ft_cg(A, b, opts, &campaign);
    ASSERT_TRUE(campaign.fired()) << sdc::to_string(model);
    EXPECT_EQ(res.status, krylov::SolveStatus::Converged)
        << sdc::to_string(model);
    EXPECT_LE(res.outer_iterations, baseline.outer_iterations + 4)
        << sdc::to_string(model);
  }
}

TEST(FtCg, HookSeesInnerIterations) {
  class CountingHook final : public krylov::ArnoldiHook {
  public:
    std::size_t iterations = 0;
    void on_iteration_begin(const krylov::ArnoldiContext&) override {
      ++iterations;
    }
  };
  const auto A = gen::poisson2d(8);
  krylov::FtCgOptions opts;
  opts.inner.max_iters = 10;
  CountingHook hook;
  const auto res = krylov::ft_cg(A, la::ones(64), opts, &hook);
  EXPECT_EQ(hook.iterations, res.total_inner_iterations);
}
