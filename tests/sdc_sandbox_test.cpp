#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

#include "gen/poisson.hpp"
#include "krylov/fgmres.hpp"
#include "krylov/ft_gmres.hpp"
#include "la/blas1.hpp"
#include "sdc/sandbox.hpp"

namespace sdc = sdcgmres::sdc;
namespace krylov = sdcgmres::krylov;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;

namespace {

class WellBehavedGuest final : public krylov::FlexiblePreconditioner {
public:
  using krylov::FlexiblePreconditioner::apply;
  void apply(std::span<const double> q, std::size_t,
             std::span<double> z) override {
    la::copy(q, z);
    la::scal(2.0, z);
  }
};

class NaNGuest final : public krylov::FlexiblePreconditioner {
public:
  using krylov::FlexiblePreconditioner::apply;
  void apply(std::span<const double>, std::size_t,
             std::span<double> z) override {
    std::fill(z.begin(), z.end(), std::numeric_limits<double>::quiet_NaN());
  }
};

class CrashingGuest final : public krylov::FlexiblePreconditioner {
public:
  using krylov::FlexiblePreconditioner::apply;
  void apply(std::span<const double>, std::size_t, std::span<double> z) override {
    // Partial write before the crash: the sandbox must erase it.
    if (!z.empty()) z[0] = 1e300;
    throw std::runtime_error("guest crashed");
  }
};

/// A guest that writes only part of its output before returning -- the
/// span-contract analogue of the old wrong-shape failure (the host owns
/// the storage, so a wrong-SIZE output is structurally impossible now;
/// what remains possible is a guest that fails to fill its span).
class PartialWriteGuest final : public krylov::FlexiblePreconditioner {
public:
  using krylov::FlexiblePreconditioner::apply;
  void apply(std::span<const double>, std::size_t,
             std::span<double> z) override {
    if (!z.empty()) z[0] = std::numeric_limits<double>::infinity();
  }
};

} // namespace

TEST(Sandbox, PassesThroughGoodOutput) {
  WellBehavedGuest guest;
  sdc::Sandbox box(guest);
  la::Vector z;
  box.apply(la::Vector{1.0, 2.0}, 0, z);
  EXPECT_EQ(z[0], 2.0);
  EXPECT_EQ(z[1], 4.0);
  EXPECT_EQ(box.stats().invocations, 1u);
  EXPECT_EQ(box.stats().nonfinite_outputs, 0u);
}

TEST(Sandbox, FiltersNonFiniteOutput) {
  NaNGuest guest;
  sdc::Sandbox box(guest);
  la::Vector z;
  const la::Vector q{3.0, 4.0};
  box.apply(q, 0, z);
  EXPECT_EQ(z, q); // identity fallback
  EXPECT_EQ(box.stats().nonfinite_outputs, 1u);
}

TEST(Sandbox, NonFiniteFilterCanBeDisabled) {
  NaNGuest guest;
  sdc::SandboxOptions opts;
  opts.replace_nonfinite = false;
  sdc::Sandbox box(guest, opts);
  la::Vector z;
  box.apply(la::Vector{1.0}, 0, z);
  EXPECT_FALSE(la::all_finite(z));
  EXPECT_EQ(box.stats().nonfinite_outputs, 0u);
}

TEST(Sandbox, ConvertsCrashIntoSoftFault) {
  CrashingGuest guest;
  sdc::Sandbox box(guest);
  la::Vector z;
  const la::Vector q{5.0, 6.0};
  EXPECT_NO_THROW(box.apply(q, 0, z));
  EXPECT_EQ(z, q);
  EXPECT_EQ(box.stats().exceptions, 1u);
}

TEST(Sandbox, CrashPropagatesWhenCatchingDisabled) {
  CrashingGuest guest;
  sdc::SandboxOptions opts;
  opts.catch_exceptions = false;
  sdc::Sandbox box(guest, opts);
  la::Vector z;
  EXPECT_THROW(box.apply(la::Vector{1.0}, 0, z), std::runtime_error);
}

TEST(Sandbox, HostOwnsOutputShapeAndFiltersPartialWrites) {
  // Under the span data plane the host allocates z before the guest runs,
  // so the output shape is host-enforced; a guest that only half-fills its
  // span leaves non-finite-free garbage at worst -- here it leaves an Inf,
  // which the non-finite filter replaces wholesale.
  PartialWriteGuest guest;
  sdc::Sandbox box(guest);
  la::Vector z;
  const la::Vector q{1.0, 2.0, 3.0};
  box.apply(q, 0, z);
  EXPECT_EQ(z.size(), q.size());
  EXPECT_EQ(z, q); // identity fallback after the filter fired
  EXPECT_EQ(box.stats().nonfinite_outputs, 1u);
}

TEST(Sandbox, ResetClearsStats) {
  NaNGuest guest;
  sdc::Sandbox box(guest);
  la::Vector z;
  box.apply(la::Vector{1.0}, 0, z);
  ASSERT_EQ(box.stats().invocations, 1u);
  box.reset();
  EXPECT_EQ(box.stats().invocations, 0u);
  EXPECT_EQ(box.stats().nonfinite_outputs, 0u);
}

TEST(Sandbox, OuterSolverConvergesDespiteCrashingGuest) {
  // The sandbox turns every guest crash into an identity preconditioner
  // application, so FGMRES degenerates to plain GMRES and still converges:
  // the paper's "eventual convergence" promise in its most extreme form.
  const auto A = gen::poisson2d(7);
  const krylov::CsrOperator op(A);
  CrashingGuest guest;
  sdc::Sandbox box(guest);
  krylov::FgmresOptions opts;
  opts.max_outer = 200;
  opts.tol = 1e-8;
  const auto res = krylov::fgmres(op, la::ones(49), la::zeros(49), opts, box);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
  EXPECT_EQ(box.stats().exceptions, res.iterations);
}

TEST(Sandbox, WrapsInnerGmresTransparently) {
  // Sandbox around the real inner solver must not change the failure-free
  // iteration counts.
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(64);

  krylov::FtGmresOptions nested_opts;
  const auto direct = krylov::ft_gmres(A, b, nested_opts);

  krylov::InnerGmresPreconditioner inner(op, nested_opts.inner);
  sdc::Sandbox box(inner);
  const auto sandboxed =
      krylov::fgmres(op, b, la::zeros(64), nested_opts.outer, box);

  ASSERT_EQ(direct.status, krylov::SolveStatus::Converged);
  ASSERT_EQ(sandboxed.status, krylov::SolveStatus::Converged);
  EXPECT_EQ(sandboxed.iterations, direct.outer_iterations);
  EXPECT_EQ(box.stats().invocations, sandboxed.iterations);
}
