#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "gen/poisson.hpp"
#include "krylov/ft_gmres.hpp"
#include "krylov/gmres.hpp"
#include "krylov/hooks.hpp"
#include "sdc/abft.hpp"
#include "sdc/detector.hpp"
#include "sdc/injection.hpp"

namespace krylov = sdcgmres::krylov;
namespace la = sdcgmres::la;
namespace gen = sdcgmres::gen;
namespace sdc = sdcgmres::sdc;
namespace hook_events = sdcgmres::krylov::hook_events;

namespace {

/// Records the order of events and optionally mutates/aborts.
class TraceHook final : public krylov::ArnoldiHook {
public:
  explicit TraceHook(std::string tag, std::vector<std::string>* trace)
      : tag_(std::move(tag)), trace_(trace) {}

  double add_on_coefficient = 0.0;
  bool abort = false;

  void on_solve_begin(std::size_t solve_index) override {
    trace_->push_back(tag_ + ":solve" + std::to_string(solve_index));
  }
  void on_iteration_begin(const krylov::ArnoldiContext& ctx) override {
    trace_->push_back(tag_ + ":iter" + std::to_string(ctx.iteration));
  }
  void on_matvec_result(const krylov::ArnoldiContext&,
                        std::span<double> v) override {
    trace_->push_back(tag_ + ":matvec");
    (void)v;
  }
  void on_power_computed(const krylov::ArnoldiContext&, std::size_t power_index,
                         std::size_t block_size,
                         std::span<double> power) override {
    trace_->push_back(tag_ + ":pow" + std::to_string(power_index) + "/" +
                      std::to_string(block_size));
    (void)power;
  }
  void on_projection_coefficient(const krylov::ArnoldiContext&, std::size_t i,
                                 std::size_t, double& h) override {
    trace_->push_back(tag_ + ":h" + std::to_string(i));
    h += add_on_coefficient;
  }
  void on_subdiagonal(const krylov::ArnoldiContext&, double& h) override {
    trace_->push_back(tag_ + ":sub");
    (void)h;
  }
  [[nodiscard]] bool abort_requested() const override { return abort; }

private:
  std::string tag_;
  std::vector<std::string>* trace_;
};

/// Declares \p mask and counts the vector-valued events it receives.
class CountingHook final : public krylov::ArnoldiHook {
public:
  explicit CountingHook(krylov::HookEvents mask) : mask_(mask) {}

  std::size_t matvecs = 0;
  std::size_t powers = 0;
  std::size_t iteration_ends = 0;

  [[nodiscard]] krylov::HookEvents events() const override { return mask_; }
  void on_matvec_result(const krylov::ArnoldiContext&,
                        std::span<double>) override {
    ++matvecs;
  }
  void on_power_computed(const krylov::ArnoldiContext&, std::size_t,
                         std::size_t, std::span<double>) override {
    ++powers;
  }
  void on_iteration_end(const krylov::ArnoldiContext&,
                        const krylov::ArnoldiIterationView&) override {
    ++iteration_ends;
  }

private:
  krylov::HookEvents mask_;
};

/// Declares nothing and does nothing: the default all-events mask.
class PassThroughHook final : public krylov::ArnoldiHook {};

la::Vector rhs(std::size_t n) {
  la::Vector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = 1.0 + 0.01 * static_cast<double>(i % 7);
  }
  return b;
}

/// IEEE bit patterns, so NaNs from a propagated fault compare equal.
std::vector<std::uint64_t> bits(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_same_log(const sdc::EventLog& got, const sdc::EventLog& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    const sdc::Event& g = got.events()[k];
    const sdc::Event& w = want.events()[k];
    EXPECT_EQ(g.kind, w.kind) << k;
    EXPECT_EQ(g.solve_index, w.solve_index) << k;
    EXPECT_EQ(g.iteration, w.iteration) << k;
    EXPECT_EQ(g.coefficient, w.coefficient) << k;
    EXPECT_EQ(bits(g.value_before), bits(w.value_before)) << k;
    EXPECT_EQ(bits(g.value_after), bits(w.value_after)) << k;
    EXPECT_EQ(bits(g.bound), bits(w.bound)) << k;
    EXPECT_EQ(g.description, w.description) << k;
  }
}

} // namespace

TEST(HookChain, ForwardsEventsInOrder) {
  std::vector<std::string> trace;
  TraceHook a("a", &trace);
  TraceHook b("b", &trace);
  krylov::HookChain chain({&a, &b});

  chain.on_solve_begin(0);
  krylov::ArnoldiContext ctx{.solve_index = 0, .iteration = 2};
  chain.on_iteration_begin(ctx);
  double h = 1.0;
  chain.on_projection_coefficient(ctx, 0, 1, h);
  chain.on_subdiagonal(ctx, h);
  la::Vector v{0.5};
  chain.on_power_computed(ctx, 1, 4, v.span());

  const std::vector<std::string> expected = {
      "a:solve0", "b:solve0", "a:iter2",   "b:iter2",  "a:h0",
      "b:h0",     "a:sub",    "b:sub",     "a:pow1/4", "b:pow1/4",
  };
  EXPECT_EQ(trace, expected);
}

TEST(HookChain, MutationsComposeLeftToRight) {
  // Chain [inject, detect] semantics rely on the left hook's mutation
  // being visible to the right hook.
  std::vector<std::string> trace;
  TraceHook injector("i", &trace);
  injector.add_on_coefficient = 10.0;

  class Checker final : public krylov::ArnoldiHook {
  public:
    double seen = 0.0;
    void on_projection_coefficient(const krylov::ArnoldiContext&, std::size_t,
                                   std::size_t, double& h) override {
      seen = h;
    }
  } checker;

  krylov::HookChain chain;
  chain.add(&injector);
  chain.add(&checker);
  double h = 1.0;
  chain.on_projection_coefficient({}, 0, 1, h);
  EXPECT_EQ(h, 11.0);
  EXPECT_EQ(checker.seen, 11.0); // checker saw the corrupted value
}

TEST(HookChain, AbortPropagatesFromAnyChild) {
  std::vector<std::string> trace;
  TraceHook a("a", &trace);
  TraceHook b("b", &trace);
  krylov::HookChain chain({&a, &b});
  EXPECT_FALSE(chain.abort_requested());
  b.abort = true;
  EXPECT_TRUE(chain.abort_requested());
  b.abort = false;
  a.abort = true;
  EXPECT_TRUE(chain.abort_requested());
}

TEST(HookChain, EmptyChainIsInert) {
  krylov::HookChain chain;
  double h = 5.0;
  chain.on_projection_coefficient({}, 0, 1, h);
  la::Vector v{1.0};
  chain.on_matvec_result({}, v.span());
  chain.on_power_computed({}, 0, 2, v.span());
  EXPECT_EQ(h, 5.0);
  EXPECT_EQ(v[0], 1.0);
  EXPECT_FALSE(chain.abort_requested());
}

TEST(ArnoldiHook, DefaultImplementationsAreNoOps) {
  class Minimal final : public krylov::ArnoldiHook {
  } hook;
  double h = 3.0;
  hook.on_solve_begin(0);
  hook.on_iteration_begin({});
  hook.on_projection_coefficient({}, 0, 1, h);
  hook.on_subdiagonal({}, h);
  la::Vector v{2.0};
  hook.on_matvec_result({}, v.span());
  hook.on_power_computed({}, 1, 4, v.span());
  EXPECT_EQ(h, 3.0);
  EXPECT_EQ(v[0], 2.0);
  EXPECT_FALSE(hook.abort_requested());
}

TEST(HookEvents, ChainIsTheUnionOfItsMembers) {
  CountingHook none(hook_events::none);
  CountingHook matvec(hook_events::matvec_result);
  CountingHook power(hook_events::power_computed);
  CountingHook end(hook_events::iteration_end);

  EXPECT_EQ(krylov::HookChain().events(), hook_events::none);
  EXPECT_EQ(krylov::HookChain({&none}).events(), hook_events::none);
  EXPECT_EQ(krylov::HookChain({&none, &matvec}).events(),
            hook_events::matvec_result);
  EXPECT_EQ(krylov::HookChain({&matvec, &end}).events(),
            hook_events::matvec_result | hook_events::iteration_end);
  EXPECT_EQ(krylov::HookChain({&end, &power, &matvec}).events(),
            hook_events::all);

  krylov::HookChain inner({&power});
  krylov::HookChain outer({&inner, &none});
  EXPECT_EQ(outer.events(), hook_events::power_computed);
  outer.add(&end);
  EXPECT_EQ(outer.events(),
            hook_events::power_computed | hook_events::iteration_end);
}

TEST(HookEvents, UndeclaredHookGetsEveryEvent) {
  PassThroughHook pass;
  std::vector<std::string> trace;
  TraceHook traced("t", &trace);
  CountingHook none(hook_events::none);
  EXPECT_EQ(pass.events(), hook_events::all);
  EXPECT_EQ(traced.events(), hook_events::all);
  EXPECT_EQ(krylov::HookChain({&none, &traced}).events(), hook_events::all);
}

TEST(HookEvents, SdcHooksDeclareWhatTheyRead) {
  const auto A = gen::poisson2d(4);
  const krylov::CsrOperator op(A);
  sdc::InjectionPlan plan = sdc::InjectionPlan::hessenberg(
      0, sdc::MgsPosition::First, sdc::FaultModel::scale(2.0));
  EXPECT_EQ(sdc::FaultCampaign(plan).events(), hook_events::none);
  plan.target = sdc::InjectionTarget::SubdiagonalNorm;
  EXPECT_EQ(sdc::FaultCampaign(plan).events(), hook_events::none);
  plan.target = sdc::InjectionTarget::MatvecElement;
  EXPECT_EQ(sdc::FaultCampaign(plan).events(), hook_events::matvec_result);
  plan.target = sdc::InjectionTarget::PowerElement;
  EXPECT_EQ(sdc::FaultCampaign(plan).events(), hook_events::power_computed);
  EXPECT_EQ(sdc::RecurringFaultCampaign(0, 1, sdc::MgsPosition::First,
                                        sdc::FaultModel::scale(2.0))
                .events(),
            hook_events::none);
  EXPECT_EQ(sdc::HessenbergBoundDetector(1.0).events(), hook_events::none);
  EXPECT_EQ(sdc::AbftMonitor(op).events(), hook_events::iteration_end);
}

// The engine delivers exactly the declared vector-valued events, on both
// data planes and both Arnoldi paths: 12 inner iterations per solve, one
// matvec result and one iteration end each, plus one staged power each
// in s-step mode.
TEST(HookEvents, EngineDeliversOnlyDeclaredEvents) {
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  const la::Vector b = rhs(A.rows());
  for (const auto precision :
       {krylov::Precision::Double, krylov::Precision::Float}) {
    for (const std::size_t s_step : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::to_string(s_step) +
                   (precision == krylov::Precision::Float ? " float"
                                                          : " double"));
      krylov::FtGmresOptions opts;
      opts.inner.max_iters = 12;
      opts.inner.s_step = s_step;
      opts.outer.max_outer = 1;
      opts.precision = precision;
      const std::size_t powers = s_step > 1 ? 12 : 0;

      CountingHook all(hook_events::all);
      CountingHook end(hook_events::iteration_end);
      CountingHook none(hook_events::none);
      krylov::HookChain chain({&all});
      (void)krylov::ft_gmres(op, b, opts, &chain);
      EXPECT_EQ(all.matvecs, 12u);
      EXPECT_EQ(all.powers, powers);
      EXPECT_EQ(all.iteration_ends, 12u);

      (void)krylov::ft_gmres(op, b, opts, &end);
      EXPECT_EQ(end.matvecs, 0u);
      EXPECT_EQ(end.powers, 0u);
      EXPECT_EQ(end.iteration_ends, 12u);

      (void)krylov::ft_gmres(op, b, opts, &none);
      EXPECT_EQ(none.matvecs + none.powers + none.iteration_ends, 0u);
    }
  }
}

// Skipping the float plane's widen/narrow round trips is result-neutral:
// a coefficient-fault campaign plus the bound detector (which declare no
// vector-valued event, so the engine widens nothing) gives the same
// solve, bit for bit, as the same chain with an all-events pass-through
// hook appended (which turns every widen back on).
TEST(HookEvents, SkippingTheFloatWidenIsResultNeutral) {
  const auto A = gen::poisson2d(12);
  const krylov::CsrOperator op(A);
  const la::Vector b = rhs(A.rows());
  const double bound = A.frobenius_norm();
  for (const std::size_t s_step : {std::size_t{1}, std::size_t{4}}) {
    for (const auto response : {sdc::DetectorResponse::RecordOnly,
                                sdc::DetectorResponse::AbortSolve}) {
      SCOPED_TRACE(std::to_string(s_step) + " " +
                   std::to_string(static_cast<int>(response)));
      krylov::FtGmresOptions opts;
      opts.inner.max_iters = 10;
      opts.inner.s_step = s_step;
      opts.outer.tol = 1e-8;
      opts.outer.max_outer = 60;
      opts.precision = krylov::Precision::Float;
      opts.index_width = krylov::IndexWidth::I32;
      const auto plan = sdc::InjectionPlan::hessenberg(
          13, sdc::MgsPosition::First, sdc::FaultModel::scale(1e20));

      sdc::FaultCampaign lean_campaign(plan);
      sdc::HessenbergBoundDetector lean_detector(bound, response);
      krylov::HookChain lean({&lean_campaign, &lean_detector});
      ASSERT_EQ(lean.events(), hook_events::none);
      const auto want = krylov::ft_gmres(op, b, opts, &lean);

      sdc::FaultCampaign full_campaign(plan);
      sdc::HessenbergBoundDetector full_detector(bound, response);
      PassThroughHook pass;
      krylov::HookChain full({&full_campaign, &full_detector, &pass});
      ASSERT_EQ(full.events(), hook_events::all);
      const auto got = krylov::ft_gmres(op, b, opts, &full);

      ASSERT_TRUE(lean_campaign.fired());
      EXPECT_TRUE(lean_detector.triggered());
      EXPECT_EQ(want.status, krylov::SolveStatus::Converged);
      EXPECT_EQ(got.status, want.status);
      EXPECT_EQ(got.outer_iterations, want.outer_iterations);
      EXPECT_EQ(got.total_inner_iterations, want.total_inner_iterations);
      EXPECT_EQ(bits(got.residual_norm), bits(want.residual_norm));
      EXPECT_EQ(bits(got.x.span()), bits(want.x.span()));
      EXPECT_EQ(bits(got.residual_history), bits(want.residual_history));
      expect_same_log(full_campaign.log(), lean_campaign.log());
      expect_same_log(full_detector.log(), lean_detector.log());
    }
  }
}
