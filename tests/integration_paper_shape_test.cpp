#include <gtest/gtest.h>

#include "experiment/sweep.hpp"
#include "gen/poisson.hpp"
#include "la/blas1.hpp"

namespace experiment = sdcgmres::experiment;
namespace sdc = sdcgmres::sdc;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;

/// Regression guards for the paper's *qualitative* findings on a
/// miniature version of the Fig. 3 protocol (Poisson, FT-GMRES).  If any
/// of these flip, the reproduction no longer tells the paper's story,
/// even if every unit test still passes.
namespace {

experiment::SweepResult run(sdc::MgsPosition position,
                            const sdc::FaultModel& model) {
  static const auto A = gen::poisson2d(10);
  static const la::Vector b = la::ones(A.rows());
  experiment::SweepConfig config;
  config.solver.inner.max_iters = 10;
  config.solver.outer.tol = 1e-8;
  config.solver.outer.max_outer = 200;
  config.position = position;
  config.model = model;
  return experiment::run_injection_sweep(A, b, config);
}

} // namespace

TEST(PaperShape, EveryConfigurationRunsThrough) {
  // The headline: no configuration of a single SDC event prevents
  // convergence (run-through without rollback).
  for (const auto position :
       {sdc::MgsPosition::First, sdc::MgsPosition::Last}) {
    for (const auto model : {sdc::fault_classes::very_large(),
                             sdc::fault_classes::slightly_smaller(),
                             sdc::fault_classes::nearly_zero()}) {
      const auto sweep = run(position, model);
      EXPECT_TRUE(sweep.baseline_converged);
      EXPECT_EQ(sweep.tally().failed, 0u) << sdc::to_string(model);
    }
  }
}

TEST(PaperShape, Class1FirstStepIsTheWorstConfiguration) {
  // Fig. 3a vs everything else: large faults on the first MGS step of an
  // SPD problem disturb more runs than any other configuration.
  const auto worst = run(sdc::MgsPosition::First,
                         sdc::fault_classes::very_large());
  const auto small_first = run(sdc::MgsPosition::First,
                               sdc::fault_classes::slightly_smaller());
  const auto large_last = run(sdc::MgsPosition::Last,
                              sdc::fault_classes::very_large());
  EXPECT_LT(worst.unchanged_runs(), small_first.unchanged_runs());
  EXPECT_LT(worst.unchanged_runs(), large_last.unchanged_runs());
}

TEST(PaperShape, SmallFaultsArePracticallyHarmless) {
  // Fig. 3a middle/bottom: class 2 and 3 faults leave the vast majority
  // of runs at the failure-free iteration count.
  for (const auto model : {sdc::fault_classes::slightly_smaller(),
                           sdc::fault_classes::nearly_zero()}) {
    const auto sweep = run(sdc::MgsPosition::First, model);
    EXPECT_GE(sweep.unchanged_runs() * 10, sweep.points.size() * 8)
        << sdc::to_string(model); // >= 80% unchanged
    EXPECT_LE(sweep.max_outer_increase(), 2u);
  }
}

TEST(PaperShape, LastStepFaultsAreMilderThanFirstStepFaults) {
  // Fig. 3b vs 3a for class 1: corrupting the final MGS coefficient
  // leaves no later step of the same column to taint.
  const auto first = run(sdc::MgsPosition::First,
                         sdc::fault_classes::very_large());
  const auto last = run(sdc::MgsPosition::Last,
                        sdc::fault_classes::very_large());
  EXPECT_GE(last.unchanged_runs(), first.unchanged_runs());
  EXPECT_LE(last.max_outer_increase(), first.max_outer_increase());
}

TEST(PaperShape, DetectorMakesClass1PenaltySmall) {
  // Section VII-E-2: with the detector, the typical penalty for a
  // detected fault is about one extra outer iteration.
  static const auto A = gen::poisson2d(10);
  static const la::Vector b = la::ones(A.rows());
  experiment::SweepConfig config;
  config.solver.inner.max_iters = 10;
  config.solver.outer.tol = 1e-8;
  config.solver.outer.max_outer = 200;
  config.position = sdc::MgsPosition::First;
  config.model = sdc::fault_classes::very_large();
  config.with_detector = true;
  config.detector_bound = A.frobenius_norm();
  const auto sweep = experiment::run_injection_sweep(A, b, config);
  EXPECT_EQ(sweep.tally().failed, 0u);
  EXPECT_LE(sweep.max_outer_increase(), 2u);
}
