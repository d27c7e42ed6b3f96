#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "experiment/journal.hpp"
#include "experiment/shard.hpp"
#include "experiment/sweep.hpp"
#include "gen/poisson.hpp"
#include "la/blas1.hpp"

namespace experiment = sdcgmres::experiment;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;

namespace {

std::string journal_path(const char* name) {
  return testing::TempDir() + "sdcgmres_shard_" + name + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

experiment::SweepConfig small_sweep_config(const std::string& journal) {
  experiment::SweepConfig config;
  config.solver.inner.max_iters = 5;
  config.solver.outer.tol = 1e-8;
  config.solver.outer.max_outer = 120;
  config.journal = journal;
  return config;
}

void expect_identical(const experiment::SweepResult& a,
                      const experiment::SweepResult& b) {
  EXPECT_EQ(a.points, b.points);
  EXPECT_EQ(a.baseline_outer, b.baseline_outer);
  EXPECT_EQ(a.baseline_total_inner, b.baseline_total_inner);
  EXPECT_EQ(a.baseline_converged, b.baseline_converged);
}

} // namespace

TEST(ShardedSweep, MatchesSerialResultBitwise) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);

  experiment::SweepConfig serial_config = small_sweep_config("");
  const auto serial = experiment::run_injection_sweep(A, b, serial_config);

  const std::string path = journal_path("plain");
  experiment::ShardOptions shard;
  shard.workers = 3;
  experiment::ShardReport report;
  const auto sharded = experiment::run_sharded_sweep(
      A, b, small_sweep_config(path), shard, &report);

  expect_identical(sharded, serial);
  EXPECT_EQ(report.ranges, 3u);
  EXPECT_EQ(report.worker_crashes, 0u);
  // The merged journal holds every point.
  const auto contents = experiment::SweepJournal::load(path);
  EXPECT_TRUE(contents.has_header);
  EXPECT_EQ(contents.points.size(), serial.points.size());
  std::remove(path.c_str());
}

// The sharded sweep's traffic is the sum of its range journals' last
// stats records.  At batch=1 every point streams the matrix on its own,
// so the split into ranges cannot change the totals: they must equal the
// in-process sweep's, on the default plane and on the narrowed float one.
TEST(ShardedSweep, ReportsTheInProcessOperatorStats) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);

  for (const auto precision :
       {sdcgmres::krylov::Precision::Double,
        sdcgmres::krylov::Precision::Float}) {
    auto config = small_sweep_config(journal_path("stats"));
    config.batch = 1;
    config.solver.precision = precision;
    auto serial_config = config;
    serial_config.journal.clear();
    const auto serial = experiment::run_injection_sweep(A, b, serial_config);
    ASSERT_GT(serial.operator_stats.bytes(), 0u);

    experiment::ShardOptions shard;
    shard.workers = 2;
    const auto sharded = experiment::run_sharded_sweep(A, b, config, shard);
    expect_identical(sharded, serial);
    EXPECT_EQ(sharded.operator_stats, serial.operator_stats);

    // Resuming the finished merged journal re-solves nothing and restores
    // the traffic from its closing stats record.
    config.resume = true;
    const auto resumed = experiment::run_sharded_sweep(A, b, config, shard);
    expect_identical(resumed, serial);
    EXPECT_EQ(resumed.operator_stats, serial.operator_stats);
    std::remove(config.journal.c_str());
  }
}

TEST(ShardedSweep, Kill9MidRangeStillMatchesSerialBitwise) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);

  const auto serial =
      experiment::run_injection_sweep(A, b, small_sweep_config(""));

  // Drill: range 1's first-attempt worker SIGKILLs itself after
  // journaling 3 points -- a crash the parent must observe, re-queue, and
  // heal by resuming the range journal.  The retry skips the 3 journaled
  // points, so the final result exercises the resume path too.
  const std::string path = journal_path("kill9");
  experiment::ShardOptions shard;
  shard.workers = 2;
  shard.drill.range = 1;
  shard.drill.after_points = 3;
  experiment::ShardReport report;
  const auto sharded = experiment::run_sharded_sweep(
      A, b, small_sweep_config(path), shard, &report);

  expect_identical(sharded, serial);
  EXPECT_GE(report.worker_crashes, 1u);
  EXPECT_GE(report.ranges_requeued, 1u);
  std::remove(path.c_str());
}

TEST(ShardedSweep, StalledWorkerIsKilledByTheDeadlineAndHealed) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);

  const auto serial =
      experiment::run_injection_sweep(A, b, small_sweep_config(""));

  // Drill: range 0's first attempt hangs forever after journaling one
  // point.  Only the worker_timeout deadline can unstick the sweep.
  const std::string path = journal_path("stall");
  experiment::ShardOptions shard;
  shard.workers = 2;
  shard.worker_timeout_seconds = 1.0;
  shard.drill.range = 0;
  shard.drill.after_points = 1;
  shard.drill.stall = true;
  experiment::ShardReport report;
  const auto sharded = experiment::run_sharded_sweep(
      A, b, small_sweep_config(path), shard, &report);

  expect_identical(sharded, serial);
  EXPECT_GE(report.timeouts, 1u);
  EXPECT_GE(report.ranges_requeued, 1u);
  std::remove(path.c_str());
}

TEST(ShardedSweep, RetryExhaustionFailsLoudly) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);

  // Drill every attempt: the range can never complete, so after
  // max_retries the sweep must throw instead of spinning forever.
  const std::string path = journal_path("exhaust");
  experiment::ShardOptions shard;
  shard.workers = 2;
  shard.max_retries = 1;
  shard.retry_backoff_seconds = 0.0;
  shard.drill.range = 0;
  shard.drill.after_points = 0;
  shard.drill.every_attempt = true;
  EXPECT_THROW((void)experiment::run_sharded_sweep(
                   A, b, small_sweep_config(path), shard),
               std::runtime_error);
  // Clean up whatever journals the aborted run left behind.
  std::remove(path.c_str());
  std::remove((path + ".range0").c_str());
  std::remove((path + ".range1").c_str());
}

TEST(ShardedSweep, RequiresAJournalPath) {
  const auto A = gen::poisson2d(4);
  const la::Vector b = la::ones(16);
  experiment::ShardOptions shard;
  EXPECT_THROW((void)experiment::run_sharded_sweep(
                   A, b, small_sweep_config(""), shard),
               std::invalid_argument);
}

TEST(ShardedSweep, MoreWorkersThanPointsClampsToThePointCount) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);

  auto config = small_sweep_config(journal_path("clamp"));
  config.site_limit = 3; // 3 points only
  const auto serial_config = [&] {
    auto c = config;
    c.journal.clear();
    return c;
  }();
  const auto serial = experiment::run_injection_sweep(A, b, serial_config);

  experiment::ShardOptions shard;
  shard.workers = 16;
  experiment::ShardReport report;
  const auto sharded =
      experiment::run_sharded_sweep(A, b, config, shard, &report);
  expect_identical(sharded, serial);
  EXPECT_EQ(report.ranges, 3u);
  std::remove(config.journal.c_str());
}
