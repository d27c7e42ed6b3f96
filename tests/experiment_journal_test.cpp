#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "experiment/journal.hpp"
#include "experiment/sweep.hpp"
#include "gen/poisson.hpp"
#include "la/blas1.hpp"

namespace experiment = sdcgmres::experiment;
namespace krylov = sdcgmres::krylov;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;
namespace sdc = sdcgmres::sdc;

namespace {

/// Unique journal path under gtest's temp dir (tests may run in parallel).
std::string journal_path(const char* name) {
  return testing::TempDir() + "sdcgmres_journal_" + name + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

experiment::SweepJournalHeader sample_header() {
  experiment::SweepJournalHeader h;
  h.baseline_outer = 7;
  h.baseline_total_inner = 70;
  h.baseline_converged = true;
  h.n_points = 70;
  h.stride = 1;
  h.site_limit = 0;
  return h;
}

/// Every counter gets a value no other counter takes, so a counter left
/// out of the journal's key table fails the round trips below, and one
/// written under another counter's key fails PointRecordKeepsItsKeysAndOrder.
experiment::SweepPoint sample_point(std::size_t site) {
  experiment::SweepPoint p;
  p.aggregate_iteration = site;
  p.outer_iterations = 7 + site % 3;
  p.converged = true;
  p.injected = true;
  p.detected = site % 2 == 0;
  p.sanitized_outputs = 10 + site;
  p.operator_applies = 25 * (7 + site % 3);
  p.inner_diverged = site % 4 == 0 ? 1 : 0;
  p.reliable_retries = 20 + site;
  p.outer_restarts = 30 + site;
  p.global_syncs = 1000 + 37 * site;
  p.status = krylov::SolveStatus::Converged;
  // A value with no short decimal representation: the bit-pattern
  // round-trip is exactly what distinguishes the journal from a CSV.
  p.residual_norm = 1.0 / 3.0 * static_cast<double>(site + 1) * 1e-9;
  return p;
}

experiment::SweepConfig small_sweep_config() {
  experiment::SweepConfig config;
  config.solver.inner.max_iters = 5;
  config.solver.outer.tol = 1e-8;
  config.solver.outer.max_outer = 120;
  return config;
}

} // namespace

TEST(SweepJournal, MissingFileLoadsEmpty) {
  const auto contents =
      experiment::SweepJournal::load(journal_path("missing"));
  EXPECT_FALSE(contents.has_header);
  EXPECT_TRUE(contents.points.empty());
  EXPECT_FALSE(contents.discarded_tail);
}

TEST(SweepJournal, WriteMergedRoundTripsBitwise) {
  const std::string path = journal_path("roundtrip");
  const auto header = sample_header();
  std::vector<std::pair<std::size_t, experiment::SweepPoint>> points;
  for (std::size_t i = 0; i < 5; ++i) points.emplace_back(i, sample_point(i));

  experiment::SweepJournal::write_merged(path, header, points);
  const auto contents = experiment::SweepJournal::load(path);

  ASSERT_TRUE(contents.has_header);
  EXPECT_EQ(contents.header, header);
  ASSERT_EQ(contents.points.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(contents.points[i].first, points[i].first);
    // SweepPoint::operator== compares the residual doubles exactly: this
    // is the bitwise identity the u64 encoding exists for.
    EXPECT_EQ(contents.points[i].second, points[i].second);
  }
  EXPECT_FALSE(contents.discarded_tail);
  std::remove(path.c_str());
}

TEST(SweepJournal, AppendFlushLoadRoundTrips) {
  const std::string path = journal_path("append");
  const auto header = sample_header();
  {
    experiment::SweepJournal writer(path);
    writer.append_header(header);
    writer.append_point(3, sample_point(3));
    writer.flush();
    writer.append_point(4, sample_point(4));
    writer.flush();
  }
  const auto contents = experiment::SweepJournal::load(path);
  ASSERT_TRUE(contents.has_header);
  EXPECT_EQ(contents.header, header);
  ASSERT_EQ(contents.points.size(), 2u);
  EXPECT_EQ(contents.points[0].first, 3u);
  EXPECT_EQ(contents.points[1].second, sample_point(4));
  std::remove(path.c_str());
}

TEST(SweepJournal, PointRecordKeepsItsKeysAndOrder) {
  // Journals outlive builds: a point's keys, their order, and which
  // counter each key carries are a file format, not an implementation
  // detail (a swapped key/member pair would still round-trip).
  const std::string path = journal_path("format");
  experiment::SweepJournal::write_merged(path, sample_header(),
                                         {{1, sample_point(1)}});
  std::ifstream in(path);
  std::string header_line;
  std::string point_line;
  ASSERT_TRUE(std::getline(in, header_line));
  ASSERT_TRUE(std::getline(in, point_line));
  const double residual = sample_point(1).residual_norm;
  EXPECT_EQ(point_line,
            "{\"type\":\"point\",\"index\":1,\"site\":1,\"outer\":8,"
            "\"status\":\"converged\",\"converged\":true,\"injected\":true,"
            "\"detected\":false,\"sanitized\":11,\"inner_applies\":200,"
            "\"inner_diverged\":0,\"retries\":21,\"restarts\":31,"
            "\"syncs\":1037,\"residual_bits\":" +
                std::to_string(std::bit_cast<std::uint64_t>(residual)) + "}");
  std::remove(path.c_str());
}

TEST(SweepJournal, UnterminatedTailIsDiscardedEvenWhenItParses) {
  const std::string path = journal_path("tail");
  std::vector<std::pair<std::size_t, experiment::SweepPoint>> points{
      {0, sample_point(0)}, {1, sample_point(1)}};
  experiment::SweepJournal::write_merged(path, sample_header(), points);

  // Chop the trailing newline: the last line still parses, but a crash
  // mid-append can truncate a number without breaking the syntax, so the
  // loader must drop the tail unconditionally.
  std::ifstream in(path);
  std::stringstream data;
  data << in.rdbuf();
  in.close();
  std::string text = data.str();
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  std::ofstream(path, std::ios::trunc) << text;

  const auto contents = experiment::SweepJournal::load(path);
  EXPECT_TRUE(contents.discarded_tail);
  ASSERT_EQ(contents.points.size(), 1u);
  EXPECT_EQ(contents.points[0].first, 0u);
  std::remove(path.c_str());
}

TEST(SweepJournal, MalformedInteriorLineThrowsWithPathAndLineNumber) {
  const std::string path = journal_path("corrupt");
  experiment::SweepJournal::write_merged(
      path, sample_header(), {{0, sample_point(0)}, {1, sample_point(1)}});
  // Overwrite line 2 (the first point) with garbage of the same shape.
  std::ifstream in(path);
  std::string line, text;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    text += line_no == 2 ? "{\"type\":\"point\",garbage" : line;
    text += '\n';
  }
  in.close();
  std::ofstream(path, std::ios::trunc) << text;

  try {
    (void)experiment::SweepJournal::load(path);
    FAIL() << "corrupt interior line must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(SweepJournal, UnwritableDirectoryThrowsWithPathAndReason) {
  const std::string path = "/nonexistent-dir/sweep.jsonl";
  try {
    experiment::SweepJournal writer(path);
    FAIL() << "opening a journal in a missing directory must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("open for appending"), std::string::npos) << what;
  }
}

TEST(SweepJournal, DuplicateIndicesKeepTheLastOccurrence) {
  const std::string path = journal_path("dup");
  auto early = sample_point(2);
  auto late = sample_point(2);
  late.outer_iterations = 99;
  experiment::SweepJournal::write_merged(path, sample_header(),
                                         {{2, early}, {2, late}});
  const auto contents = experiment::SweepJournal::load(path);
  ASSERT_EQ(contents.points.size(), 2u);
  EXPECT_EQ(contents.points.back().second.outer_iterations, 99u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Checkpoint/resume through the sweep engine.
// ---------------------------------------------------------------------------

TEST(SweepJournalResume, InterruptedSweepResumesBitwiseIdentical) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  auto config = small_sweep_config();

  // Reference: one uninterrupted, journal-free sweep.
  const auto reference = experiment::run_injection_sweep(A, b, config);

  // "Interrupted" run: journal everything, then truncate the journal to
  // the header plus half the points -- exactly what a crash leaves behind
  // (the final partial line case is covered above).
  const std::string path = journal_path("resume");
  config.journal = path;
  (void)experiment::run_injection_sweep(A, b, config);

  auto full = experiment::SweepJournal::load(path);
  ASSERT_TRUE(full.has_header);
  ASSERT_EQ(full.points.size(), reference.points.size());
  full.points.resize(full.points.size() / 2);
  experiment::SweepJournal::write_merged(path, full.header, full.points);

  config.resume = true;
  const auto resumed = experiment::run_injection_sweep(A, b, config);
  EXPECT_EQ(resumed.points, reference.points);
  EXPECT_EQ(resumed.baseline_outer, reference.baseline_outer);
  EXPECT_EQ(resumed.baseline_total_inner, reference.baseline_total_inner);

  // The finished journal holds every point again, in index order.
  const auto final_contents = experiment::SweepJournal::load(path);
  EXPECT_EQ(final_contents.points.size(), reference.points.size());
  std::remove(path.c_str());
}

TEST(SweepJournalResume, HeaderMismatchRefusesToResume) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  auto config = small_sweep_config();
  const std::string path = journal_path("mismatch");
  config.journal = path;
  (void)experiment::run_injection_sweep(A, b, config);

  // The same journal fed to a differently-shaped sweep must be refused:
  // stride changes the point <-> site mapping.
  config.resume = true;
  config.stride = 2;
  EXPECT_THROW((void)experiment::run_injection_sweep(A, b, config),
               std::invalid_argument);
  std::remove(path.c_str());
}

// --- stats records + progress tailing --------------------------------------

namespace {

experiment::SweepRunningStats sample_stats(std::size_t done) {
  experiment::SweepRunningStats s;
  s.points_done = done;
  s.traffic.apply_calls = 100 * done;
  s.traffic.apply_block_calls = 7 * done;
  s.traffic.block_columns = 28 * done;
  s.traffic.scalar_bytes = 1'000'000 * done + 13;
  s.traffic.index_bytes = 800'000 * done + 5;
  return s;
}

} // namespace

TEST(SweepJournal, StatsRecordsRoundTripAndLastWins) {
  const std::string path = journal_path("stats");
  {
    experiment::SweepJournal writer(path);
    writer.append_header(sample_header());
    writer.append_point(0, sample_point(0));
    writer.append_stats(sample_stats(1));
    writer.append_point(1, sample_point(1));
    writer.append_stats(sample_stats(2));
    writer.flush();
  }
  const auto contents = experiment::SweepJournal::load(path);
  ASSERT_TRUE(contents.has_stats);
  // The LAST record wins: it is the cumulative baseline a resume
  // restores, so the raw traffic decomposition must round-trip exactly.
  EXPECT_EQ(contents.stats, sample_stats(2));
  std::remove(path.c_str());
}

TEST(SweepJournal, WriteMergedDropsStatsRecords) {
  const std::string path = journal_path("stats_merged");
  {
    experiment::SweepJournal writer(path);
    writer.append_header(sample_header());
    writer.append_point(0, sample_point(0));
    writer.append_stats(sample_stats(1));
    writer.flush();
  }
  auto contents = experiment::SweepJournal::load(path);
  ASSERT_TRUE(contents.has_stats);
  experiment::SweepJournal::write_merged(path, contents.header,
                                         contents.points);
  contents = experiment::SweepJournal::load(path);
  EXPECT_FALSE(contents.has_stats)
      << "compaction drops stats lines; the resume path re-appends the "
         "restored baseline itself";
  EXPECT_EQ(contents.points.size(), 1u);
  std::remove(path.c_str());
}

TEST(SweepJournal, TailOfMissingJournalIsNotStarted) {
  const auto progress =
      experiment::tail_sweep_journal(journal_path("tail_missing"));
  EXPECT_FALSE(progress.started);
  EXPECT_EQ(progress.tally.points, 0u);
  EXPECT_FALSE(progress.has_stats);
}

TEST(SweepJournal, TailAggregatesPointsWithLastWinsDedup) {
  const std::string path = journal_path("tail_agg");
  {
    experiment::SweepJournal writer(path);
    writer.append_header(sample_header());
    writer.append_point(0, sample_point(0));
    writer.append_point(1, sample_point(1));
    // Point 0 journaled twice (a re-queued shard range re-solves it):
    // the tail must count it once, keeping the LAST occurrence.
    writer.append_point(0, sample_point(0));
    writer.append_stats(sample_stats(2));
    writer.flush();
  }
  const auto progress = experiment::tail_sweep_journal(path);
  EXPECT_TRUE(progress.started);
  EXPECT_EQ(progress.header, sample_header());
  EXPECT_EQ(progress.tally.points, 2u);
  EXPECT_EQ(progress.tally.detected, 1u); // sites 0 (even) of {0,1}
  EXPECT_EQ(progress.tally.diverged, 1u); // site 0 has inner_diverged == 1
  EXPECT_EQ(progress.tally.reliable_retries, 41u); // 20 + 21
  EXPECT_EQ(progress.tally.outer_restarts, 61u);   // 30 + 31
  ASSERT_TRUE(progress.has_stats);
  EXPECT_EQ(progress.stats, sample_stats(2));
  std::remove(path.c_str());
}

TEST(SweepJournal, TallyOfResultTailAndShardMergeAgree) {
  // One tally type, three routes: the finished result, the journal tail,
  // and the service's merge of per-range journal tails.
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  auto config = small_sweep_config();
  config.with_detector = true;
  config.detector_bound = A.frobenius_norm();
  config.detector_response = sdc::DetectorResponse::RetryReliable;
  const std::string path = journal_path("tally");
  config.journal = path;
  const auto sweep = experiment::run_injection_sweep(A, b, config);
  const experiment::SweepTally tally = sweep.tally();
  ASSERT_GT(tally.reliable_retries, 0u);
  ASSERT_GT(tally.global_syncs, 0u);

  const auto tail = experiment::tail_sweep_journal(path);
  EXPECT_EQ(tail.tally, tally);

  // Split the journal into two range journals, as a sharded sweep writes
  // them, and merge their tails the way the service does.
  const auto contents = experiment::SweepJournal::load(path);
  const std::size_t half = contents.points.size() / 2;
  const std::string lo = journal_path("tally_range0");
  const std::string hi = journal_path("tally_range1");
  experiment::SweepJournal::write_merged(
      lo, contents.header,
      {contents.points.begin(), contents.points.begin() + half});
  experiment::SweepJournal::write_merged(
      hi, contents.header,
      {contents.points.begin() + half, contents.points.end()});
  experiment::SweepProgress merged;
  merged += experiment::tail_sweep_journal(lo);
  merged += experiment::tail_sweep_journal(hi);
  EXPECT_EQ(merged.header, contents.header);
  EXPECT_EQ(merged.tally, tally);

  std::remove(path.c_str());
  std::remove(lo.c_str());
  std::remove(hi.c_str());
}
