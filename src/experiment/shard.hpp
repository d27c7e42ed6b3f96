#pragma once
/// \file shard.hpp
/// \brief Crash-tolerant process sharding of an injection sweep.
///
/// run_sharded_sweep forks worker processes over contiguous point ranges
/// of a sweep.  Each worker runs run_injection_sweep restricted to its
/// range, journaling every completed point into a per-range journal file
/// (see experiment/journal.hpp); the parent monitors the children and
/// re-queues the range of any worker that exits abnormally -- crash,
/// signal (SIGKILL included), or a worker_timeout deadline -- with a
/// capped retry count and backoff.  A re-run worker RESUMES its range
/// journal, so it only re-solves the points the dead attempt had not yet
/// flushed.  When all ranges complete, the parent merges the range
/// journals deterministically by point index into one SweepResult (and
/// one merged journal file), so the final result is bitwise identical to
/// a serial run no matter how many workers died along the way.
///
/// Because each injection-site solve is independent and deterministic
/// (the sweep determinism contract), process sharding -- like thread
/// sharding and lockstep batching -- cannot change any point's value;
/// it only changes which process computes it.
///
/// Fork/OpenMP discipline: before forking, the parent only ever runs
/// 1-thread OpenMP regions (the pinned baseline), which spawn no helper
/// threads, so the children never inherit a torn thread pool; each child
/// builds its own OpenMP team from scratch.

#include <cstddef>
#include <string>

#include "experiment/sweep.hpp"
#include "la/vector.hpp"
#include "sparse/csr.hpp"

namespace sdcgmres::experiment {

/// Crash-drill instructions for tests: make one range's worker die (or
/// stall) after journaling a few points, proving that the parent's
/// re-queue + resume machinery reconstructs the exact serial result.
struct ShardDrill {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t range = kNone;   ///< range index whose worker drills
  std::size_t after_points = 0; ///< act after this many journaled points
  bool stall = false;          ///< instead of SIGKILL'ing itself, hang
                               ///< forever (exercises worker_timeout)
  bool every_attempt = false;  ///< drill retries too (drives the range to
                               ///< retry exhaustion; tests the cap)
};

/// Configuration of the sharded run.
struct ShardOptions {
  std::size_t workers = 2;     ///< worker processes (= point ranges);
                               ///< must be >= 1
  double worker_timeout_seconds = 0.0; ///< per-attempt wall-clock deadline;
                               ///< an overrunning worker is SIGKILL'd and
                               ///< its range re-queued (0 = no deadline)
  std::size_t max_retries = 3; ///< extra attempts per range before the
                               ///< sweep fails loudly
  double retry_backoff_seconds = 0.05; ///< pause before attempt k+1 of a
                               ///< range, scaled linearly by k
  ShardDrill drill;            ///< test-only crash drill (default: none)
};

/// What the parent observed while supervising the workers.
struct ShardReport {
  std::size_t ranges = 0;          ///< point ranges (== workers clamped to
                                   ///< the point count)
  std::size_t worker_crashes = 0;  ///< abnormal exits (nonzero status or
                                   ///< signal, timeouts included)
  std::size_t timeouts = 0;        ///< workers SIGKILL'd by the deadline
  std::size_t ranges_requeued = 0; ///< re-queue events (a range may
                                   ///< contribute several)
};

/// Run \p config's sweep sharded over ShardOptions::workers processes.
/// Requires a non-empty config.journal: the per-range journals live at
/// `<journal>.range<K>` and the merged journal replaces `<journal>`
/// atomically at the end.  config.resume seeds the ranges from an
/// existing merged journal (interrupted sharded runs resume too).
/// config.point_offset/point_count must be 0 (the shard layer owns the
/// range split).  Throws std::runtime_error when a range exhausts
/// max_retries.  The returned SweepResult's points and baseline fields
/// are bitwise identical to run_injection_sweep's serial result.
/// operator_stats sums the range journals' last stats records (plus, on
/// resume, the loaded journal's last stats record, which the merged
/// journal ends with): at batch=1 it equals the in-process sweep's.
[[nodiscard]] SweepResult run_sharded_sweep(const sparse::CsrMatrix& A,
                                            const la::Vector& b,
                                            const SweepConfig& config,
                                            const ShardOptions& shard,
                                            ShardReport* report = nullptr);

} // namespace sdcgmres::experiment
