#include "experiment/shard.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "experiment/journal.hpp"
#include "solver/registry.hpp"

namespace sdcgmres::experiment {

namespace {

using Clock = std::chrono::steady_clock;

std::string range_journal_path(const std::string& journal, std::size_t range) {
  return journal + ".range" + std::to_string(range);
}

/// One contiguous point range and its supervision state.
struct Range {
  std::size_t index = 0;
  std::size_t first = 0;
  std::size_t count = 0;
  std::size_t attempts = 0;       ///< attempts already consumed
  Clock::time_point not_before{}; ///< retry backoff gate
};

struct RunningWorker {
  pid_t pid = -1;
  Range range;
  Clock::time_point deadline{}; ///< zero-initialized = no deadline
  bool has_deadline = false;
};

/// The child's whole life: run the range restricted, journal-resumed
/// sweep and exit.  Exits 0 on success and 1 on any exception (retryable
/// up to the cap -- a transient failure heals, a deterministic one fails
/// loudly after max_retries).  Uses _Exit so the child never runs the
/// parent's atexit handlers or flushes its duplicated stdio buffers.
[[noreturn]] void run_child(const sparse::CsrMatrix& A, const la::Vector& b,
                            const SweepConfig& config, const Range& range,
                            const ShardOptions& shard) {
  try {
    SweepConfig c = config;
    c.journal = range_journal_path(config.journal, range.index);
    c.resume = true; // pick up what the previous attempt already flushed
    c.point_offset = range.first;
    c.point_count = range.count;
    const ShardDrill& drill = shard.drill;
    if (drill.range == range.index &&
        (range.attempts == 0 || drill.every_attempt)) {
      c.on_progress = [&drill](std::size_t completed) {
        if (completed < drill.after_points) return;
        if (drill.stall) {
          // Hang past any worker_timeout; the parent must SIGKILL us.
          for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
        }
        (void)::raise(SIGKILL); // die mid-range, journal already flushed
      };
    }
    (void)run_injection_sweep(A, b, c);
    std::_Exit(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep shard %zu (points %zu..%zu): %s\n",
                 range.index, range.first, range.first + range.count - 1,
                 e.what());
    std::_Exit(1);
  } catch (...) {
    std::_Exit(1);
  }
}

} // namespace

SweepResult run_sharded_sweep(const sparse::CsrMatrix& A, const la::Vector& b,
                              const SweepConfig& config,
                              const ShardOptions& shard, ShardReport* report) {
  validate_sweep_config(config);
  if (shard.workers == 0) {
    throw std::invalid_argument("run_sharded_sweep: workers must be >= 1");
  }
  if (config.journal.empty()) {
    throw std::invalid_argument(
        "run_sharded_sweep: a journal path is required (per-range journals "
        "and the merged result derive from it); set journal=<path>");
  }
  if (config.point_offset != 0 || config.point_count != 0) {
    throw std::invalid_argument(
        "run_sharded_sweep: point_offset/point_count are owned by the "
        "shard layer; restrict the sweep with site_limit/stride instead");
  }

  SweepResult result;

  // --- Execution backend: resolved ONCE in the parent, before any fork.
  // The shared_ptr lands in every child's copied address space, so one
  // assembly (e.g. a SELL structure) serves the baseline and all worker
  // processes without per-child re-sorting.
  SweepConfig cfg = config;
  if (!cfg.backend) {
    cfg.backend = solver::backend_registry().make(cfg.backend_key, A);
  }

  // --- The parent's only solve: the pinned failure-free baseline, which
  // fixes the point count and the journal header.  (1-thread OpenMP
  // region: no helper threads exist when we fork below.)
  const std::unique_ptr<krylov::LinearOperator> baseline_op =
      cfg.backend->make_operator(A);
  result.set_baseline(run_baseline(*baseline_op, b, config.solver));

  const SweepJournalHeader header =
      sweep_header(result, config, "run_sharded_sweep");
  const std::size_t n_points = header.n_points;
  result.points.resize(n_points);

  // --- Resuming an interrupted sharded run: split the merged top-level
  // journal's completed points back out into the per-range journals the
  // workers will resume from.  A fresh run seeds header-only range
  // journals (clobbering stale ones from older runs).
  std::vector<std::pair<std::size_t, SweepPoint>> already_done;
  if (config.resume) {
    SweepJournalContents loaded = SweepJournal::load(config.journal);
    check_journal(header, loaded, config.journal, "run_sharded_sweep");
    // The traffic already paid for the journaled points (the last stats
    // record, which a merged journal ends with); the workers add only
    // what they re-solve.
    if (loaded.has_stats) result.operator_stats = loaded.stats.traffic;
    already_done = std::move(loaded.points);
  }

  const std::size_t n_ranges = std::min(shard.workers, n_points);
  std::vector<Range> queue;
  queue.reserve(n_ranges);
  for (std::size_t r = 0; r < n_ranges; ++r) {
    // Contiguous split, remainder spread over the leading ranges.
    const std::size_t base = n_points / n_ranges;
    const std::size_t extra = n_points % n_ranges;
    const std::size_t count = base + (r < extra ? 1 : 0);
    const std::size_t first = r * base + std::min(r, extra);
    Range range{.index = r, .first = first, .count = count};
    std::vector<std::pair<std::size_t, SweepPoint>> mine;
    for (const auto& entry : already_done) {
      if (entry.first >= first && entry.first < first + count) {
        mine.push_back(entry);
      }
    }
    SweepJournal::write_merged(range_journal_path(config.journal, r), header,
                               mine);
    queue.push_back(range);
  }

  ShardReport local_report;
  local_report.ranges = n_ranges;

  // --- Supervision loop: keep up to `workers` children alive, re-queue
  // abnormal exits with capped retries + backoff, enforce deadlines.
  std::vector<RunningWorker> running;
  running.reserve(shard.workers);

  const auto kill_all = [&running] {
    for (const RunningWorker& w : running) (void)::kill(w.pid, SIGKILL);
    for (const RunningWorker& w : running) {
      int status = 0;
      (void)::waitpid(w.pid, &status, 0);
    }
    running.clear();
  };

  try {
    while (!queue.empty() || !running.empty()) {
      // Spawn: any queued range whose backoff gate has passed, while
      // worker slots are free.
      const Clock::time_point now = Clock::now();
      for (std::size_t q = 0;
           q < queue.size() && running.size() < shard.workers;) {
        if (queue[q].not_before > now) {
          ++q;
          continue;
        }
        const Range range = queue[q];
        queue.erase(queue.begin() +
                    static_cast<std::ptrdiff_t>(q));
        const pid_t pid = ::fork();
        if (pid < 0) {
          throw std::runtime_error(
              std::string("run_sharded_sweep: fork failed: ") +
              std::strerror(errno));
        }
        if (pid == 0) run_child(A, b, cfg, range, shard); // never returns
        RunningWorker worker{.pid = pid, .range = range};
        if (shard.worker_timeout_seconds > 0.0) {
          worker.deadline =
              Clock::now() +
              std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(
                      shard.worker_timeout_seconds));
          worker.has_deadline = true;
        }
        running.push_back(worker);
      }

      // Deadlines: SIGKILL overrunning workers; the reap below observes
      // the signal exit and re-queues like any other crash.
      for (RunningWorker& w : running) {
        if (w.has_deadline && Clock::now() >= w.deadline) {
          (void)::kill(w.pid, SIGKILL);
          w.has_deadline = false; // kill once
          ++local_report.timeouts;
        }
      }

      // Reap.
      int status = 0;
      const pid_t reaped = ::waitpid(-1, &status, WNOHANG);
      if (reaped > 0) {
        const auto it = std::find_if(
            running.begin(), running.end(),
            [reaped](const RunningWorker& w) { return w.pid == reaped; });
        if (it != running.end()) {
          Range range = it->range;
          running.erase(it);
          const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
          if (!ok) {
            ++local_report.worker_crashes;
            ++range.attempts;
            if (range.attempts > shard.max_retries) {
              kill_all();
              throw std::runtime_error(
                  "run_sharded_sweep: range " + std::to_string(range.index) +
                  " (points " + std::to_string(range.first) + ".." +
                  std::to_string(range.first + range.count - 1) +
                  ") failed " + std::to_string(range.attempts) +
                  " times; giving up (see worker stderr)");
            }
            ++local_report.ranges_requeued;
            range.not_before =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        shard.retry_backoff_seconds *
                        static_cast<double>(range.attempts)));
            queue.push_back(range);
          }
        }
        continue; // a reap may free a slot: spawn immediately
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  } catch (...) {
    kill_all();
    throw;
  }

  // --- Deterministic merge: per-range journals -> points by index.  The
  // merge trusts only the journals (never parent-side memory), which is
  // exactly what makes a kill -9 invisible in the final result.
  std::vector<std::pair<std::size_t, SweepPoint>> merged;
  merged.reserve(n_points);
  std::vector<char> seen(n_points, 0);
  for (std::size_t r = 0; r < n_ranges; ++r) {
    const std::string path = range_journal_path(config.journal, r);
    const SweepJournalContents contents = SweepJournal::load(path);
    if (!contents.has_header || contents.header != header) {
      throw std::runtime_error("run_sharded_sweep: range journal '" + path +
                               "' lost its header during the run");
    }
    // Each range journal's last stats record is that range's cumulative
    // traffic (a retried attempt restores the crashed one's record), and
    // the ranges partition the points: their sum is the sweep's traffic.
    if (contents.has_stats) result.operator_stats += contents.stats.traffic;
    for (const auto& [index, point] : contents.points) {
      if (seen[index] == 0) merged.emplace_back(index, point);
      seen[index] = 1;
      result.points[index] = point; // duplicates: last occurrence wins
    }
  }
  for (std::size_t i = 0; i < n_points; ++i) {
    if (seen[i] == 0) {
      throw std::runtime_error(
          "run_sharded_sweep: merged journals are missing point " +
          std::to_string(i) + " although every range completed");
    }
  }
  // Publish the merged journal (sorted by index) and drop the range files.
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b2) { return a.first < b2.first; });
  for (auto& [index, point] : merged) point = result.points[index];
  SweepJournal::write_merged(config.journal, header, merged);
  // Seal it with the cumulative traffic, so a resume of this journal --
  // sharded or in-process -- restores the traffic of its points.
  SweepJournal sealed(config.journal);
  sealed.append_stats({.points_done = n_points,
                       .traffic = result.operator_stats});
  sealed.flush();
  for (std::size_t r = 0; r < n_ranges; ++r) {
    (void)::unlink(range_journal_path(config.journal, r).c_str());
  }

  if (report != nullptr) *report = local_report;
  return result;
}

} // namespace sdcgmres::experiment
