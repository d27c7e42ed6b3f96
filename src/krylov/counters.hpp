#pragma once
/// \file counters.hpp
/// \brief The solve counters, declared once.
///
/// Every result type from the inner GMRES engine to the sweep point
/// carries its counters by deriving from one of the aggregates below:
///
///   LevelCounters   GmresStats/GmresResult, InnerSolveRecord,
///                   FgmresResult, FcgResult, CgResult,
///                   solver::SolveReport
///   NestedCounters  FtGmresResult, FtCgResult
///   SolveCounters   experiment::SweepPoint, experiment::SweepTally
///
/// so a counter crosses each layer inside one slice assignment or one +=,
/// never as a hand-copied field.  Adding a counter is one field (plus its
/// line in operator+=) here, one journal key (experiment/journal.cpp) and
/// one test.  Iteration counts stay per level -- a nested solve has an
/// outer and an inner one -- which is why they are not SolveCounters.

#include <cstddef>

namespace sdcgmres::krylov {

/// The counters every level of a solve accumulates and every enclosing
/// level sums: a nested solve's value is its outer level's plus all of
/// its inner solves', and a sweep's is the sum over its points.  Each is
/// a property of the per-instance operation sequence, so it is identical
/// at every threads/batch/workers setting.
struct SolveCounters {
  /// Operator products consumed (one per GMRES restart-cycle residual
  /// and Arnoldi iteration, one per CG product), whether they ran as solo
  /// SpMVs or as fused SpMM columns.  The reliable outer levels (FGMRES, FCG) leave theirs
  /// to OperatorStats, so a nested solve counts its inner solves'.
  std::size_t operator_applies = 0;
  /// Global reductions: every norm and every (blocked) inner-product pass
  /// that would be an all-reduce on a distributed machine.  MGS counts
  /// one per basis column, CGS one per pass; the s-step block commit
  /// counts exactly two (projection + TSQR) per s columns.  This is the
  /// metric GmresOptions::s_step improves, measurable where wall-clock
  /// is flat.
  std::size_t global_syncs = 0;
  /// Flexible-preconditioner outputs the reliable outer phase replaced
  /// (Inf/NaN/zero, or a direction the rank check discarded).
  std::size_t sanitized_outputs = 0;
  /// Inner solves recomputed in reliable mode after a detector abort
  /// (recovery retry_reliable); a retried inner record counts 1 and sums
  /// both attempts' effort.
  std::size_t reliable_retries = 0;
  /// Outer cycles restarted (recovery restart_outer).
  std::size_t outer_restarts = 0;

  SolveCounters& operator+=(const SolveCounters& o) noexcept {
    operator_applies += o.operator_applies;
    global_syncs += o.global_syncs;
    sanitized_outputs += o.sanitized_outputs;
    reliable_retries += o.reliable_retries;
    outer_restarts += o.outer_restarts;
    return *this;
  }
  bool operator==(const SolveCounters&) const = default;
};

/// The counters of one Krylov level: SolveCounters plus its iterations.
struct LevelCounters : SolveCounters {
  /// Arnoldi iterations of a GMRES solve; outer iterations of FGMRES/FCG
  /// (and of a nested solve's SolveReport).
  std::size_t iterations = 0;

  LevelCounters& operator+=(const LevelCounters& o) noexcept {
    SolveCounters::operator+=(o);
    iterations += o.iterations;
    return *this;
  }
  bool operator==(const LevelCounters&) const = default;
};

/// The counters of a nested solve (FT-GMRES, FT-CG): SolveCounters summed
/// over the reliable outer level and every inner solve, with the two
/// levels' iterations kept apart.
struct NestedCounters : SolveCounters {
  std::size_t outer_iterations = 0;
  /// Summed over the inner solves: a sweep's injection sites.
  std::size_t total_inner_iterations = 0;

  bool operator==(const NestedCounters&) const = default;
};

/// Fold a nested solve's outer level and the sum of its inner solves.
[[nodiscard]] inline NestedCounters nest(const LevelCounters& outer,
                                         const LevelCounters& inner) noexcept {
  NestedCounters c;
  static_cast<SolveCounters&>(c) = outer;
  c += inner;
  c.outer_iterations = outer.iterations;
  c.total_inner_iterations = inner.iterations;
  return c;
}

} // namespace sdcgmres::krylov
