#include "krylov/ft_gmres.hpp"

#include <algorithm>

namespace sdcgmres::krylov {

GmresOptions InnerSolveLedger::options_for(std::size_t outer_index) const {
  GmresOptions opts = opts_;
  if (robust_first_solve_ && outer_index == 0) {
    // Paper Section VII-E-1: spend extra effort where faults hurt most.
    // CGS2's silent second pass restores the correct total projection
    // coefficient after a single multiplicative fault in the first pass.
    opts.ortho = Orthogonalization::CGS2;
  }
  return opts;
}

GmresOptions InnerSolveLedger::begin_solve(std::size_t outer_index) {
  cur_outer_ = outer_index;
  pending_ = {};
  return options_for(outer_index);
}

GmresOptions InnerSolveLedger::begin_retry(const GmresStats& aborted) {
  pending_ = aborted;
  pending_.reliable_retries = 1;
  return options_for(cur_outer_);
}

void InnerSolveLedger::record(std::size_t solve_index,
                              const GmresStats& inner) {
  InnerSolveRecord rec;
  static_cast<LevelCounters&>(rec) = pending_;
  rec += inner;
  rec.outer_index = solve_index;
  rec.status = inner.status;
  rec.residual_norm = inner.residual_norm;
  rec.triggered_outer_restart =
      recovery_ == InnerRecovery::RestartOuter &&
      inner.status == SolveStatus::AbortedByDetector;
  records_.push_back(rec);
  inner_total_ += rec;
  pending_ = {};
}

GmresEngine InnerGmresPreconditioner::make_engine(std::span<const double> q,
                                                  std::size_t outer_index,
                                                  std::span<double> z) {
  // Zero initial guess, solved in place in the caller's z storage; the
  // inner solve never sees an owning vector (b is the outer basis column,
  // x the outer Z-arena column).
  cur_q_ = q;
  cur_z_ = z;
  const GmresOptions opts = begin_solve(outer_index);
  std::fill(z.begin(), z.end(), 0.0);
  return GmresEngine(*a_, q, z, opts, hook_, outer_index, workspace(),
                     /*residual_history=*/nullptr);
}

GmresEngine InnerGmresPreconditioner::make_reliable_retry(
    const GmresEngine& aborted) {
  // Rebuild the identical solve with the hook detached: no campaign can
  // re-inject and no detector can re-abort -- the recompute is reliable.
  const GmresOptions opts = begin_retry(aborted.stats());
  std::fill(cur_z_.begin(), cur_z_.end(), 0.0);
  return GmresEngine(*a_, cur_q_, cur_z_, opts, /*hook=*/nullptr,
                     current_outer(), workspace(),
                     /*residual_history=*/nullptr);
}

void InnerGmresPreconditioner::apply(std::span<const double> q,
                                     std::size_t outer_index,
                                     std::span<double> z) {
  // The straight-through drive of the shared engine (the lockstep driver
  // runs the same protocol with the products fused per block, including
  // the reliable-retry turnover below).
  GmresEngine engine = make_engine(q, outer_index, z);
  drive_to_completion(*a_, engine);
  if (wants_reliable_retry(engine)) {
    GmresEngine retry = make_reliable_retry(engine);
    drive_to_completion(*a_, retry);
    finish_engine(retry);
    return;
  }
  finish_engine(engine);
}

} // namespace sdcgmres::krylov
