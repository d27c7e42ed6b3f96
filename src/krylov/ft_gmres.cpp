#include "krylov/ft_gmres.hpp"

#include <algorithm>
#include <type_traits>

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

template <typename S>
GmresEngineT<S> InnerGmresT<S>::make_engine(std::span<const double> q,
                                            std::size_t outer_index,
                                            std::span<double> z) {
  // Zero initial guess.  The double plane solves in place in the caller's
  // storage (b is the outer basis column, x the outer Z-arena column); the
  // float plane solves on narrowed staging copies of the two.
  cur_z_ = z;
  const GmresOptions opts = begin_solve(outer_index);
  if constexpr (std::is_same_v<S, double>) {
    cur_b_ = q;
    cur_x_ = z;
  } else {
    q_staged_.resize(q.size());
    z_staged_.resize(z.size());
    for (std::size_t i = 0; i < q.size(); ++i) {
      q_staged_[i] = static_cast<S>(q[i]);
    }
    cur_b_ = q_staged_.span();
    cur_x_ = z_staged_.span();
  }
  std::fill(cur_x_.begin(), cur_x_.end(), S(0));
  return GmresEngineT<S>(*a_, cur_b_, cur_x_, opts, hook_, outer_index,
                         workspace(), /*residual_history=*/nullptr);
}

template <typename S>
void InnerGmresT<S>::finish_engine(const GmresEngineT<S>& engine) {
  if constexpr (!std::is_same_v<S, double>) {
    for (std::size_t i = 0; i < cur_z_.size(); ++i) {
      cur_z_[i] = static_cast<double>(cur_x_[i]);
    }
  }
  record(engine.solve_index(), engine.stats());
}

template <typename S>
GmresEngineT<S> InnerGmresT<S>::make_reliable_retry(
    const GmresEngineT<S>& aborted) {
  // Rebuild the identical solve with the hook detached: no campaign can
  // re-inject and no detector can re-abort -- the recompute is reliable.
  const GmresOptions opts = begin_retry(aborted.stats());
  std::fill(cur_x_.begin(), cur_x_.end(), S(0));
  return GmresEngineT<S>(*a_, cur_b_, cur_x_, opts, /*hook=*/nullptr,
                         current_outer(), workspace(),
                         /*residual_history=*/nullptr);
}

template <typename S>
void InnerGmresT<S>::apply(std::span<const double> q, std::size_t outer_index,
                           std::span<double> z) {
  // The straight-through drive of the shared engine (the lockstep driver
  // runs the same protocol with the products fused per block, including
  // the reliable-retry turnover below).
  GmresEngineT<S> engine = make_engine(q, outer_index, z);
  drive_to_completion(*a_, engine);
  if (wants_reliable_retry(engine)) {
    GmresEngineT<S> retry = make_reliable_retry(engine);
    drive_to_completion(*a_, retry);
    finish_engine(retry);
    return;
  }
  finish_engine(engine);
}

// The two inner data planes.
template class InnerGmresT<double>;
template class InnerGmresT<float>;

} // namespace sdcgmres::krylov
