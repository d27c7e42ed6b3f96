#pragma once
/// \file detector.hpp
/// \brief The paper's invariant-based SDC detector (Section V).
///
/// Every projection coefficient satisfies |h(i,j)| <= ||A||_2 <= ||A||_F
/// (Eq. 3), because it is the dot product of a unit vector with a vector no
/// longer than ||A q_j|| <= ||A||_2.  The same bound holds for the
/// subdiagonal norm h(j+1,j) = ||v||, since orthogonal projection never
/// lengthens a vector.  Checking the bound costs one comparison per
/// coefficient and needs no communication.  By construction the detector
/// catches *exactly* the errors that push a coefficient past the bound --
/// we know precisely what is and is not detectable.

#include <cstddef>

#include "krylov/ft_gmres.hpp"
#include "krylov/hooks.hpp"
#include "sdc/event_log.hpp"

namespace sdcgmres::sdc {

/// What the detector does when the invariant is violated.  Every response
/// except RecordOnly aborts the current inner solve; they differ in what
/// the nested solver does NEXT with the flagged step (the krylov-level
/// recovery policy, see inner_recovery_for below).
enum class DetectorResponse {
  RecordOnly,    ///< log the event and continue (observation mode)
  AbortSolve,    ///< request that the current (inner) solve stop immediately
                 ///< and return its pre-fault iterate ("restart the inner
                 ///< solve" response from the paper's Section VII-B-1)
  RetryReliable, ///< abort, then recompute the flagged inner solve with
                 ///< injection disabled (the paper's selective-reliability
                 ///< recompute): FT-GMRES proceeds as if the solve had run
                 ///< reliably, at the cost of a second inner solve
  RestartOuter,  ///< abort, then discard the poisoned outer direction and
                 ///< restart the outer cycle from the accepted columns'
                 ///< explicit residual (heaviest recovery: throws away the
                 ///< current outer basis, keeps the iterate)
};

/// Map a detector response onto the nested solver's recovery policy
/// (krylov stays sdc-free; the seam points this way only).  RecordOnly and
/// AbortSolve both map to None: the abort behaviour itself is carried by
/// the hook's abort_requested(), not by the recovery policy.
[[nodiscard]] constexpr krylov::InnerRecovery inner_recovery_for(
    DetectorResponse response) noexcept {
  switch (response) {
  case DetectorResponse::RetryReliable:
    return krylov::InnerRecovery::RetryReliable;
  case DetectorResponse::RestartOuter:
    return krylov::InnerRecovery::RestartOuter;
  case DetectorResponse::RecordOnly:
  case DetectorResponse::AbortSolve:
    break;
  }
  return krylov::InnerRecovery::None;
}

/// Arnoldi hook checking |h| <= bound on every coefficient.
class HessenbergBoundDetector final : public krylov::ArnoldiHook {
public:
  /// \param bound the invariant bound; the paper uses ||A||_F (always an
  ///        upper bound) or a sigma_max estimate
  /// \param response action on violation
  explicit HessenbergBoundDetector(
      double bound, DetectorResponse response = DetectorResponse::RecordOnly);

  // --- krylov::ArnoldiHook ---
  [[nodiscard]] krylov::HookEvents events() const override {
    return krylov::hook_events::none;
  }
  void on_solve_begin(std::size_t solve_index) override;
  void on_projection_coefficient(const krylov::ArnoldiContext& ctx,
                                 std::size_t i, std::size_t mgs_steps,
                                 double& h) override;
  void on_subdiagonal(const krylov::ArnoldiContext& ctx, double& h) override;
  [[nodiscard]] bool abort_requested() const override {
    return abort_pending_;
  }

  /// The bound in force.
  [[nodiscard]] double bound() const noexcept { return bound_; }

  /// The configured response to a violation.
  [[nodiscard]] DetectorResponse response() const noexcept {
    return response_;
  }

  /// Number of coefficients checked so far.
  [[nodiscard]] std::size_t checks() const noexcept { return checks_; }

  /// Number of violations flagged so far.
  [[nodiscard]] std::size_t detections() const noexcept { return detections_; }

  /// True when at least one violation was flagged.
  [[nodiscard]] bool triggered() const noexcept { return detections_ > 0; }

  /// Detection event records.
  [[nodiscard]] const EventLog& log() const noexcept { return log_; }

  /// Clear counters and the log (reuse between experiment runs).
  void reset();

private:
  void check(const krylov::ArnoldiContext& ctx, std::size_t coefficient,
             double value);

  double bound_;
  DetectorResponse response_;
  EventLog log_;
  std::size_t checks_ = 0;
  std::size_t detections_ = 0;
  bool abort_pending_ = false;
};

} // namespace sdcgmres::sdc
