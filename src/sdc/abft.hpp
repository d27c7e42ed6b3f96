#pragma once
/// \file abft.hpp
/// \brief Chen-style Online-ABFT comparator (paper Section III-B, its
/// reference [18]).
///
/// The prior-work approach the paper contrasts itself with: periodically
/// verify whole-iteration invariants of the Krylov process -- the Arnoldi
/// relation  A q_j = sum_{i<=j+1} h(i,j) q_i  and the orthonormality of
/// the newest basis vector -- by *recomputing* them.
///
/// Which check catches what (a point the magnitude-bound analysis makes
/// sharp): a fault in an MGS projection coefficient is *self-consistent*
/// with the Arnoldi relation, because the same corrupted value is both
/// stored in H and applied to the vector update -- the relation check
/// cannot see it.  What the fault does break is orthogonality: the
/// un-removed component q_i survives into q_{j+1}.  Likewise a corrupted
/// subdiagonal norm is self-consistent with the relation (q_{j+1} is
/// normalized by the same wrong value) but breaks ||q_{j+1}|| = 1.  The
/// relation check remains useful against corruption of *stored* basis or
/// Hessenberg data after their construction.
/// Each check costs one extra sparse matrix-vector product plus O(j)
/// vector operations (and, on a distributed machine, the corresponding
/// reductions), versus the bound detector's single comparison per
/// coefficient.  In exchange it detects *any* corruption of the iteration
/// large enough to violate the relation, including faults the magnitude
/// bound cannot see (class-2 faults on O(1) coefficients).
///
/// This implementation exists as the quantitative baseline for the
/// paper's argument; see bench_ablation_abft for the cost/coverage
/// comparison.

#include <cstddef>

#include "krylov/hooks.hpp"
#include "krylov/operator.hpp"
#include "sdc/detector.hpp" // DetectorResponse
#include "sdc/event_log.hpp"

namespace sdcgmres::sdc {

/// Configuration of the ABFT monitor.
struct AbftOptions {
  std::size_t check_period = 1; ///< verify every N-th iteration (Chen
                                ///< amortizes cost with sparser checks)
  double relation_tol = 1e-8;   ///< flag when the relative Arnoldi-relation
                                ///< defect ||A q_j - Q h|| / ||h|| exceeds
                                ///< this
  double ortho_tol = 1e-8;      ///< flag when |<q_new, q_i>| exceeds this,
                                ///< or when | ||q_new|| - 1 | does
  DetectorResponse response = DetectorResponse::RecordOnly;
};

/// Whole-iteration invariant checker implementing krylov::ArnoldiHook.
class AbftMonitor final : public krylov::ArnoldiHook {
public:
  /// \param A the (reliable) operator used to recompute A*q_j
  AbftMonitor(const krylov::LinearOperator& A, AbftOptions opts = {});

  // --- krylov::ArnoldiHook ---
  [[nodiscard]] krylov::HookEvents events() const override {
    return krylov::hook_events::iteration_end;
  }
  void on_solve_begin(std::size_t solve_index) override;
  void on_iteration_end(const krylov::ArnoldiContext& ctx,
                        const krylov::ArnoldiIterationView& view) override;
  [[nodiscard]] bool abort_requested() const override {
    return abort_pending_;
  }

  [[nodiscard]] std::size_t checks() const noexcept { return checks_; }
  [[nodiscard]] std::size_t detections() const noexcept { return detections_; }
  [[nodiscard]] bool triggered() const noexcept { return detections_ > 0; }
  [[nodiscard]] const EventLog& log() const noexcept { return log_; }

  /// Largest relative Arnoldi-relation defect observed (diagnostics).
  [[nodiscard]] double worst_relation_defect() const noexcept {
    return worst_defect_;
  }

  /// Extra SpMV applications performed (the dominating check cost).
  [[nodiscard]] std::size_t extra_spmv() const noexcept { return extra_spmv_; }

  void reset();

private:
  const krylov::LinearOperator* a_;
  AbftOptions opts_;
  EventLog log_;
  std::size_t checks_ = 0;
  std::size_t detections_ = 0;
  std::size_t extra_spmv_ = 0;
  double worst_defect_ = 0.0;
  bool abort_pending_ = false;
};

} // namespace sdcgmres::sdc
