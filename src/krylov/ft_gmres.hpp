#pragma once
/// \file ft_gmres.hpp
/// \brief Fault-Tolerant GMRES: FGMRES outer + (unreliable) GMRES inner.
///
/// This is the paper's nested solver (Section VI): the outer FGMRES
/// iteration runs reliably and drives convergence; each outer iteration
/// invokes one inner GMRES solve that is allowed to be faulty.  The inner
/// solve is exposed through the FlexiblePreconditioner seam, so the SDC
/// framework's sandbox (sdc/sandbox.hpp) can wrap it with fault campaigns
/// and detectors; the convenience driver here accepts a raw ArnoldiHook for
/// the same purpose.
///
/// There is one FT-GMRES driver: the lockstep loop of
/// krylov/ft_gmres_batch.cpp.  ft_gmres() below is a batch of one through
/// it -- with a single live instance every fused product degenerates to a
/// direct apply(), so a single solve pays no staging copies.

#include <cstddef>
#include <vector>

#include "krylov/fgmres.hpp"
#include "krylov/gmres.hpp"
#include "krylov/hooks.hpp"
#include "krylov/operator.hpp"
#include "krylov/precision.hpp"
#include "la/vector.hpp"

namespace sdcgmres::krylov {

/// What the nested solver does when a detector aborts an inner solve
/// (an attached hook's abort_requested() fired).  This is the krylov-level
/// vocabulary; sdc::DetectorResponse maps onto it via
/// sdc::inner_recovery_for -- the krylov layer stays sdc-free.
enum class InnerRecovery {
  None,          ///< keep the aborted inner solve's pre-fault iterate as
                 ///< the outer direction (the paper's AbortSolve behaviour)
  RetryReliable, ///< re-run the flagged inner solve with injection
                 ///< disabled (hook detached): the paper's selective-
                 ///< reliability answer -- recompute in reliable mode
  RestartOuter,  ///< discard the poisoned direction and restart the outer
                 ///< cycle from the accepted columns' explicit residual
                 ///< (FgmresEngine::restart_cycle)
};

/// Options of the nested solver.
struct FtGmresOptions {
  GmresOptions inner;  ///< inner solve config; the paper uses tol = 0 and
                       ///< max_iters = 25 (a fixed-effort preconditioner)
  FgmresOptions outer; ///< reliable outer iteration config
  bool robust_first_inner = false; ///< the paper's Section VII-E-1
                       ///< suggestion, implemented: run the *first* inner
                       ///< solve (the most fault-vulnerable one) with CGS2
                       ///< re-orthogonalization.  The silent second pass
                       ///< restores both the basis vector and the total
                       ///< projection coefficient after a single
                       ///< multiplicative fault, at ~2x orthogonalization
                       ///< cost for that one solve.
  InnerRecovery recovery = InnerRecovery::None; ///< detector-triggered
                       ///< recovery policy; only acts on inner solves that
                       ///< finish with status AbortedByDetector, so runs
                       ///< where no detector fires are bitwise identical
                       ///< at every setting
  Precision precision = Precision::Double; ///< scalar of the inner-solve
                       ///< data plane (basis, Hessenberg QR, operator
                       ///< applies).  Float runs the inner solves on a
                       ///< narrowed mirror of the matrix -- selective
                       ///< reliability's answer to reduced precision: the
                       ///< flexible outer absorbs it like any other inner
                       ///< perturbation.  The outer iteration is always
                       ///< double.
  IndexWidth index_width = IndexWidth::I64; ///< CSR index width of the
                       ///< inner-solve mirror; I32 halves index traffic
                       ///< (narrowing validates, throws on overflow) and
                       ///< never changes arithmetic, so double/I32 results
                       ///< are bitwise identical to the default.  Any
                       ///< non-default (precision, index_width) pair
                       ///< requires a CSR-backed operator.

  /// Paper-style defaults: 25 fixed inner iterations, outer tol 1e-8.
  FtGmresOptions() {
    inner.max_iters = 25;
    inner.tol = 0.0;
  }
};

/// Bookkeeping for one inner solve.
struct InnerSolveRecord {
  std::size_t outer_index = 0;
  SolveStatus status = SolveStatus::MaxIterations;
  std::size_t iterations = 0;
  std::size_t operator_applies = 0; ///< operator products this inner solve
                                    ///< consumed (cycle residuals + Arnoldi
                                    ///< products); identical whether they
                                    ///< arrived as solo SpMVs or as columns
                                    ///< of a lockstep batch's fused SpMM
  double residual_norm = 0.0; ///< inner least-squares estimate (may be
                              ///< corrupted when faults were injected)
  std::size_t reliable_retries = 0; ///< 1 when this record's inner solve
                              ///< was recomputed in reliable mode after a
                              ///< detector abort (recovery RetryReliable);
                              ///< iterations/operator_applies then sum
                              ///< BOTH attempts (total effort spent at
                              ///< this outer step) while status and
                              ///< residual_norm describe the final one
  bool triggered_outer_restart = false; ///< this inner solve's detector
                              ///< abort triggered an outer-cycle restart
                              ///< (recovery RestartOuter)
  std::size_t global_syncs = 0; ///< global reductions this inner solve
                              ///< consumed (both attempts when a reliable
                              ///< retry ran); see GmresStats::global_syncs
};

/// Result of an FT-GMRES solve.
struct FtGmresResult {
  la::Vector x;
  SolveStatus status = SolveStatus::MaxIterations;
  std::size_t outer_iterations = 0;
  std::size_t total_inner_iterations = 0;
  std::size_t total_inner_applies = 0; ///< operator products consumed by
                                       ///< the inner solves (the dominant
                                       ///< matrix traffic at inner=25)
  double residual_norm = 0.0; ///< explicit ||b - A*x|| at exit
  std::vector<double> residual_history;
  std::vector<InnerSolveRecord> inner_solves;
  std::size_t sanitized_outputs = 0; ///< inner results replaced by q_j
  std::size_t reliable_retries = 0;  ///< inner solves recomputed reliably
                                     ///< (recovery RetryReliable)
  std::size_t outer_restarts = 0;    ///< outer cycles restarted (recovery
                                     ///< RestartOuter)
  std::size_t global_syncs = 0;      ///< global reductions the whole nested
                                     ///< solve consumed: the outer
                                     ///< iteration's own plus every inner
                                     ///< solve's.  The s-step inner mode
                                     ///< (GmresOptions::s_step) shrinks the
                                     ///< inner share by ~s/2x.
};

/// The inner-solve bookkeeping every inner plane shares: the per-solve
/// options (CGS2 swapped in for the first inner solve when
/// robust_first_solve is set, paper Section VII-E-1), the RetryReliable
/// turnover with its carried-over effort, the RestartOuter flag, and the
/// records.  InnerGmresPreconditioner (double plane) and
/// MixedInnerGmresT (narrowed plane, krylov/mixed.hpp) derive from it, so
/// the two planes can never diverge in options plumbing or records.
class InnerSolveLedger {
public:
  InnerSolveLedger(const GmresOptions& opts, bool robust_first_solve,
                   InnerRecovery recovery)
      : opts_(opts), robust_first_solve_(robust_first_solve),
        recovery_(recovery) {}

  /// True when \p engine finished AbortedByDetector and the RetryReliable
  /// policy wants it recomputed: hand the engine to the plane's
  /// make_reliable_retry() instead of finish_engine().
  template <typename Engine>
  [[nodiscard]] bool wants_reliable_retry(const Engine& engine) const {
    return recovery_ == InnerRecovery::RetryReliable && !retrying_ &&
           engine.finished() &&
           engine.stats().status == SolveStatus::AbortedByDetector;
  }

  /// True when the most recent record was flagged for the RestartOuter
  /// policy (the driver's cue to call FgmresEngine::restart_cycle()
  /// instead of direction()/advance()).
  [[nodiscard]] bool last_record_requests_outer_restart() const {
    return !records_.empty() && records_.back().triggered_outer_restart;
  }

  [[nodiscard]] const std::vector<InnerSolveRecord>& records() const {
    return records_;
  }

protected:
  /// Open the books of the inner solve for outer iteration
  /// \p outer_index; returns its options.
  [[nodiscard]] GmresOptions begin_solve(std::size_t outer_index);

  /// Carry the aborted attempt's effort into the eventual record (the
  /// record sums both attempts); returns the options of the reliable
  /// recompute of the same outer iteration.
  [[nodiscard]] GmresOptions begin_retry(const GmresStats& aborted);

  /// Close the books: record the finished solve.  With recovery
  /// RestartOuter, a solve that finished AbortedByDetector is flagged
  /// triggered_outer_restart.
  void record(std::size_t solve_index, const GmresStats& inner);

  /// Outer iteration of the solve opened by the last begin_solve().
  [[nodiscard]] std::size_t current_outer() const noexcept {
    return cur_outer_;
  }

private:
  [[nodiscard]] GmresOptions options_for(std::size_t outer_index) const;

  GmresOptions opts_;
  bool robust_first_solve_;
  InnerRecovery recovery_;
  std::vector<InnerSolveRecord> records_;
  std::size_t cur_outer_ = 0;
  // The aborted attempt's effort, carried into the retry's record.
  std::size_t pending_iters_ = 0;
  std::size_t pending_applies_ = 0;
  std::size_t pending_syncs_ = 0;
  bool retrying_ = false;
};

/// Inner GMRES exposed as a flexible preconditioner: each application
/// approximately solves A z = q from a zero initial guess, running
/// span-to-span out of the outer solver's arenas (q is an outer basis
/// column, z an outer Z-arena column; no owning la::Vector crosses the
/// boundary).  The optional hook observes/corrupts the inner Arnoldi
/// process; the hook's solve_index equals the outer iteration index.
///
/// There is ONE construction path for the inner solve -- make_engine() --
/// shared by apply() (the straight-through drive FT-CG uses) and the
/// FT-GMRES lockstep driver (krylov/ft_gmres_batch.cpp, which interleaves
/// the engines of B instances so each inner Arnoldi iteration issues one
/// fused apply_block).  finish_engine() closes the bookkeeping either way.
class InnerGmresPreconditioner final : public FlexiblePreconditioner,
                                       public InnerSolveLedger {
public:
  /// \param ws optional reusable workspace for the inner solves; one inner
  ///        solve runs per outer iteration, so a matching workspace makes
  ///        every inner solve after the first allocation-free.  nullptr
  ///        falls back to an internally owned workspace (same reuse
  ///        semantics, same results -- workspace contents never leak
  ///        between solves).
  InnerGmresPreconditioner(const LinearOperator& A, const GmresOptions& opts,
                           ArnoldiHook* hook = nullptr,
                           bool robust_first_solve = false,
                           KrylovWorkspace* ws = nullptr,
                           InnerRecovery recovery = InnerRecovery::None)
      : InnerSolveLedger(opts, robust_first_solve, recovery), a_(&A),
        hook_(hook), ws_(ws) {}

  using FlexiblePreconditioner::apply;
  void apply(std::span<const double> q, std::size_t outer_index,
             std::span<double> z) override;

  /// Batch seam: zero-fill \p z and construct the step-driveable engine
  /// of the inner solve for outer iteration \p outer_index (b = \p q, the
  /// outer basis column; x = \p z, the outer Z-arena column).  The caller
  /// drives the engine to completion -- alone or interleaved with other
  /// instances -- and then hands it to finish_engine().
  [[nodiscard]] GmresEngine make_engine(std::span<const double> q,
                                        std::size_t outer_index,
                                        std::span<double> z);

  /// Record the finished engine's inner-solve bookkeeping.
  void finish_engine(const GmresEngine& engine) {
    record(engine.solve_index(), engine.stats());
  }

  /// Build the reliable recomputation of the flagged inner solve: same
  /// operands and options as the engine make_engine() last produced, but
  /// with the hook detached -- injection disabled, the paper's
  /// selective-reliability recompute.
  [[nodiscard]] GmresEngine make_reliable_retry(const GmresEngine& aborted);

private:
  [[nodiscard]] KrylovWorkspace& workspace() noexcept {
    return ws_ != nullptr ? *ws_ : fallback_ws_;
  }

  const LinearOperator* a_;
  ArnoldiHook* hook_;
  KrylovWorkspace* ws_;
  KrylovWorkspace fallback_ws_;
  // Operands of the engine make_engine() last produced, kept so
  // make_reliable_retry can rebuild the same solve hook-free.
  std::span<const double> cur_q_;
  std::span<double> cur_z_;
};

/// Solve A x = b with FT-GMRES from a zero initial guess: a batch of one
/// through the lockstep driver (defined in ft_gmres_batch.cpp).
/// \param inner_hook observes/corrupts inner solves only; the outer
///        iteration is always reliable.
/// \param ws optional reusable nested workspace (outer + inner slots and
///        the mixed-plane cache), used as the batch's single instance
///        slot; reusing one across solves of the same shape removes all
///        heap allocation from the iteration paths.
[[nodiscard]] FtGmresResult ft_gmres(const LinearOperator& A,
                                     const la::Vector& b,
                                     const FtGmresOptions& opts,
                                     ArnoldiHook* inner_hook = nullptr,
                                     FtGmresWorkspace* ws = nullptr);

/// Convenience overload for CSR matrices.
[[nodiscard]] FtGmresResult ft_gmres(const sparse::CsrMatrix& A,
                                     const la::Vector& b,
                                     const FtGmresOptions& opts,
                                     ArnoldiHook* inner_hook = nullptr,
                                     FtGmresWorkspace* ws = nullptr);

} // namespace sdcgmres::krylov
