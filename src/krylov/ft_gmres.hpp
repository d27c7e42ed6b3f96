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
  IndexWidth index_width = IndexWidth::I64; ///< index width of the
                       ///< inner-solve mirror; I32 halves index traffic
                       ///< (narrowing validates, throws on overflow) and
                       ///< never changes arithmetic, so double/I32 results
                       ///< are bitwise identical to the default.  Any
                       ///< non-default (precision, index_width) pair
                       ///< requires a matrix-backed (csr/sell) operator.

  /// Paper-style defaults: 25 fixed inner iterations, outer tol 1e-8.
  FtGmresOptions() {
    inner.max_iters = 25;
    inner.tol = 0.0;
  }
};

/// Bookkeeping for one inner solve.  When its solve was recomputed in
/// reliable mode (reliable_retries == 1) the counters sum BOTH attempts --
/// the total effort spent at this outer step -- while status and
/// residual_norm describe the final one.
struct InnerSolveRecord : LevelCounters {
  std::size_t outer_index = 0;
  SolveStatus status = SolveStatus::MaxIterations;
  double residual_norm = 0.0; ///< inner least-squares estimate (may be
                              ///< corrupted when faults were injected)
  bool triggered_outer_restart = false; ///< this inner solve's detector
                              ///< abort triggered an outer-cycle restart
                              ///< (recovery RestartOuter)
};

/// Result of an FT-GMRES solve.
struct FtGmresResult : NestedCounters {
  la::Vector x;
  SolveStatus status = SolveStatus::MaxIterations;
  double residual_norm = 0.0; ///< explicit ||b - A*x|| at exit
  std::vector<double> residual_history;
  std::vector<InnerSolveRecord> inner_solves;
};

/// The inner-solve bookkeeping every inner plane shares: the per-solve
/// options (CGS2 swapped in for the first inner solve when
/// robust_first_solve is set, paper Section VII-E-1), the RetryReliable
/// turnover with its carried-over effort, the RestartOuter flag, and the
/// records.  InnerGmresT derives from it on every plane.
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
    return recovery_ == InnerRecovery::RetryReliable &&
           pending_.reliable_retries == 0 &&
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

  /// The nested solve's counters: \p outer folded with every recorded
  /// inner solve.
  [[nodiscard]] NestedCounters nested_counters(
      const LevelCounters& outer) const noexcept {
    return nest(outer, inner_total_);
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
  LevelCounters inner_total_; ///< sum over records_
  std::size_t cur_outer_ = 0;
  // The aborted attempt's counters, carried into the record of its
  // reliable recompute; reliable_retries is 1 while that recompute runs.
  LevelCounters pending_;
};

/// Inner GMRES exposed as a flexible preconditioner: each application
/// approximately solves A z = q from a zero initial guess.  The optional
/// hook observes/corrupts the inner Arnoldi process; the hook's
/// solve_index equals the outer iteration index.
///
/// Typed on the scalar S of the inner data plane, streaming a
/// LinearOperatorT<S>.  With S = double (InnerGmresPreconditioner) the
/// solve runs span-to-span in place, out of the outer solver's arenas
/// (q is an outer basis column, z an outer Z-arena column), whatever the
/// operator's index width.  With S = float the outer residual column q
/// is narrowed into per-instance staging on entry and the inner
/// correction widened into z on exit.
///
/// There is ONE construction path for the inner solve -- make_engine() --
/// shared by apply() (the straight-through drive FT-CG uses) and the
/// FT-GMRES lockstep driver (krylov/ft_gmres_batch.cpp, which interleaves
/// the engines of B instances so each inner Arnoldi iteration issues one
/// fused apply_block).  finish_engine() closes the bookkeeping either way.
template <typename S>
class InnerGmresT final : public FlexiblePreconditioner,
                          public InnerSolveLedger {
public:
  /// \param ws optional reusable workspace for the inner solves; one inner
  ///        solve runs per outer iteration, so a matching workspace makes
  ///        every inner solve after the first allocation-free.  nullptr
  ///        falls back to an internally owned workspace (same reuse
  ///        semantics, same results -- workspace contents never leak
  ///        between solves).
  InnerGmresT(const LinearOperatorT<S>& A, const GmresOptions& opts,
              ArnoldiHook* hook = nullptr, bool robust_first_solve = false,
              KrylovWorkspaceT<S>* ws = nullptr,
              InnerRecovery recovery = InnerRecovery::None)
      : InnerSolveLedger(opts, robust_first_solve, recovery), a_(&A),
        hook_(hook), ws_(ws) {}

  using FlexiblePreconditioner::apply;
  void apply(std::span<const double> q, std::size_t outer_index,
             std::span<double> z) override;

  /// Batch seam: stage \p q as the right-hand side (narrowed when S is
  /// float), zero the iterate, and construct the step-driveable engine of
  /// the inner solve for outer iteration \p outer_index.  The caller
  /// drives the engine to completion -- alone or interleaved with other
  /// instances -- and then hands it to finish_engine().
  [[nodiscard]] GmresEngineT<S> make_engine(std::span<const double> q,
                                            std::size_t outer_index,
                                            std::span<double> z);

  /// Record the finished engine's inner-solve bookkeeping (widening the
  /// correction into the outer column first when S is float).
  void finish_engine(const GmresEngineT<S>& engine);

  /// Build the reliable recomputation of the flagged inner solve: same
  /// operands and options as the engine make_engine() last produced, but
  /// with the hook detached -- injection disabled, the paper's
  /// selective-reliability recompute.  The retry stays at the plane's
  /// precision: reduced precision is a configuration, not a fault.
  [[nodiscard]] GmresEngineT<S> make_reliable_retry(
      const GmresEngineT<S>& aborted);

private:
  [[nodiscard]] KrylovWorkspaceT<S>& workspace() noexcept {
    return ws_ != nullptr ? *ws_ : fallback_ws_;
  }

  const LinearOperatorT<S>* a_;
  ArnoldiHook* hook_;
  KrylovWorkspaceT<S>* ws_;
  KrylovWorkspaceT<S> fallback_ws_;
  // Operands of the engine make_engine() last produced, kept so
  // make_reliable_retry can rebuild the same solve hook-free: the outer
  // column the correction lands in, and the engine's b / x (the outer
  // columns themselves for S = double, the float staging otherwise).
  std::span<double> cur_z_;
  std::span<const S> cur_b_;
  std::span<S> cur_x_;
  // Float staging of b / x (stable storage: live engines hold spans into
  // it); unused for S = double.
  la::VectorT<S> q_staged_;
  la::VectorT<S> z_staged_;
};

/// The double-plane inner solve (FT-GMRES's default, and FT-CG's).
using InnerGmresPreconditioner = InnerGmresT<double>;

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
