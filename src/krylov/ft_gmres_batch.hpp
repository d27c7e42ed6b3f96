#pragma once
/// \file ft_gmres_batch.hpp
/// \brief The FT-GMRES driver: B independent nested solves in lockstep.
///
/// The paper's headline experiment runs thousands of independent FT-GMRES
/// solves of the SAME matrix (one per injection site).  Run one at a
/// time, every operator product pays a full matrix stream; run B solves
/// in lockstep, the B products of each step fuse into ONE
/// apply_block/SpMM that streams the matrix once, cutting the matrix
/// traffic to ~1/B (see CsrMatrix::spmm).  Both nesting levels advance in
/// lockstep:
///
///   * the OUTER iteration interleaves B krylov::FgmresEngine instances
///     (one fused product per outer iteration), and
///   * the INNER (unreliable) GMRES solves interleave B
///     krylov::GmresEngine instances, so each inner Arnoldi iteration --
///     and each inner cycle-start residual -- is one fused product too.
///     At the paper's 25 fixed inner iterations per outer step ~25/26 of
///     all products happen inside the inner solves, so this is where the
///     batching win actually lives.
///
/// This is the only FT-GMRES loop: krylov::ft_gmres() is a batch of one.
/// With one live instance the fused products degenerate to direct
/// apply() calls (no staging copies), and the staging blocks are only
/// reserved for batches of two or more.
///
/// Determinism contract: every instance advances through EXACTLY the
/// floating-point operation sequence of its batch-of-one run -- the
/// fused products' columns are bitwise equal to per-column apply(), and
/// instances share no mutable state.  Inner hook streams (fault
/// campaigns, detectors), Hessenberg/QR factorizations, and records stay
/// strictly per-instance.  An instance that terminates early -- at either
/// level: a detector-aborted or broken-down inner solve, a
/// converged/rank-deficient/spent outer -- simply drops out of its block;
/// the survivors' packed columns are unchanged values, so their iterate
/// streams are unperturbed.  This is what lets the injection sweep assert
/// batch=B results are bitwise identical to batch=1.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "krylov/ft_gmres.hpp"
#include "krylov/workspace.hpp"
#include "la/block.hpp"
#include "la/vector.hpp"

namespace sdcgmres::krylov {

/// The staging blocks of the fused operator applications.  Only batches
/// of two or more reserve them; a batch of one applies directly.
struct LockstepStaging {
  la::BlockWorkspace directions; ///< packed live operand columns (SpMM
                                 ///< operand; outer Z directions and inner
                                 ///< iterates/directions take turns -- the
                                 ///< two lockstep levels never overlap)
  la::BlockWorkspace products;   ///< A * directions (SpMM result)
  /// Float staging blocks of the inner lockstep phase for
  /// precision=float configurations (unused and unallocated on double
  /// paths, where the inner phase shares directions/products above).
  la::BlockWorkspaceT<float> directions_f32;
  la::BlockWorkspaceT<float> products_f32;
};

/// Reusable storage for one batch driver (NOT shareable between
/// threads): one nested per-instance workspace slot plus the staging
/// blocks of the fused operator application.  Like the scalar
/// workspaces, a driver that solved a (shape, batch) once re-solves it
/// with no heap allocation on the iteration path.
struct FtGmresBatchWorkspace {
  std::vector<FtGmresWorkspace> instances; ///< one per lockstep instance
  LockstepStaging staging;
  /// Narrowed-mirror cache shared by every lockstep instance for
  /// non-default precision/index configurations (the mirror is
  /// read-only during applies and its counters are atomic, so one copy
  /// serves the whole batch); null on the default path.
  std::shared_ptr<MixedPlaneBase> plane;
};

/// Solve A x_i = b_i for every right-hand side in \p bs with FT-GMRES
/// from zero initial guesses, advancing all instances in lockstep (one
/// fused operator application per outer iteration).  Results arrive in
/// input order and are bitwise identical to ft_gmres() (a batch of one)
/// run per rhs.
///
/// \param inner_hooks per-instance hooks observing/corrupting the
///        unreliable inner solves (the sweep engine passes one fault
///        campaign + detector chain per injection site); empty = no
///        hooks, otherwise must match \p bs in size (nullptr entries
///        allowed).
/// \param ws optional reusable batch workspace.
[[nodiscard]] std::vector<FtGmresResult> ft_gmres_batch(
    const LinearOperator& A, std::span<const std::span<const double>> bs,
    const FtGmresOptions& opts, std::span<ArnoldiHook* const> inner_hooks = {},
    FtGmresBatchWorkspace* ws = nullptr);

/// Convenience overload for owning right-hand sides.
[[nodiscard]] std::vector<FtGmresResult> ft_gmres_batch(
    const LinearOperator& A, const std::vector<la::Vector>& bs,
    const FtGmresOptions& opts, std::span<ArnoldiHook* const> inner_hooks = {},
    FtGmresBatchWorkspace* ws = nullptr);

} // namespace sdcgmres::krylov
