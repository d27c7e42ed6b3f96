#pragma once
/// \file workspace.hpp
/// \brief Check-out-able solver workspaces for the Krylov layer.
///
/// A KrylovWorkspace bundles everything one GMRES/FGMRES instance reuses
/// across solves: the la-layer span arena (basis, directions, scratch,
/// Hessenberg column) and the projected-problem QR factorization.  After
/// the first solve of a given shape, every further solve through the same
/// workspace performs no heap allocation on the iteration path.
///
/// Templated on the scalar type like the la arenas underneath: the
/// reliable plane checks out the double instantiation (aliased
/// KrylovWorkspace), the mixed-precision inner engines check out
/// KrylovWorkspaceT<float>.
///
/// FT-GMRES nests two solvers -- the reliable outer FGMRES and the faulty
/// inner GMRES called once per outer iteration -- whose live ranges
/// overlap, so it checks out one slot per nesting level.  An
/// FtGmresWorkspace additionally carries the float inner arena and a
/// cached narrowed-operator plane for mixed-precision configurations;
/// both stay empty (and cost nothing) on the default double/int64 path.
///
/// Threading: workspaces are NOT shareable between threads.  The parallel
/// injection sweep (experiment::run_injection_sweep) checks out one
/// FtGmresWorkspace per worker thread.

#include <memory>
#include <vector>

#include "dense/hessenberg_qr.hpp"
#include "la/workspace.hpp"

namespace sdcgmres::krylov {

/// Type-erased cache slot for a narrowed-operator mirror (defined in
/// krylov/mixed.hpp); forward-declared so the workspace header does not
/// pull in the mixed-precision plane.
class MixedPlaneBase;

/// Reusable state for one (F)GMRES solver instance.
template <typename S>
struct KrylovWorkspaceT {
  la::SolverWorkspaceT<S> arena; ///< V/Z arenas, scratch vectors, h column
  dense::HessenbergQrT<S> qr;    ///< projected least-squares factorization
  std::vector<double> lsq_y;     ///< projected solution y (always double)
  std::vector<S> lsq_y_narrow;   ///< y narrowed to S (float engine only)
};

using KrylovWorkspace = KrylovWorkspaceT<double>;

/// Reusable state for one FT-GMRES instance: outer FGMRES + inner GMRES.
struct FtGmresWorkspace {
  KrylovWorkspace outer;
  KrylovWorkspace inner;
  /// Float inner arena for precision=float configurations (unused and
  /// unallocated on the default double path).
  KrylovWorkspaceT<float> inner_f32;
  /// Cached narrowed mirror (scalar/index-compressed CSR or SELL copy
  /// plus its counting operator) for non-default precision/index
  /// configurations; null on the default path.
  std::shared_ptr<MixedPlaneBase> plane;
};

} // namespace sdcgmres::krylov
