#pragma once
/// \file orthogonalize.hpp
/// \brief Orthogonalization kernels for the Arnoldi process.
///
/// The paper's analysis (Section V-B) is deliberately invariant of the
/// orthogonalization algorithm: the bound |h(i,j)| <= ||A||_2 holds for
/// Modified Gram-Schmidt, Classical Gram-Schmidt, and Householder alike.
/// We provide MGS (the paper's choice), CGS, and re-orthogonalized CGS2.
///
/// Hook semantics: on_projection_coefficient fires for every first-pass
/// coefficient, after its dot product and before it is applied to v.  For
/// MGS this reproduces the paper's injection site exactly (a corrupted
/// h(i,j) taints all subsequent MGS steps of the same column, the paper's
/// "worst-case scenario").  CGS2's second-pass corrections are applied
/// silently (they refine, not define, the coefficients).

#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "krylov/hooks.hpp"
#include "la/krylov_basis.hpp"
#include "la/vector.hpp"

namespace sdcgmres::krylov {

/// Which Gram-Schmidt variant the Arnoldi process uses.
enum class Orthogonalization {
  MGS,  ///< Modified Gram-Schmidt (the paper's choice)
  CGS,  ///< Classical Gram-Schmidt (one pass)
  CGS2, ///< Classical Gram-Schmidt with full re-orthogonalization
};

/// Human-readable name (for reports).
[[nodiscard]] const char* to_string(Orthogonalization kind) noexcept;

/// Global reductions one orthogonalization against k columns costs on a
/// distributed machine: MGS is k sequential dot products, CGS is one
/// blocked gemv_t pass, CGS2 two.
[[nodiscard]] constexpr std::size_t ortho_sync_count(
    Orthogonalization kind, std::size_t k) noexcept {
  switch (kind) {
    case Orthogonalization::MGS: return k;
    case Orthogonalization::CGS: return 1;
    case Orthogonalization::CGS2: return 2;
  }
  return 0;
}

/// Orthogonalize \p v against the \p k basis vectors \p q[0..k-1], writing
/// the projection coefficients into \p h (length >= k).  On return v is
/// (approximately) orthogonal to span{q_0..q_{k-1}} and h[i] holds the
/// total coefficient of q_i removed from v.
///
/// This is the per-vector REFERENCE path (k separate dot+axpy kernels over
/// scattered la::Vector buffers).  The solvers use the contiguous-basis
/// overload below; this one is kept as the baseline the equivalence tests
/// compare it against.
///
/// \param hook optional Arnoldi hook (may be nullptr); receives
///        on_projection_coefficient for every first-pass coefficient.
/// \param ctx context forwarded to the hook.
void orthogonalize(Orthogonalization kind,
                   std::span<const la::Vector> q, std::size_t k,
                   la::Vector& v, std::span<double> h, ArnoldiHook* hook,
                   const ArnoldiContext& ctx);

/// Fused orthogonalization over a contiguous KrylovBasisT<S>, S = double
/// (the reliable plane) or float (the mixed-precision inner plane).
/// Semantics match the reference overload:
///   - the hook fires once per first-pass coefficient with the same
///     (i, mgs_steps) sequence, each coefficient computed from the same
///     operands, and hook mutations are applied identically;
///   - the hook values are bitwise identical to the reference path at any
///     OpenMP thread count: la::dot, la::dot_axpy and each column of
///     la::gemv_t sum in one order that depends only on the length;
///   - CGS2's second-pass corrections remain silent.
/// The kernels differ: CGS/CGS2 projections run as one gemv_t + one gemv
/// over the basis block, and MGS streams each column through the fused
/// la::dot_axpy kernel.  The CORRECTION rounding can also differ from the
/// reference (blocked column combination), i.e. v agrees to roundoff.
/// For S = float every kernel runs in float; the ArnoldiHook protocol is
/// double-typed, so each first-pass coefficient is widened for the hook
/// and the (possibly mutated) value narrowed back before it is applied --
/// injected faults land in the float data plane exactly where they land
/// in the double one.
/// \p v is a span so callers can orthogonalize in place inside an arena
/// column (s-step mode) or a bound staging block (lockstep batch driver);
/// S is deduced from \p q alone.
template <typename S>
void orthogonalize(Orthogonalization kind, const la::KrylovBasisT<S>& q,
                   std::size_t k, std::type_identity_t<std::span<S>> v,
                   std::type_identity_t<std::span<S>> h, ArnoldiHook* hook,
                   const ArnoldiContext& ctx);

/// Convenience wrapper for owning-vector callers.
template <typename S>
void orthogonalize(Orthogonalization kind, const la::KrylovBasisT<S>& q,
                   std::size_t k, la::VectorT<S>& v,
                   std::type_identity_t<std::span<S>> h, ArnoldiHook* hook,
                   const ArnoldiContext& ctx) {
  orthogonalize<S>(kind, q, k, v.span(), h, hook, ctx);
}

} // namespace sdcgmres::krylov
