#pragma once
/// \file hooks.hpp
/// \brief Observation/mutation points inside the Arnoldi process.
///
/// The SDC framework (src/sdc) needs to (a) corrupt individual projection
/// coefficients h(i,j) exactly where the paper does -- between the dot
/// product and the axpy of the Modified Gram-Schmidt loop -- and (b) check
/// the invariant |h(i,j)| <= ||A||_F at the same points.  Rather than
/// baking either concern into the solvers, the Arnoldi kernel exposes this
/// hook interface; fault campaigns and detectors implement it.  The solver
/// layer has no dependency on the SDC layer.
///
/// All indices are 0-based: iteration j builds Hessenberg column j, whose
/// projection coefficients are h(0..j, j) and whose subdiagonal entry is
/// h(j+1, j).

#include <cstddef>
#include <span>
#include <vector>

#include "la/krylov_basis.hpp"
#include "la/vector.hpp"

namespace sdcgmres::krylov {

/// Where in a nested solve an Arnoldi event happens.
struct ArnoldiContext {
  std::size_t solve_index = 0; ///< which (inner) solve since hook attach;
                               ///< equals the outer iteration in FT-GMRES
  std::size_t iteration = 0;   ///< Arnoldi iteration j within this solve
};

/// Read-only snapshot of the Arnoldi state at the end of iteration j,
/// for hooks that verify whole-iteration invariants (e.g. the Chen-style
/// Online-ABFT comparator re-checks the relation
/// A q_j = sum_{i<=j+1} h(i,j) q_i, which needs the basis itself).
struct ArnoldiIterationView {
  la::BasisView basis;              ///< q_0 .. q_{j+1} (j+2 columns of the
                                    ///< contiguous basis; the new column is
                                    ///< already normalized)
  std::span<const double> h_column; ///< h(0..j+1, j), j+2 entries
};

/// Bitmask of the vector-valued hook events: the three whose delivery
/// costs the engine O(n) work or more.  On the float inner plane each one
/// widens float state into a double copy for the double-typed protocol
/// (the candidate vector, a staged power, the basis), so the engine
/// delivers -- and widens for -- only the ones some installed hook
/// declares in ArnoldiHook::events().  The scalar events (solve and
/// iteration begin, projection coefficients, the subdiagonal) and
/// abort_requested() polling are always delivered.
using HookEvents = unsigned;

namespace hook_events {
inline constexpr HookEvents none = 0;
inline constexpr HookEvents matvec_result = 1u << 0;  ///< on_matvec_result
inline constexpr HookEvents power_computed = 1u << 1; ///< on_power_computed
inline constexpr HookEvents iteration_end = 1u << 2;  ///< on_iteration_end
inline constexpr HookEvents all =
    matvec_result | power_computed | iteration_end;
} // namespace hook_events

/// Interface for observing and (for fault injection) mutating the Arnoldi
/// process.  Default implementations do nothing, so implementors override
/// only the events they care about -- and declare the vector-valued ones
/// among them in events(), because the engine skips every vector-valued
/// event no installed hook declares.
class ArnoldiHook {
public:
  virtual ~ArnoldiHook() = default;

  /// The vector-valued events this hook consumes (see HookEvents).  The
  /// engine reads the mask once, when it is constructed.  The default is
  /// every event, so a hook that declares nothing receives them all;
  /// hooks that override none of the three vector-valued events should
  /// return hook_events::none.
  [[nodiscard]] virtual HookEvents events() const {
    return hook_events::all;
  }

  /// A new solve is starting (FT-GMRES: a new inner solve).
  virtual void on_solve_begin(std::size_t solve_index) { (void)solve_index; }

  /// Arnoldi iteration \p ctx.iteration is starting.
  virtual void on_iteration_begin(const ArnoldiContext& ctx) { (void)ctx; }

  /// The candidate basis vector v = A*q_j has been computed, before
  /// orthogonalization.  May mutate \p v (models faults in the matvec).
  /// \p v is a span so the solvers can hand out arena columns directly
  /// (in s-step mode the candidate lives in the staging block, not in an
  /// owning vector).  Delivered only when events() has matvec_result.
  virtual void on_matvec_result(const ArnoldiContext& ctx,
                                std::span<double> v) {
    (void)ctx;
    (void)v;
  }

  /// s-step mode only: power \p power_index (0-based; 0 is A*q_j, 1 is
  /// A^2*q_j, ...) of a matrix-powers block of \p block_size powers has
  /// been staged in \p power.  Fires after on_matvec_result of the same
  /// protocol step.  May mutate \p power -- a fault here corrupts the
  /// staged basis BEFORE the block orthogonalization, so it propagates
  /// into every later column of the block (the `fault_target=powers`
  /// scenario axis).  Never fires on the one-vector-at-a-time path.
  /// Delivered only when events() has power_computed.
  virtual void on_power_computed(const ArnoldiContext& ctx,
                                 std::size_t power_index,
                                 std::size_t block_size,
                                 std::span<double> power) {
    (void)ctx;
    (void)power_index;
    (void)block_size;
    (void)power;
  }

  /// Projection coefficient h(i, j) has been computed by the dot product
  /// and has not yet been used to update v.  May mutate \p h; the mutated
  /// value is what the algorithm stores and uses (this reproduces the
  /// paper's injection site between Lines 6 and 7 of Algorithm 1).
  /// \p i runs 0..j; \p mgs_steps == j+1 lets implementors identify the
  /// first (i == 0) and last (i == mgs_steps-1) MGS step.
  virtual void on_projection_coefficient(const ArnoldiContext& ctx,
                                         std::size_t i, std::size_t mgs_steps,
                                         double& h) {
    (void)ctx;
    (void)i;
    (void)mgs_steps;
    (void)h;
  }

  /// The subdiagonal entry h(j+1, j) = ||v|| has been computed and not yet
  /// used for the breakdown test or normalization.  May mutate \p h.
  virtual void on_subdiagonal(const ArnoldiContext& ctx, double& h) {
    (void)ctx;
    (void)h;
  }

  /// Iteration j completed: the basis has been extended and normalized.
  /// Not called when the iteration ends in breakdown or abort.  Intended
  /// for whole-iteration invariant checks (Online-ABFT style); such
  /// checks cost O(n) or more, unlike the O(1) coefficient bound check.
  /// Delivered only when events() has iteration_end.
  virtual void on_iteration_end(const ArnoldiContext& ctx,
                                const ArnoldiIterationView& view) {
    (void)ctx;
    (void)view;
  }

  /// Polled by the solver after each hook event; returning true makes the
  /// solver stop this solve immediately and return its best current
  /// iterate (detector response "abort the inner solve").
  [[nodiscard]] virtual bool abort_requested() const { return false; }
};

/// Composite hook: forwards every event to each child, in order.  Typical
/// use: chain [fault campaign, detector] so the detector sees the corrupted
/// coefficients, exactly as real hardware faults would be observed.
class HookChain final : public ArnoldiHook {
public:
  HookChain() = default;
  explicit HookChain(std::vector<ArnoldiHook*> hooks)
      : hooks_(std::move(hooks)) {}

  void add(ArnoldiHook* hook) { hooks_.push_back(hook); }

  /// The union of the members' masks (none for an empty chain).
  [[nodiscard]] HookEvents events() const override {
    HookEvents mask = hook_events::none;
    for (const ArnoldiHook* h : hooks_) mask |= h->events();
    return mask;
  }

  void on_solve_begin(std::size_t solve_index) override {
    for (ArnoldiHook* h : hooks_) h->on_solve_begin(solve_index);
  }
  void on_iteration_begin(const ArnoldiContext& ctx) override {
    for (ArnoldiHook* h : hooks_) h->on_iteration_begin(ctx);
  }
  void on_matvec_result(const ArnoldiContext& ctx,
                        std::span<double> v) override {
    for (ArnoldiHook* h : hooks_) h->on_matvec_result(ctx, v);
  }
  void on_power_computed(const ArnoldiContext& ctx, std::size_t power_index,
                         std::size_t block_size,
                         std::span<double> power) override {
    for (ArnoldiHook* h : hooks_) {
      h->on_power_computed(ctx, power_index, block_size, power);
    }
  }
  void on_projection_coefficient(const ArnoldiContext& ctx, std::size_t i,
                                 std::size_t mgs_steps, double& h) override {
    for (ArnoldiHook* hk : hooks_) {
      hk->on_projection_coefficient(ctx, i, mgs_steps, h);
    }
  }
  void on_subdiagonal(const ArnoldiContext& ctx, double& h) override {
    for (ArnoldiHook* hk : hooks_) hk->on_subdiagonal(ctx, h);
  }
  void on_iteration_end(const ArnoldiContext& ctx,
                        const ArnoldiIterationView& view) override {
    for (ArnoldiHook* hk : hooks_) hk->on_iteration_end(ctx, view);
  }
  [[nodiscard]] bool abort_requested() const override {
    for (const ArnoldiHook* h : hooks_) {
      if (h->abort_requested()) return true;
    }
    return false;
  }

private:
  std::vector<ArnoldiHook*> hooks_;
};

} // namespace sdcgmres::krylov
