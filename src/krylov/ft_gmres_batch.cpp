#include "krylov/ft_gmres_batch.hpp"

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "krylov/mixed.hpp"
#include "la/blas1.hpp"

namespace sdcgmres::krylov {

namespace {

/// One lockstep step of the live inner GMRES engines: pack every engine's
/// pending operand -- a cycle-start iterate or an Arnoldi direction, both
/// single columns of A's operand space -- into the staging block, stream
/// the matrix ONCE with apply_block, distribute the product columns, and
/// step each engine (start_cycle or advance).  Engines that reach a
/// terminal state (detector abort, breakdown, convergence, budget) are
/// first offered to \p on_done(engine_index): returning true means the
/// engine was replaced in place (the RetryReliable recompute) and stays
/// live; returning false drops it out of \p live without perturbing the
/// survivors, exactly like the outer dropout protocol.  A one-engine
/// block skips the staging copies and applies directly -- same operand,
/// same values, no detour.
///
/// Typed on the inner plane's scalar S: A is the original operator or its
/// narrowed mirror, and the staging blocks are typed to match.
template <typename S, typename OnDone>
void step_inner_block(const LinearOperatorT<S>& A,
                      std::vector<GmresEngineT<S>>& inners,
                      std::vector<std::size_t>& live,
                      std::vector<std::size_t>& still_live,
                      la::BlockWorkspaceT<S>& directions,
                      la::BlockWorkspaceT<S>& products, OnDone&& on_done) {
  const std::size_t cols = live.size();
  if (cols == 1) {
    if (step_with_apply(A, inners[live[0]]) && !on_done(live[0]))
      live.clear();
    return;
  }

  // Each engine's product target is BOUND to its staging column for this
  // step, so apply_block's output lands exactly where start_cycle/advance
  // read it -- no per-column unpack copy.  Same values at a different
  // address, hence bitwise identical to the copying driver.  The binding
  // is per-step: column indices shift as engines drop out, so every round
  // re-binds before the fused product and unbinds right after its step.
  const la::BlockViewT<S> zblock = directions.view(cols);
  const la::BlockViewT<S> vblock = products.view(cols);
  for (std::size_t s = 0; s < cols; ++s) {
    GmresEngineT<S>& engine = inners[live[s]];
    engine.bind_product_target(vblock.col(s));
    if (engine.awaiting_residual()) {
      la::copy(engine.residual_operand(), zblock.col(s));
    } else {
      engine.begin_iteration();
      la::copy(engine.direction(), zblock.col(s));
    }
  }
  A.apply_block(zblock.as_basis_view(), vblock);

  still_live.clear();
  for (std::size_t s = 0; s < cols; ++s) {
    GmresEngineT<S>& engine = inners[live[s]];
    bool done = false;
    if (engine.awaiting_residual()) {
      done = engine.start_cycle();
    } else {
      done = engine.advance();
    }
    engine.unbind_product_target();
    if (done) done = !on_done(live[s]);
    if (!done) still_live.push_back(live[s]);
  }
  live.swap(still_live);
}

/// The S-typed inner workspace slot of an instance and the S-typed
/// staging blocks of the inner lockstep phase: the double plane reuses
/// the standard inner slot and shares the outer phase's staging blocks
/// (the two levels never overlap in time); the float plane uses the
/// dedicated float arena and blocks.
template <typename S>
KrylovWorkspaceT<S>& inner_workspace(FtGmresWorkspace& w) noexcept {
  if constexpr (std::is_same_v<S, double>) {
    return w.inner;
  } else {
    return w.inner_f32;
  }
}

template <typename S>
std::pair<la::BlockWorkspaceT<S>&, la::BlockWorkspaceT<S>&>
inner_staging(LockstepStaging& st) noexcept {
  if constexpr (std::is_same_v<S, double>) {
    return {st.directions, st.products};
  } else {
    return {st.directions_f32, st.products_f32};
  }
}

/// Assemble an FtGmresResult from the outer FGMRES result and the inner
/// solves' ledger.
FtGmresResult make_ft_gmres_result(FgmresResult&& outer,
                                   const InnerSolveLedger& inner) {
  FtGmresResult result;
  static_cast<NestedCounters&>(result) = inner.nested_counters(outer);
  result.x = std::move(outer.x);
  result.status = outer.status;
  result.residual_norm = outer.residual_norm;
  result.residual_history = std::move(outer.residual_history);
  result.inner_solves = inner.records();
  return result;
}

/// The lockstep driver, typed on the inner plane's scalar S.  The outer
/// (reliable) phase always runs in double against the original operator
/// \p A; the inner solves stream \p inner_op (A itself on the default
/// plane, else its narrowed mirror), and only the inner phase's engines,
/// staging, and products are typed on S.  \p slots holds one nested
/// workspace per instance.
template <typename S>
std::vector<FtGmresResult> ft_gmres_lockstep(
    const LinearOperator& A, const LinearOperatorT<S>& inner_op,
    std::span<const std::span<const double>> bs, const FtGmresOptions& opts,
    std::span<ArnoldiHook* const> inner_hooks,
    std::span<FtGmresWorkspace> slots, LockstepStaging& st) {
  const std::size_t batch = bs.size();
  auto [inner_directions, inner_products] = inner_staging<S>(st);
  std::vector<FtGmresResult> results(batch);

  // A batch of one applies directly and never touches the staging
  // blocks, so it allocates none.  Larger batches reserve them (never
  // shrinking: a reused workspace keeps the warm arenas of earlier,
  // larger batches -- the monotone-reserve contract of the data plane).
  if (batch > 1) {
    st.directions.reserve(A.cols(), batch);
    st.products.reserve(A.rows(), batch);
    inner_directions.reserve(A.cols(), batch);
    inner_products.reserve(A.rows(), batch);
  }

  // Paper protocol (same as ft_gmres): every instance starts from zero.
  const la::Vector x0(A.cols());

  std::vector<InnerGmresT<S>> inner;
  inner.reserve(batch);
  std::vector<FgmresEngine> engines;
  engines.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    ArnoldiHook* hook = inner_hooks.empty() ? nullptr : inner_hooks[i];
    inner.emplace_back(inner_op, opts.inner, hook, opts.robust_first_inner,
                       &inner_workspace<S>(slots[i]), opts.recovery);
    engines.emplace_back(A, bs[i], x0.span(), opts.outer, slots[i].outer);
  }

  // `active` holds the indices of instances still iterating, in input
  // order; a terminated instance drops out without disturbing the rest.
  std::vector<std::size_t> active;
  active.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    if (!engines[i].start()) active.push_back(i);
  }

  std::vector<GmresEngineT<S>> inners;
  inners.reserve(batch);
  std::vector<std::size_t> inner_live;
  inner_live.reserve(batch);
  std::vector<std::size_t> inner_scratch;
  inner_scratch.reserve(batch);
  std::vector<std::size_t> live;
  live.reserve(batch);
  std::vector<std::size_t> producing;
  producing.reserve(batch);
  std::vector<char> alive;
  while (!active.empty()) {
    // --- Unreliable phase, in lockstep: one step-driveable inner engine
    // per live instance, all advanced together so each inner Arnoldi
    // iteration streams the matrix once for the whole block (the
    // dominant traffic: at the paper's 25 fixed inner iterations, ~25/26
    // of all products happen here).  Hook streams, fault campaigns,
    // detectors, and Hessenberg/QR state stay strictly per-instance, so
    // every instance sees the exact event stream of its batch-of-one run.
    inners.clear();
    inner_live.clear();
    for (std::size_t s = 0; s < active.size(); ++s) {
      const FgmresEngine::PrecondRequest req =
          engines[active[s]].begin_iteration();
      inners.push_back(inner[active[s]].make_engine(req.q, req.outer_index,
                                                    req.z));
      inner_live.push_back(s);
    }
    while (!inner_live.empty()) {
      step_inner_block(inner_op, inners, inner_live, inner_scratch,
                       inner_directions, inner_products,
                       [&](std::size_t s) {
                         // Terminal inner engine: the RetryReliable policy
                         // replaces a detector-aborted engine in place with
                         // its hook-free recompute (same operands, same
                         // lockstep slot), which simply keeps iterating in
                         // the block.
                         InnerGmresT<S>& p = inner[active[s]];
                         if (!p.wants_reliable_retry(inners[s])) return false;
                         inners[s] = p.make_reliable_retry(inners[s]);
                         return true;
                       });
    }
    for (std::size_t s = 0; s < active.size(); ++s) {
      inner[active[s]].finish_engine(inners[s]);
    }

    // --- RestartOuter recovery: a flagged instance folds its accepted
    // columns and restarts its outer cycle (rejoining the next round's
    // inner phase) instead of committing the poisoned direction; the
    // rest advance through the fused reliable product below.
    alive.assign(active.size(), 1);
    producing.clear();
    for (std::size_t s = 0; s < active.size(); ++s) {
      const std::size_t i = active[s];
      if (inner[i].last_record_requests_outer_restart()) {
        if (engines[i].restart_cycle()) alive[s] = 0;
      } else {
        producing.push_back(s);
      }
    }

    // --- The fused reliable product: pack every producing instance's
    // sanitized direction into the staging block and stream the matrix
    // ONCE (columns are bitwise equal to per-instance apply(), so
    // packing order cannot affect any instance).  A one-instance block
    // skips the staging copies and applies directly -- the same operand
    // and the same values, just without the detour (a batch of one only
    // ever takes this branch).
    const std::size_t cols = producing.size();
    if (cols == 1) {
      FgmresEngine& only = engines[active[producing[0]]];
      A.apply(only.direction(), only.v_target());
      if (only.advance()) alive[producing[0]] = 0;
    } else if (cols > 1) {
      const la::BlockView zblock = st.directions.view(cols);
      for (std::size_t s = 0; s < cols; ++s) {
        la::copy(engines[active[producing[s]]].direction(), zblock.col(s));
      }
      const la::BlockView vblock = st.products.view(cols);
      A.apply_block(zblock.as_basis_view(), vblock);

      // --- Reliable phase, per instance: orthogonalize / project / check.
      for (std::size_t s = 0; s < cols; ++s) {
        const std::size_t i = active[producing[s]];
        la::copy(std::span<const double>(vblock.col(s)), engines[i].v_target());
        if (engines[i].advance()) alive[producing[s]] = 0;
      }
    }

    // Survivors keep their input order (the dropout protocol).
    live.clear();
    for (std::size_t s = 0; s < active.size(); ++s) {
      if (alive[s] != 0) live.push_back(active[s]);
    }
    active.swap(live);
  }

  for (std::size_t i = 0; i < batch; ++i) {
    results[i] = make_ft_gmres_result(engines[i].take_result(), inner[i]);
  }
  return results;
}

/// The one precision x index dispatch: non-default (precision,
/// index_width) pairs run the inner lockstep phase on the narrowed
/// mirror cached in \p plane_cache (one copy shared by all instances);
/// the default pair never builds a mirror.
std::vector<FtGmresResult> dispatch_lockstep(
    const LinearOperator& A, std::span<const std::span<const double>> bs,
    const FtGmresOptions& opts, std::span<ArnoldiHook* const> inner_hooks,
    std::span<FtGmresWorkspace> slots, LockstepStaging& st,
    std::shared_ptr<MixedPlaneBase>& plane_cache) {
  const bool i32 = opts.index_width == IndexWidth::I32;
  if (opts.precision == Precision::Float) {
    const LinearOperatorT<float>& inner =
        i32 ? ensure_plane<float, std::int32_t>(plane_cache, A)
            : ensure_plane<float, std::int64_t>(plane_cache, A);
    return ft_gmres_lockstep(A, inner, bs, opts, inner_hooks, slots, st);
  }
  const LinearOperator& inner =
      i32 ? ensure_plane<double, std::int32_t>(plane_cache, A) : A;
  return ft_gmres_lockstep(A, inner, bs, opts, inner_hooks, slots, st);
}

} // namespace

std::vector<FtGmresResult> ft_gmres_batch(
    const LinearOperator& A, std::span<const std::span<const double>> bs,
    const FtGmresOptions& opts, std::span<ArnoldiHook* const> inner_hooks,
    FtGmresBatchWorkspace* ws) {
  const std::size_t batch = bs.size();
  if (!inner_hooks.empty() && inner_hooks.size() != batch) {
    throw std::invalid_argument(
        "ft_gmres_batch: inner_hooks must be empty or match bs in size");
  }
  if (batch == 0) return {};

  FtGmresBatchWorkspace local;
  FtGmresBatchWorkspace& w = (ws != nullptr) ? *ws : local;
  // Never shrink: a reused workspace keeps the warm slots of earlier,
  // larger batches.
  if (w.instances.size() < batch) w.instances.resize(batch);
  return dispatch_lockstep(A, bs, opts, inner_hooks,
                           std::span(w.instances).first(batch), w.staging,
                           w.plane);
}

FtGmresResult ft_gmres(const LinearOperator& A, const la::Vector& b,
                       const FtGmresOptions& opts, ArnoldiHook* inner_hook,
                       FtGmresWorkspace* ws) {
  // A batch of one with *ws as its single instance slot (and its plane
  // cache); the staging blocks stay empty because nothing is ever packed.
  FtGmresWorkspace local;
  FtGmresWorkspace& w = (ws != nullptr) ? *ws : local;
  LockstepStaging unused;
  const std::span<const double> bs[] = {b.span()};
  ArnoldiHook* const hooks[] = {inner_hook};
  return std::move(dispatch_lockstep(A, bs, opts, hooks,
                                     std::span(&w, 1), unused, w.plane)
                       .front());
}

FtGmresResult ft_gmres(const sparse::CsrMatrix& A, const la::Vector& b,
                       const FtGmresOptions& opts, ArnoldiHook* inner_hook,
                       FtGmresWorkspace* ws) {
  const CsrOperator op(A);
  return ft_gmres(op, b, opts, inner_hook, ws);
}

std::vector<FtGmresResult> ft_gmres_batch(
    const LinearOperator& A, const std::vector<la::Vector>& bs,
    const FtGmresOptions& opts, std::span<ArnoldiHook* const> inner_hooks,
    FtGmresBatchWorkspace* ws) {
  std::vector<std::span<const double>> spans;
  spans.reserve(bs.size());
  for (const la::Vector& b : bs) spans.push_back(b.span());
  return ft_gmres_batch(A, spans, opts, inner_hooks, ws);
}

} // namespace sdcgmres::krylov
