#pragma once
/// \file registry.hpp
/// \brief String-keyed factory registries for every scenario axis.
///
/// The paper's experiment grid is {solver} x {preconditioner} x {matrix}
/// x {fault model} x {detector}; these registries make each axis
/// addressable by name, so a whole scenario is a spec string instead of a
/// bespoke .cpp file.  Keys accept an inline argument after a colon
/// (`mtx:/path/to.mtx`, `scale:1e150`, `neumann:3`); named parameters
/// come from the accompanying experiment::ScenarioSpec.
///
/// Unknown names throw std::invalid_argument whose message lists the
/// registered keys.  The registries are mutable singletons: applications
/// can add their own operators, preconditioners, generators, fault
/// models, or solvers next to the built-ins.
///
/// Built-in keys:
///   solvers:          gmres fgmres ft_gmres ft_gmres_batch cg fcg ft_cg
///   preconditioners:  none jacobi ilu0 neumann[:degree]
///   matrices:         poisson[:n] poisson1d[:n] poisson3d[:n] aniso[:n]
///                     convdiff[:n] circuit[:nodes] random[:n] spd[:n]
///                     mtx:<path>
///   fault models:     none class1 class2 class3 scale[:factor]
///                     set[:value] add[:offset] bitflip[:bit]
///   detectors:        none bound[:<recovery mode>]
///   recovery modes:   none record abort retry_reliable restart_outer
///   backends:         csr sell[:<C>[:<sigma>]] auto

#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/scenario_spec.hpp"
#include "krylov/backend.hpp"
#include "krylov/precond.hpp"
#include "sdc/detector.hpp"
#include "sdc/fault_model.hpp"
#include "solver/solver.hpp"
#include "sparse/csr.hpp"

namespace sdcgmres::solver {

/// A string-keyed factory table.  `make("name:arg", ...)` splits the key
/// at the first colon and hands the factory the inline argument (empty
/// when absent) plus the caller's fixed arguments.
template <class Signature> class Registry;

template <class R, class... Args>
class Registry<R(Args...)> {
public:
  using Factory = std::function<R(const std::string& arg, Args... args)>;

  /// \param what axis name used in error messages ("solver", "matrix", ...)
  explicit Registry(std::string what) : what_(std::move(what)) {}

  /// Register \p factory under \p name (replaces an existing entry).
  void add(std::string name, Factory factory) {
    map_[std::move(name)] = std::move(factory);
  }

  /// True when the (pre-colon) name is registered.
  [[nodiscard]] bool contains(std::string_view key) const {
    return map_.find(split(key).first) != map_.end();
  }

  /// Validate the (pre-colon) name of \p key without invoking a factory:
  /// throws the same unknown-key std::invalid_argument make() would.
  /// For spec validation paths that do not yet hold the factory's fixed
  /// arguments (e.g. `backend=` names checked before the matrix exists).
  void require(std::string_view key) const {
    const auto [name, arg] = split(key);
    if (map_.find(name) == map_.end()) throw_unknown(name);
  }

  /// Construct the entry named by \p key.  Throws std::invalid_argument
  /// listing the registered keys when the name is unknown.
  [[nodiscard]] R make(std::string_view key, Args... args) const {
    const auto [name, arg] = split(key);
    const auto it = map_.find(name);
    if (it == map_.end()) throw_unknown(name);
    return it->second(arg, args...);
  }

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> keys() const {
    std::vector<std::string> out;
    out.reserve(map_.size());
    for (const auto& [k, f] : map_) out.push_back(k);
    return out;
  }

private:
  [[noreturn]] void throw_unknown(const std::string& name) const {
    std::ostringstream msg;
    msg << "unknown " << what_ << " '" << name << "'; available " << what_
        << "s:";
    for (const auto& [k, f] : map_) msg << ' ' << k;
    throw std::invalid_argument(msg.str());
  }

  [[nodiscard]] static std::pair<std::string, std::string>
  split(std::string_view key) {
    const std::size_t colon = key.find(':');
    if (colon == std::string_view::npos) {
      return {std::string(key), std::string()};
    }
    return {std::string(key.substr(0, colon)),
            std::string(key.substr(colon + 1))};
  }

  std::string what_;
  std::map<std::string, Factory, std::less<>> map_;
};

/// Everything a solver factory needs to assemble an IterativeSolver.
struct SolverContext {
  const krylov::LinearOperator& A;     ///< system operator (non-owning)
  Options options;                     ///< shared façade options
  krylov::FlexiblePreconditioner* flexible = nullptr; ///< optional flexible
                                       ///< preconditioner (fgmres/fcg);
                                       ///< fixed ones go in options.precond
};

/// Matrix sources: spec params `n` (grid/size), `nodes`, `seed`,
/// `beta_x`/`beta_y` (convdiff), `eps_x`/`eps_y` (aniso).
[[nodiscard]] Registry<sparse::CsrMatrix(const experiment::ScenarioSpec&)>&
matrix_registry();

/// Preconditioners built on a CSR matrix; "none" yields nullptr.  Spec
/// params `neumann_degree`, `neumann_omega`.
[[nodiscard]] Registry<std::unique_ptr<krylov::Preconditioner>(
    const sparse::CsrMatrix&, const experiment::ScenarioSpec&)>&
preconditioner_registry();

/// Fault models; every key has a usable bare default (scale -> 1e150,
/// set -> NaN, add -> 1.0, bitflip -> bit 62); "none" yields the identity
/// corruption (scale by 1.0) -- scenario drivers skip injection entirely
/// for it.
[[nodiscard]] Registry<sdc::FaultModel(const experiment::ScenarioSpec&)>&
fault_model_registry();

/// Detectors; "none" yields nullptr.  `bound` reads the threshold from
/// spec key `bound` ("auto" or absent uses \p default_bound, the caller's
/// ||A||_F) and the response from the inline arg or else the `recovery`
/// spec key (a recovery_registry name; default abort).
[[nodiscard]] Registry<std::unique_ptr<sdc::HessenbergBoundDetector>(
    double default_bound, const experiment::ScenarioSpec&)>&
detector_registry();

/// Recovery modes: what a firing detector does to the solve.  `none` and
/// `record` observe only; `abort` discards the flagged inner result;
/// `retry_reliable` re-runs the flagged inner solve with injection
/// disabled; `restart_outer` discards the poisoned outer basis and
/// restarts the outer cycle from the current iterate.
[[nodiscard]] Registry<sdc::DetectorResponse(const experiment::ScenarioSpec&)>&
recovery_registry();

/// Solver adapters over the façade (solver/solver.hpp).
[[nodiscard]] Registry<std::unique_ptr<IterativeSolver>(const SolverContext&)>&
solver_registry();

/// Matrix execution backends (the `backend=` scenario key): `csr` (the
/// default, streams the source matrix), `sell[:<C>[:<sigma>]]`
/// (SELL-C-sigma with chunk height C, default 8, and a sorting window
/// of sigma chunks, default 1), and `auto` (the format autotuner: picks
/// csr or sell from row-length statistics and records its reasoning in
/// MatrixBackend::decision()).  Factories assemble the backend for the
/// given matrix; assembly is shared via shared_ptr so one structure
/// serves a whole sweep and the service cache.
[[nodiscard]] Registry<std::shared_ptr<const krylov::MatrixBackend>(
    const sparse::CsrMatrix&)>&
backend_registry();

/// Fully validate a `backend=` key WITHOUT a matrix: unknown names
/// throw the registry's key-listing error, and sell geometry arguments
/// are parsed (so `sell:0` or `sell:x` fail at spec-validation time,
/// before any assembly or solve work).
void validate_backend_key(std::string_view key);

} // namespace sdcgmres::solver
