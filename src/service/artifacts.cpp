#include "service/artifacts.hpp"

#include <utility>

#include "solver/registry.hpp"

namespace sdcgmres::service {

namespace {

/// Problem-shaping spec keys, in a fixed order so key strings are
/// canonical regardless of the order a job file assigned them in.
constexpr const char* kProblemKeys[] = {"matrix", "n",     "nodes",  "path",
                                        "seed",   "eps_x", "eps_y",  "beta_x",
                                        "beta_y", "rhs"};

void append_keys(std::string& out, const experiment::ScenarioSpec& spec) {
  for (const char* key : kProblemKeys) {
    if (spec.has(key)) {
      out += '|';
      out += key;
      out += '=';
      out += spec.get(key);
    }
  }
}

} // namespace

std::size_t csr_bytes(const sparse::CsrMatrix& A) {
  return A.nnz() * (sizeof(double) + sizeof(std::size_t)) +
         (A.rows() + 1) * sizeof(std::size_t);
}

std::string problem_cache_key(const experiment::ScenarioSpec& spec) {
  std::string key = "problem";
  append_keys(key, spec);
  return key;
}

std::shared_ptr<const experiment::ScenarioProblem> cached_problem(
    ArtifactCache& cache, const experiment::ScenarioSpec& spec) {
  return cache.get<experiment::ScenarioProblem>(
      problem_cache_key(spec),
      [&spec]()
          -> std::pair<std::shared_ptr<const experiment::ScenarioProblem>,
                       std::size_t> {
        auto problem = std::make_shared<const experiment::ScenarioProblem>(
            experiment::build_problem(spec));
        const std::size_t bytes =
            csr_bytes(problem->A) + problem->b.size() * sizeof(double);
        return {std::move(problem), bytes};
      });
}

std::shared_ptr<const double> cached_calibration(
    ArtifactCache& cache, const experiment::ScenarioSpec& spec,
    const experiment::ScenarioProblem& problem) {
  std::string key = "frobenius";
  append_keys(key, spec);
  return cache.get<double>(
      key, [&problem]() -> std::pair<std::shared_ptr<const double>,
                                     std::size_t> {
        return {std::make_shared<const double>(problem.A.frobenius_norm()),
                sizeof(double)};
      });
}

std::shared_ptr<const krylov::Preconditioner> cached_preconditioner(
    ArtifactCache& cache, const experiment::ScenarioSpec& spec,
    const experiment::ScenarioProblem& problem) {
  const std::string name = spec.get("precond", "none");
  if (name == "none") return nullptr;
  std::string key = "precond|" + name;
  // Parameterized preconditioners factor differently per parameter.
  for (const char* pkey : {"neumann_degree", "neumann_omega"}) {
    if (spec.has(pkey)) {
      key += '|';
      key += pkey;
      key += '=';
      key += spec.get(pkey);
    }
  }
  append_keys(key, spec);
  // Footprint heuristic: ILU0 keeps a same-sparsity factored copy of A,
  // Neumann applies A directly plus vector scratch, Jacobi one diagonal.
  const std::size_t bytes = name.rfind("jacobi", 0) == 0
                                ? problem.A.rows() * sizeof(double)
                                : csr_bytes(problem.A);
  return cache.get<krylov::Preconditioner>(
      key,
      [&spec, &problem, &name, bytes]()
          -> std::pair<std::shared_ptr<const krylov::Preconditioner>,
                       std::size_t> {
        std::shared_ptr<const krylov::Preconditioner> built =
            solver::preconditioner_registry().make(name, problem.A, spec);
        return {std::move(built), bytes};
      });
}

std::shared_ptr<const krylov::MatrixBackend> cached_backend(
    ArtifactCache& cache, const experiment::ScenarioSpec& spec,
    const experiment::ScenarioProblem& problem) {
  const std::string backend_key = spec.get("backend", "csr");
  if (backend_key == "csr") {
    // The csr backend holds no assembled state (it streams the cached
    // problem's matrix directly), so caching it would only pin a
    // zero-byte entry; build a fresh one.
    return solver::backend_registry().make(backend_key, problem.A);
  }
  std::string key = "backend|" + backend_key;
  append_keys(key, spec);
  return cache.get<krylov::MatrixBackend>(
      key,
      [&backend_key, &problem]()
          -> std::pair<std::shared_ptr<const krylov::MatrixBackend>,
                       std::size_t> {
        std::shared_ptr<const krylov::MatrixBackend> built =
            solver::backend_registry().make(backend_key, problem.A);
        const std::size_t bytes = built->resident_bytes();
        return {std::move(built), bytes};
      });
}

} // namespace sdcgmres::service
