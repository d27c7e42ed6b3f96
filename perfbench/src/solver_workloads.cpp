/// \file solver_workloads.cpp
/// \brief The three solver workloads: the paper's Fig. 3a injection sweep
/// (fig3-sweep), the same sweep on the s-step / mixed-precision / detector
/// path (sweep-ca), and one memory-bound FT-GMRES solve (large-solve).

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "checks.hpp"
#include "common.hpp"
#include "experiment/scenario.hpp"
#include "experiment/sweep.hpp"
#include "krylov/backend.hpp"
#include "la/blas1.hpp"
#include "service/artifacts.hpp"
#include "sdc/detector.hpp"
#include "sdc/injection.hpp"
#include "solver/registry.hpp"
#include "solver/solver.hpp"
#include "trace.hpp"

namespace sdcbench {

namespace ex = sdcgmres::experiment;
namespace krylov = sdcgmres::krylov;
namespace la = sdcgmres::la;
namespace sdc = sdcgmres::sdc;
namespace solver = sdcgmres::solver;

namespace {

/// Matrix, right-hand side, execution backend and ||A||_F: everything a
/// solver workload builds before its first timed operation.
struct Problem {
  std::shared_ptr<const ex::ScenarioProblem> problem;
  std::shared_ptr<const krylov::MatrixBackend> backend;
  double frobenius = 0.0;
};

/// One set-up; with a tracer, each step is a span under \p parent.
Problem set_up(const ex::ScenarioSpec& spec, Tracer* tracer,
               std::size_t parent) {
  const auto now = [&] { return tracer != nullptr ? tracer->now() : 0.0; };
  Problem p;
  const double t0 = now();
  p.problem = std::make_shared<const ex::ScenarioProblem>(
      ex::build_problem(spec));
  const double t1 = now();
  p.backend = solver::backend_registry().make(spec.get("backend", "csr"),
                                              p.problem->A);
  const double t2 = now();
  p.frobenius = p.problem->A.frobenius_norm();
  if (tracer != nullptr) {
    tracer->record("gen.build_problem", t0, t1, parent);
    tracer->record("krylov.backend", t1, t2, parent);
    tracer->record("sparse.frobenius", t2, now(), parent);
  }
  return p;
}

/// Untraced: set up \p repeats times, report the median as setup_s and
/// keep the last problem.  Traced: set up once under spans.
Problem timed_setup(const ex::ScenarioSpec& spec, std::size_t repeats,
                    Tracer* tracer, double* setup_s) {
  if (tracer != nullptr) {
    const std::size_t root = tracer->open("bench.setup", 0);
    Problem p = set_up(spec, tracer, root);
    tracer->close(root);
    *setup_s = tracer->total("bench.setup");
    return p;
  }
  std::vector<double> times;
  Problem p;
  for (std::size_t i = 0; i < repeats; ++i) {
    p = Problem{}; // release the previous copy before building the next
    const auto t0 = Clock::now();
    p = set_up(spec, nullptr, 0);
    times.push_back(seconds_between(t0, Clock::now()));
  }
  *setup_s = median(times);
  return p;
}

/// Kernel OpenMP threads pinned to one on the calling thread for a scope
/// (how the sweep runs each site), restored afterwards.
class KernelThreadPin {
public:
  KernelThreadPin() {
#ifdef _OPENMP
    saved_ = omp_get_max_threads();
    omp_set_num_threads(1);
#endif
  }
  ~KernelThreadPin() {
#ifdef _OPENMP
    omp_set_num_threads(saved_);
#endif
  }
  KernelThreadPin(const KernelThreadPin&) = delete;
  KernelThreadPin& operator=(const KernelThreadPin&) = delete;

private:
  int saved_ = 1;
};

/// Untraced runs repeat their operation while another one, at the median
/// duration so far, still ends within the time budget.
bool time_for_another(Clock::time_point start, const std::vector<double>& ops,
                      double budget) {
  return seconds_between(start, Clock::now()) + median(ops) <= budget;
}

std::string sweep_spec_text(bool ca, bool tiny) {
  std::ostringstream s;
  s << "solver=ft_gmres matrix=poisson n=" << (tiny ? 12 : 100)
    << " inner=" << (tiny ? 8 : 25)
    << " sweep=1 fault=class1 position=first threads=" << bench_threads()
    << " batch=4";
  if (ca) s << " s=4 precision=float index=32 detector=bound";
  return s.str();
}

/// Outer basis V and Z plus one inner basis, in bytes, per solve instance
/// (an estimate from the shapes; the library sizes its arenas itself).
double basis_bytes(std::size_t n, std::size_t inner, std::size_t outer,
                   std::size_t inner_scalar_bytes) {
  return static_cast<double>(n) *
         (static_cast<double>((inner + 1) * inner_scalar_bytes) +
          2.0 * static_cast<double>(outer + 1) * sizeof(double));
}

/// Traffic of the operators a TimingBackend made, from creation slot
/// \p first on (a sweep makes its baseline operator in slot 0).
krylov::OperatorStats ledger_traffic(const TimingBackend& backend,
                                     std::size_t first) {
  krylov::OperatorStats total;
  const OperatorLedger& ledger = backend.ledger();
  for (std::size_t i = first; i < ledger.by_creation.size(); ++i) {
    total += ledger.by_creation[i];
  }
  return total;
}

/// Deterministic counts of one sweep.  When a TimingBackend streamed it,
/// the traffic comes from the wrapped operators, which keep the bytes
/// (the baseline operator excluded, as in SweepResult::operator_stats).
Counts sweep_counts(const ex::SweepResult& r, const TimingBackend* traced) {
  const krylov::OperatorStats traffic =
      traced != nullptr ? ledger_traffic(*traced, 1) : r.operator_stats;
  Counts c;
  c.global_syncs = r.total_global_syncs();
  c.matrix_streams = traffic.streams();
  c.operand_columns = traffic.columns();
  c.bytes_streamed = traffic.bytes();
  c.inner = r.inner_operand_columns();
  for (const ex::SweepPoint& p : r.points) c.outer += p.outer_iterations;
  return c;
}

/// The per-site injection plan the sweep uses (sweep.cpp's sweep_plan).
sdc::InjectionPlan site_plan(const ex::SweepConfig& cfg, std::size_t site) {
  sdc::InjectionPlan plan;
  plan.target = cfg.target;
  plan.position = cfg.position;
  plan.aggregate_iteration = site;
  plan.element_index = cfg.element_index;
  plan.model = cfg.model;
  return plan;
}

struct SiteTrace {
  solver::SolveReport report;
  double seconds = 0.0;
  double sdc_seconds = 0.0;
  std::size_t detector_checks = 0;
  double mixed_bytes = 0.0;
  std::size_t span = 0;
};

/// Re-run one sweep site as a traced façade solve: the fault campaign and
/// detector chain exactly as the sweep builds them, wrapped by a
/// TimingHook, kernel threads pinned like inside the sweep.
SiteTrace trace_site(const Problem& p, const ex::SweepConfig& cfg,
                     std::size_t site, bool mixed, Tracer& tracer) {
  sdc::FaultCampaign campaign(site_plan(cfg, site));
  std::unique_ptr<sdc::HessenbergBoundDetector> detector;
  krylov::HookChain chain;
  chain.add(&campaign);
  krylov::FtGmresOptions opts = cfg.solver;
  if (cfg.with_detector) {
    detector = std::make_unique<sdc::HessenbergBoundDetector>(
        cfg.detector_bound, cfg.detector_response);
    chain.add(detector.get());
    const krylov::InnerRecovery rec =
        sdc::inner_recovery_for(cfg.detector_response);
    if (rec != krylov::InnerRecovery::None) opts.recovery = rec;
  }
  // The mixed plane narrows only concrete CSR/SELL operators, so its
  // solves cannot stream through the timing decorator.
  const std::unique_ptr<krylov::LinearOperator> op =
      mixed ? p.backend->make_operator(p.problem->A)
            : TimingBackend(p.backend, &tracer).make_operator(p.problem->A);

  SiteTrace out;
  solver::FtGmresSolver ft(*op, opts);
  la::Vector x(p.problem->b.size());
  out.span = tracer.open("experiment.site", 0);
  tracer.set_context(out.span);
  TimingHook hook(&tracer, &chain, out.span);
  ft.set_hook(&hook);
  {
    KernelThreadPin pin;
    const auto t0 = Clock::now();
    out.report = ft.solve(p.problem->b.span(), x.span());
    out.seconds = seconds_between(t0, Clock::now());
  }
  hook.finish();
  tracer.close(out.span);
  tracer.set_context(0);
  ft.set_hook(nullptr);
  out.sdc_seconds = hook.sdc_seconds();
  out.detector_checks = detector ? detector->checks() : 0;
  out.mixed_bytes = static_cast<double>(ft.mixed_stats().bytes());
  return out;
}

/// Per-layer figures of one traced façade solve (representative sweep
/// site or the large solve) from its TimingHook spans.
void add_arnoldi_layers(RunResult& out, const Tracer& tracer,
                        const solver::SolveReport& report, double solve_s) {
  const double matvec = tracer.total("krylov.matvec");
  const double ortho = tracer.total("krylov.ortho");
  const double commit = tracer.total("krylov.block_commit");
  const double inner = tracer.total("krylov.inner_solve");
  out.metric("krylov.traced_solve_s", solve_s);
  out.metric("krylov.matvec_s", matvec);
  out.metric("krylov.ortho_s", ortho);
  out.metric("krylov.block_commit_s", commit);
  out.metric("krylov.inner_s", inner);
  out.metric("krylov.inner_other_s", inner - matvec - ortho - commit);
  out.metric("krylov.outer_s", solve_s - inner);
  out.metric("krylov.inner_iterations",
             static_cast<double>(report.total_inner_iterations));
  out.metric("krylov.outer_iterations",
             static_cast<double>(report.iterations));
  out.metric("krylov.global_syncs", static_cast<double>(report.global_syncs));
  out.metric("krylov.syncs_per_inner_iteration",
             report.total_inner_iterations > 0
                 ? static_cast<double>(report.global_syncs) /
                       static_cast<double>(report.total_inner_iterations)
                 : 0.0);
}

void add_traffic_layers(RunResult& out, const Counts& c, double apply_s,
                        std::size_t apply_calls, double timed_bytes) {
  out.metric("krylov.apply_s", apply_s);
  out.metric("krylov.apply_calls", static_cast<double>(apply_calls));
  out.metric("krylov.matrix_streams", static_cast<double>(c.matrix_streams));
  out.metric("krylov.operand_columns", static_cast<double>(c.operand_columns));
  out.metric("krylov.bytes_streamed", static_cast<double>(c.bytes_streamed));
  out.metric("krylov.apply_gbs", apply_s > 0.0 ? timed_bytes / apply_s / 1e9
                                               : 0.0);
}

} // namespace

RunResult run_sweep_workload(const Options& opts, bool ca) {
  RunResult out;
  const ex::ScenarioSpec spec =
      ex::ScenarioSpec::parse(sweep_spec_text(ca, opts.tiny));
  std::unique_ptr<Tracer> tracer;
  if (opts.trace) tracer = std::make_unique<Tracer>();

  double setup_s = 0.0;
  const Problem p = timed_setup(spec, 21, tracer.get(), &setup_s);
  ex::SweepConfig cfg = ex::sweep_config_from_spec(spec, p.frobenius);
  cfg.backend = p.backend;
  const double tol_abs = cfg.solver.outer.tol * la::nrm2(p.problem->b);

  // The documented float envelope needs the all-double baseline outer
  // count (FLOAT_OUTER_SLACK in tests/krylov_mixed_precision_test.cpp).
  std::optional<std::size_t> double_baseline;
  if (ca) {
    krylov::FtGmresOptions dbl = cfg.solver;
    dbl.precision = krylov::Precision::Double;
    dbl.index_width = krylov::IndexWidth::I64;
    double_baseline =
        ex::run_baseline(p.problem->A, p.problem->b, dbl).outer_iterations;
  }

  std::vector<double> sweep_seconds;
  std::vector<double> site_rates;
  std::vector<Counts> counts;
  std::optional<ex::SweepResult> first;
  std::size_t traced_root = 0;
  std::shared_ptr<TimingBackend> timing;
  ex::SweepResult traced;
  double traced_seconds = 0.0;
  bool bitwise_repeat = true;

  const auto start = Clock::now();
  // Untraced: full sweeps while the time budget lasts (at least two, for
  // the exact-count repeat check).  Traced: one untraced sweep as the
  // overhead reference, then one traced sweep.
  for (std::size_t i = 0;; ++i) {
    const bool traced_op = opts.trace && i == 1;
    if (opts.trace && i == 2) break;
    if (!opts.trace && i >= 2 && !time_for_another(start, sweep_seconds,
                                                   opts.seconds)) {
      break;
    }
    ex::SweepConfig run_cfg = cfg;
    if (traced_op && !ca) {
      timing = std::make_shared<TimingBackend>(p.backend, tracer.get());
      run_cfg.backend = timing;
    }
    if (traced_op) {
      traced_root = tracer->open("experiment.sweep", 0);
      tracer->set_context(traced_root);
    }
    ex::SweepResult r;
    const auto t0 = Clock::now();
    try {
      r = ex::run_injection_sweep(p.problem->A, p.problem->b, run_cfg);
    } catch (const std::exception& e) {
      ++out.attempted;
      ++out.failed;
      out.fail(std::string("sweep threw: ") + e.what());
      break;
    }
    const double secs = seconds_between(t0, Clock::now());
    if (traced_op) {
      tracer->close(traced_root);
      tracer->set_context(0);
    }
    out.attempted += r.points.size();
    out.failed += check_sweep(r, tol_abs, double_baseline, out);
    counts.push_back(
        sweep_counts(r, traced_op && !ca ? timing.get() : nullptr));
    if (first) {
      bitwise_repeat = bitwise_repeat && first->points == r.points;
    } else {
      first = r;
    }
    if (traced_op) {
      traced = std::move(r);
      traced_seconds = secs;
    } else {
      sweep_seconds.push_back(secs);
      out.op_seconds.push_back(secs);
      site_rates.push_back(static_cast<double>(first->points.size()) / secs);
    }
  }
  check_repeat(counts, "sweep", out);
  if (!first) return out;

  const std::size_t n = p.problem->A.rows();
  const std::size_t inner = cfg.solver.inner.max_iters;
  const double inst = static_cast<double>(bench_threads() * cfg.batch);
  out.working_set.emplace_back(
      "A_bytes",
      static_cast<double>(sdcgmres::service::csr_bytes(p.problem->A)));
  out.working_set.emplace_back(
      "basis_bytes_all_instances",
      inst * basis_bytes(n, inner, 2 * first->baseline_outer,
                         ca ? sizeof(float) : sizeof(double)));

  if (!opts.trace) {
    out.metric("setup_s", setup_s);
    out.metric("throughput_per_s", median(site_rates));
    out.metric("latency_p50_s", median(sweep_seconds));
    out.metric("peak_rss_mb", peak_rss_mb());
    return out;
  }

  // --- traced run: per-layer metrics ---
  const auto b0 = Clock::now();
  (void)ex::run_baseline(p.problem->A, p.problem->b, cfg.solver);
  const double baseline_s = seconds_between(b0, Clock::now());

  SplitMix64 rng(opts.seed);
  const std::size_t site = rng.below(traced.points.size());
  const SiteTrace st = trace_site(p, cfg, site, ca, *tracer);
  const ex::SweepPoint& point = traced.points[site];
  if (st.report.iterations != point.outer_iterations ||
      std::bit_cast<std::uint64_t>(st.report.residual_norm) !=
          std::bit_cast<std::uint64_t>(point.residual_norm)) {
    out.fail("traced representative site " + std::to_string(site) +
             " differs from its sweep point");
  }

  out.metric("gen.build_problem_s", tracer->total("gen.build_problem"));
  out.metric("krylov.backend_s", tracer->total("krylov.backend"));
  out.metric("sparse.frobenius_s", tracer->total("sparse.frobenius"));
  // The apply spans cover the traced sweep including its baseline solve;
  // streams/columns/bytes exclude the baseline, like operator_stats.
  const Counts& c = counts.back();
  add_traffic_layers(
      out, c, tracer->total("krylov.apply", traced_root),
      tracer->count("krylov.apply", traced_root),
      timing ? static_cast<double>(ledger_traffic(*timing, 0).bytes()) : 0.0);
  add_arnoldi_layers(out, *tracer, st.report, st.seconds);
  out.metric("krylov.mixed_bytes_streamed", st.mixed_bytes);
  out.metric("sdc.hook_s", st.sdc_seconds);
  out.metric("sdc.detector_checks", static_cast<double>(st.detector_checks));
  std::size_t injected = 0;
  for (const ex::SweepPoint& q : traced.points) injected += q.injected ? 1 : 0;
  const std::size_t detected = traced.detected_runs();
  out.metric("sdc.injected_runs", static_cast<double>(injected));
  out.metric("sdc.detected_runs", static_cast<double>(detected));
  out.metric("sdc.detected_per_injected",
             injected > 0 ? static_cast<double>(detected) /
                                static_cast<double>(injected)
                          : 0.0);
  out.metric("experiment.baseline_s", baseline_s);
  out.metric("experiment.sites", static_cast<double>(traced.points.size()));
  out.metric("experiment.outer_iterations", static_cast<double>(c.outer));
  out.metric("la.reduction_bitwise_repeat", bitwise_repeat ? 1.0 : 0.0);
  out.metric("bench.tracing_overhead_frac",
             traced_seconds / sweep_seconds.front() - 1.0);
  out.metric("bench.representative_site", static_cast<double>(site));
  tracer->write(opts.workdir + "/trace.json");
  return out;
}

RunResult run_large_solve(const Options& opts) {
  RunResult out;
  std::ostringstream text;
  text << "solver=ft_gmres matrix=poisson3d n=" << (opts.tiny ? 16 : 100)
       << " inner=25 tol=1e-5 max_iters=20 rhs=random seed=" << opts.seed;
  const ex::ScenarioSpec spec = ex::ScenarioSpec::parse(text.str());
  std::unique_ptr<Tracer> tracer;
  if (opts.trace) tracer = std::make_unique<Tracer>();

  double setup_s = 0.0;
  const Problem p = timed_setup(spec, 3, tracer.get(), &setup_s);
  const solver::Options sopts = ex::solver_options_from_spec(spec);
  const sdcgmres::sparse::CsrMatrix& A = p.problem->A;
  const la::Vector& b = p.problem->b;
  const std::unique_ptr<krylov::LinearOperator> base_op =
      p.backend->make_operator(A);

  std::vector<double> solve_seconds;
  std::vector<Counts> counts;
  std::optional<la::Vector> first_x;
  bool bitwise_repeat = true;
  solver::SolveReport traced_report;
  double traced_seconds = 0.0;
  Counts traced_counts;
  std::size_t traced_root = 0;

  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced_op = opts.trace && i == 1;
    if (opts.trace && i == 2) break;
    if (!opts.trace && i >= 2 && !time_for_another(start, solve_seconds,
                                                   opts.seconds)) {
      break;
    }
    ++out.attempted;
    // A fresh solver per solve: every solve pays its workspace allocation,
    // as a single solve does.
    std::unique_ptr<TimingOperator> timed;
    const krylov::LinearOperator* op = base_op.get();
    if (traced_op) {
      traced_root = tracer->open("krylov.solve", 0);
      tracer->set_context(traced_root);
      timed = std::make_unique<TimingOperator>(
          p.backend->make_operator(A), tracer.get(),
          std::make_shared<OperatorLedger>(), 0);
      op = timed.get();
    }
    const krylov::LinearOperator& counted =
        timed ? timed->inner() : *base_op;
    counted.reset_stats();
    solver::FtGmresSolver ft(*op, sopts);
    std::optional<TimingHook> hook;
    if (traced_op) {
      hook.emplace(tracer.get(), nullptr, traced_root);
      ft.set_hook(&*hook);
    }
    la::Vector x(b.size());
    solver::SolveReport report;
    const auto t0 = Clock::now();
    try {
      report = ft.solve(b.span(), x.span());
    } catch (const std::exception& e) {
      ++out.failed;
      out.fail(std::string("solve threw: ") + e.what());
      break;
    }
    const double secs = seconds_between(t0, Clock::now());
    if (traced_op) {
      hook->finish();
      tracer->close(traced_root);
      tracer->set_context(0);
    }
    if (!check_solution(A, b, x, report, sopts.tol, out)) ++out.failed;
    const krylov::OperatorStats traffic = counted.stats();
    Counts c;
    c.global_syncs = report.global_syncs;
    c.matrix_streams = traffic.streams();
    c.operand_columns = traffic.columns();
    c.bytes_streamed = traffic.bytes();
    c.inner = report.total_inner_iterations;
    c.outer = report.iterations;
    counts.push_back(c);
    if (first_x) {
      bitwise_repeat = bitwise_repeat &&
                       std::memcmp(x.data(), first_x->data(),
                                   x.size() * sizeof(double)) == 0;
    } else {
      first_x = x;
    }
    if (traced_op) {
      traced_report = report;
      traced_seconds = secs;
      traced_counts = c;
    } else {
      solve_seconds.push_back(secs);
      out.op_seconds.push_back(secs);
    }
  }
  check_repeat(counts, "solve", out);

  const std::size_t n = A.rows();
  const std::size_t outer = counts.empty() ? 0 : counts.front().outer;
  out.working_set.emplace_back(
      "A_bytes", static_cast<double>(sdcgmres::service::csr_bytes(A)));
  out.working_set.emplace_back(
      "basis_bytes", basis_bytes(n, sopts.inner_iters, outer, sizeof(double)));
  out.working_set.emplace_back("vector_bytes",
                               static_cast<double>(n * sizeof(double)));

  if (!opts.trace) {
    double total = 0.0;
    for (const double s : solve_seconds) total += s;
    out.metric("setup_s", setup_s);
    out.metric("throughput_per_s",
               total > 0.0 ? static_cast<double>(solve_seconds.size()) / total
                           : 0.0);
    out.metric("latency_p50_s", median(solve_seconds));
    out.metric("peak_rss_mb", peak_rss_mb());
    return out;
  }

  out.metric("gen.build_problem_s", tracer->total("gen.build_problem"));
  out.metric("krylov.backend_s", tracer->total("krylov.backend"));
  out.metric("sparse.frobenius_s", tracer->total("sparse.frobenius"));
  add_traffic_layers(out, traced_counts, tracer->total("krylov.apply"),
                     tracer->count("krylov.apply"),
                     static_cast<double>(traced_counts.bytes_streamed));
  add_arnoldi_layers(out, *tracer, traced_report, traced_seconds);
  out.metric("la.reduction_bitwise_repeat", bitwise_repeat ? 1.0 : 0.0);
  out.metric("bench.tracing_overhead_frac",
             solve_seconds.empty() ? 0.0
                                   : traced_seconds / solve_seconds.front() -
                                         1.0);
  tracer->write(opts.workdir + "/trace.json");
  return out;
}

int smoke_solver_checks(const Options& opts) {
  int failures = 0;
  const auto expect = [&](bool rejected, bool want, const char* what) {
    std::cout << "smoke: " << what << (rejected == want ? " ok" : " FAILED")
              << "\n";
    failures += rejected == want ? 0 : 1;
  };
  RunResult log;

  // Sweep: the real output passes; a point whose residual misses the
  // tolerance, and one outside the outer-iteration envelope, are rejected.
  const ex::ScenarioSpec sweep_spec =
      ex::ScenarioSpec::parse(sweep_spec_text(false, opts.tiny));
  const Problem sp = set_up(sweep_spec, nullptr, 0);
  ex::SweepConfig cfg = ex::sweep_config_from_spec(sweep_spec, sp.frobenius);
  const ex::SweepResult r =
      ex::run_injection_sweep(sp.problem->A, sp.problem->b, cfg);
  const double tol_abs = cfg.solver.outer.tol * la::nrm2(sp.problem->b);
  expect(check_sweep(r, tol_abs, std::nullopt, log) > 0, false,
         "sweep output accepted");
  ex::SweepResult bad = r;
  bad.points.back().residual_norm = 10.0 * tol_abs;
  expect(check_sweep(bad, tol_abs, std::nullopt, log) > 0, true,
         "sweep point with residual > tol*||b|| rejected");
  bad = r;
  bad.points.front().outer_iterations = 3 * r.baseline_outer;
  expect(check_sweep(bad, tol_abs, std::nullopt, log) > 0, true,
         "sweep point outside the outer-iteration envelope rejected");

  // Solve: the real x passes; a perturbed x is rejected.
  const ex::ScenarioSpec solve_spec = ex::ScenarioSpec::parse(
      "solver=ft_gmres matrix=poisson3d n=12 inner=25 tol=1e-5 rhs=random "
      "seed=1");
  const Problem lp = set_up(solve_spec, nullptr, 0);
  const solver::Options sopts = ex::solver_options_from_spec(solve_spec);
  const std::unique_ptr<krylov::LinearOperator> op =
      lp.backend->make_operator(lp.problem->A);
  solver::FtGmresSolver ft(*op, sopts);
  la::Vector x(lp.problem->b.size());
  const solver::SolveReport report = ft.solve(lp.problem->b.span(), x.span());
  expect(!check_solution(lp.problem->A, lp.problem->b, x, report, sopts.tol,
                         log),
         false, "solve output accepted");
  x[x.size() / 2] += 1.0;
  expect(!check_solution(lp.problem->A, lp.problem->b, x, report, sopts.tol,
                         log),
         true, "perturbed solution x rejected");

  // Exact-count repeat check: one extra global sync is a failure.
  Counts c;
  c.global_syncs = 10;
  Counts d = c;
  d.global_syncs = 11;
  RunResult repeat;
  check_repeat({c, d}, "smoke", repeat);
  expect(!repeat.correct, true, "count mismatch between repeats rejected");
  return failures;
}

} // namespace sdcbench
