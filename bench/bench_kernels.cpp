/// \file bench_kernels.cpp
/// \brief google-benchmark timings for the computational kernels, plus a
/// standalone orthogonalization timing mode.
///
/// Headline measurements:
///   1. the paper's "filtering values is cheap" claim (Section VII-E-2):
///      the detector's per-coefficient bound check adds negligible cost to
///      the orthogonalization kernel;
///   2. the fused block orthogonalization kernels (gemv_t + gemv, or
///      dot_axpy for MGS, over a contiguous KrylovBasis arena).
///
/// The orthogonalization timings also run outside google-benchmark via
///   bench_kernels --ortho-only [--ortho-n N] [--ortho-k K] [--ortho-reps R]
/// which prints min-of-reps fused MGS/CGS/CGS2 timings and the s-step
/// commit kernel (TSQR vs column-at-a-time CGS2 on one n x s block) to
/// stderr.  Wall-clock with spread is perfbench's job (perfbench/).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "dense/hessenberg_qr.hpp"
#include "dense/svd.hpp"
#include "gen/poisson.hpp"
#include "krylov/arnoldi.hpp"
#include "krylov/gmres.hpp"
#include "krylov/orthogonalize.hpp"
#include "la/blas1.hpp"
#include "la/block.hpp"
#include "la/krylov_basis.hpp"
#include "la/tsqr.hpp"
#include "sdc/detector.hpp"

using namespace sdcgmres;

namespace {

la::Vector generic_vector(std::size_t n) {
  la::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(1.7 * static_cast<double>(i) + 0.3) + 0.01;
  }
  return v;
}

// --- Orthogonalization -----------------------------------------------------

/// Normalized (not mutually orthogonal -- irrelevant for timing) basis
/// columns in a contiguous arena, plus the vector to orthogonalize.
struct OrthoFixture {
  la::KrylovBasis arena;
  la::Vector v_template;

  OrthoFixture(std::size_t n, std::size_t k) : arena(n, k) {
    for (std::size_t j = 0; j < k; ++j) {
      la::Vector q(n);
      for (std::size_t i = 0; i < n; ++i) {
        q[i] = std::sin(0.7 * static_cast<double>(i) +
                        1.1 * static_cast<double>(j)) +
               0.02;
      }
      la::scal(1.0 / la::nrm2(q), q);
      arena.append(q);
    }
    v_template = generic_vector(n);
  }
};

void BM_OrthoFused(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto kind = static_cast<krylov::Orthogonalization>(state.range(2));
  const OrthoFixture fix(n, k);
  la::Vector v(n);
  std::vector<double> h(k, 0.0);
  for (auto _ : state) {
    la::copy(fix.v_template, v);
    krylov::orthogonalize(kind, fix.arena, k, v, h, nullptr, {});
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_OrthoFused)
    ->Args({65536, 30, static_cast<long>(krylov::Orthogonalization::MGS)})
    ->Args({65536, 30, static_cast<long>(krylov::Orthogonalization::CGS2)});

void BM_Spmv(benchmark::State& state) {
  const auto A = gen::poisson2d(static_cast<std::size_t>(state.range(0)));
  const la::Vector x = generic_vector(A.rows());
  la::Vector y(A.rows());
  for (auto _ : state) {
    A.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(A.nnz()));
}
BENCHMARK(BM_Spmv)->Arg(50)->Arg(100)->Arg(200);

void BM_Dot(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const la::Vector x = generic_vector(n);
  const la::Vector y = generic_vector(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::dot(x, y));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Dot)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_Axpy(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const la::Vector x = generic_vector(n);
  la::Vector y = generic_vector(n);
  for (auto _ : state) {
    la::axpy(1e-6, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Axpy)->Arg(10000)->Arg(1000000);

/// Arnoldi without any hook: the baseline the detector overhead is
/// measured against.
void BM_ArnoldiNoDetector(benchmark::State& state) {
  const auto A = gen::poisson2d(64);
  const krylov::CsrOperator op(A);
  const la::Vector v0 = generic_vector(A.rows());
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto res = krylov::arnoldi(op, v0, m);
    benchmark::DoNotOptimize(res.steps);
  }
}
BENCHMARK(BM_ArnoldiNoDetector)->Arg(10)->Arg(25)->Arg(50);

/// The same Arnoldi run with the invariant detector attached: the paper's
/// "cheap to evaluate" claim quantified.
void BM_ArnoldiWithDetector(benchmark::State& state) {
  const auto A = gen::poisson2d(64);
  const krylov::CsrOperator op(A);
  const la::Vector v0 = generic_vector(A.rows());
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  sdc::HessenbergBoundDetector detector(A.frobenius_norm());
  for (auto _ : state) {
    auto res = krylov::arnoldi(op, v0, m, krylov::Orthogonalization::MGS,
                               &detector);
    benchmark::DoNotOptimize(res.steps);
  }
}
BENCHMARK(BM_ArnoldiWithDetector)->Arg(10)->Arg(25)->Arg(50);

/// Bare detector check throughput (one comparison + counter).
void BM_DetectorCheck(benchmark::State& state) {
  sdc::HessenbergBoundDetector detector(100.0);
  krylov::ArnoldiContext ctx{};
  double h = 1.5;
  for (auto _ : state) {
    detector.on_projection_coefficient(ctx, 0, 1, h);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DetectorCheck);

void BM_HessenbergQrColumn(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  std::vector<double> col(m + 1, 0.5);
  for (auto _ : state) {
    state.PauseTiming();
    dense::HessenbergQr qr(m, 1.0);
    state.ResumeTiming();
    for (std::size_t j = 0; j < m; ++j) {
      benchmark::DoNotOptimize(
          qr.add_column({col.data(), j + 2}));
    }
  }
}
BENCHMARK(BM_HessenbergQrColumn)->Arg(25)->Arg(100);

void BM_JacobiSvd(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  la::DenseMatrix A(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      A(i, j) = std::sin(static_cast<double>(i * n + j) * 0.7) + 0.1;
    }
  }
  for (auto _ : state) {
    auto svd = dense::jacobi_svd(A);
    benchmark::DoNotOptimize(svd.sigma.data());
  }
}
BENCHMARK(BM_JacobiSvd)->Arg(10)->Arg(25)->Arg(50);

/// Full inner-solve cost (25 fixed GMRES iterations), with and without the
/// detector -- the end-to-end version of the overhead claim.
void BM_InnerSolve(benchmark::State& state) {
  const auto A = gen::poisson2d(64);
  const krylov::CsrOperator op(A);
  const la::Vector b = generic_vector(A.rows());
  krylov::GmresOptions opts;
  opts.max_iters = 25;
  opts.tol = 0.0;
  const bool with_detector = state.range(0) != 0;
  sdc::HessenbergBoundDetector detector(A.frobenius_norm());
  for (auto _ : state) {
    auto res = krylov::gmres(op, b, la::Vector(A.cols()), opts,
                             with_detector ? &detector : nullptr, 0);
    benchmark::DoNotOptimize(res.iterations);
  }
}
BENCHMARK(BM_InnerSolve)->Arg(0)->Arg(1);

// --- Standalone orthogonalization timings ----------------------------------

/// Min-of-reps timing of `inner` back-to-back orthogonalize calls.
template <typename Fn>
double time_ms(Fn&& fn, int inner, int reps) {
  using clock = std::chrono::steady_clock;
  fn(); // warm up caches / page in the arena
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    for (int it = 0; it < inner; ++it) fn();
    const auto t1 = clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count() /
        static_cast<double>(inner);
    if (ms < best) best = ms;
  }
  return best;
}

/// TSQR vs sequential CGS2 orthonormalization of one n x s candidate
/// block -- the s-step commit kernel against the column-at-a-time
/// alternative.  Besides wall-clock it prints the global-reduction count:
/// CGS2 pays 3 per column (two projection sweeps + the norm) where TSQR
/// pays ONE per block.
void run_tsqr_comparison(std::size_t n, std::size_t s, int reps) {
  // Deterministic, well-conditioned candidate block.
  la::BlockWorkspace source;
  source.reserve(n, s);
  for (std::size_t j = 0; j < s; ++j) {
    const std::span<double> c = source.view(s).col(j);
    for (std::size_t i = 0; i < n; ++i) {
      c[i] = std::sin(0.9 * static_cast<double>(i) +
                      1.3 * static_cast<double>(j)) +
             0.05;
    }
  }
  const int inner = std::max(1, static_cast<int>(20'000'000 / (n * s + 1)) + 2);

  la::KrylovBasis basis(n, s);
  la::Vector v(n);
  std::vector<double> h(s, 0.0);
  const double cgs2_ms = time_ms(
      [&] {
        basis.clear();
        for (std::size_t j = 0; j < s; ++j) {
          const std::span<const double> src = source.view(s).col(j);
          std::memcpy(v.data(), src.data(), n * sizeof(double));
          krylov::orthogonalize(krylov::Orthogonalization::CGS2, basis, j, v,
                                h, nullptr, {});
          la::scal(1.0 / la::nrm2(v), v);
          basis.append(v);
        }
      },
      inner, reps);

  la::BlockWorkspace work;
  work.reserve(n, s);
  std::vector<double> r(s * s, 0.0);
  const double tsqr_ms = time_ms(
      [&] {
        for (std::size_t j = 0; j < s; ++j) {
          std::memcpy(work.view(s).col(j).data(),
                      source.view(s).col(j).data(), n * sizeof(double));
        }
        la::tsqr(work.view(s), r.data(), s);
      },
      inner, reps);

  std::cerr << "block ortho s=" << s << ": cgs2 " << cgs2_ms << " ms ("
            << 3 * s << " syncs), tsqr " << tsqr_ms << " ms (1 sync)\n";
}

void run_ortho_timings(std::size_t n, std::size_t k, int reps) {
  const OrthoFixture fix(n, k);
  la::Vector v(n);
  std::vector<double> h(k, 0.0);
  // Size the inner loop so one rep is comfortably above timer resolution.
  const int inner =
      std::max(1, static_cast<int>(20'000'000 / (n * k + 1)) + 2);
  for (const krylov::Orthogonalization kind :
       {krylov::Orthogonalization::MGS, krylov::Orthogonalization::CGS,
        krylov::Orthogonalization::CGS2}) {
    const double ms = time_ms(
        [&] {
          la::copy(fix.v_template, v);
          krylov::orthogonalize(kind, fix.arena, k, v, h, nullptr, {});
        },
        inner, reps);
    std::cerr << "ortho " << krylov::to_string(kind) << " (n=" << n
              << ", k=" << k << "): fused " << ms << " ms\n";
  }
  // s-step commit kernel: TSQR vs sequential CGS2 on one n x s block.
  for (const std::size_t s : {2u, 4u, 8u}) run_tsqr_comparison(n, s, reps);
}

} // namespace

int main(int argc, char** argv) {
  // Shared spec-based flag handling (bench_common.hpp); unrecognized
  // tokens (--benchmark_*) pass through to google-benchmark.
  benchcfg::CliArgs cli = benchcfg::parse_cli(
      argc, argv, {"ortho-n", "ortho-k", "ortho-reps"}, {"ortho-only"});
  const bool ortho_requested =
      cli.spec.has("ortho-n") || cli.spec.has("ortho-k") ||
      cli.spec.has("ortho-reps") || cli.spec.has("ortho-only");

  if (ortho_requested) {
    std::size_t ortho_n = 0;
    std::size_t ortho_k = 0;
    std::size_t ortho_reps = 0;
    try {
      ortho_n = cli.spec.get_size("ortho-n", 65536);
      ortho_k = cli.spec.get_size("ortho-k", 30);
      ortho_reps = cli.spec.get_size("ortho-reps", 9);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
    if (ortho_n == 0 || ortho_k == 0 || ortho_reps == 0) {
      std::cerr << "--ortho-n/--ortho-k/--ortho-reps must be positive\n";
      return 1;
    }
    run_ortho_timings(ortho_n, ortho_k, static_cast<int>(ortho_reps));
    if (cli.spec.get_bool("ortho-only", false)) return 0;
  }

  int bench_argc = static_cast<int>(cli.passthrough.size());
  benchmark::Initialize(&bench_argc, cli.passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             cli.passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
