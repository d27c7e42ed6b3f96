// Heap-allocation contract of the GMRES engines: a warm solve through a
// reused workspace of the same shape allocates nothing.  This binary
// replaces the global operator new with a counting one, so it must stay a
// test binary of its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "gen/convection_diffusion.hpp"
#include "krylov/gmres.hpp"
#include "krylov/operator.hpp"
#include "krylov/workspace.hpp"
#include "la/vector.hpp"
#include "sparse/csr_mixed.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
} // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace krylov = sdcgmres::krylov;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;
namespace sparse = sdcgmres::sparse;

namespace {

// Several restart cycles (60 iterations, restart 12), so finish_cycle's
// projected solve runs five times per solve.
krylov::GmresOptions cycling_options() {
  krylov::GmresOptions opts;
  opts.max_iters = 60;
  opts.restart = 12;
  opts.tol = 0.0;
  return opts;
}

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

} // namespace

TEST(GmresAllocations, WarmDoubleSolveAllocatesNothing) {
  const auto A = gen::convection_diffusion2d(12, 20.0, -5.0); // n = 144
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());
  const krylov::GmresOptions opts = cycling_options();
  krylov::KrylovWorkspace ws;
  la::Vector x(A.cols());

  const krylov::GmresStats cold =
      krylov::gmres_in_place(op, b.span(), x.span(), opts, nullptr, 0, &ws);
  ASSERT_EQ(cold.iterations, 60u);

  x.fill(0.0);
  const std::size_t before = allocations();
  const krylov::GmresStats warm =
      krylov::gmres_in_place(op, b.span(), x.span(), opts, nullptr, 0, &ws);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(warm.iterations, 60u);
  EXPECT_EQ(warm.residual_norm, cold.residual_norm);
}

TEST(GmresAllocations, WarmFloatSolveAllocatesNothing) {
  const auto A = gen::convection_diffusion2d(12, 20.0, -5.0);
  const sparse::CsrMatrixT<float, std::int32_t> af(A);
  const krylov::MatrixOperator<sparse::CsrMatrixT<float, std::int32_t>> op(af);
  const std::vector<float> b(A.rows(), 1.0f);
  const krylov::GmresOptions opts = cycling_options();
  krylov::KrylovWorkspaceT<float> ws;
  std::vector<float> x(A.cols(), 0.0f);

  const auto solve = [&] {
    krylov::GmresEngineT<float> engine(op, b, x, opts, nullptr, 0, ws,
                                       nullptr);
    krylov::drive_to_completion(op, engine);
    return engine.stats();
  };
  const krylov::GmresStats cold = solve();
  ASSERT_EQ(cold.iterations, 60u);

  std::fill(x.begin(), x.end(), 0.0f);
  const std::size_t before = allocations();
  const krylov::GmresStats warm = solve();
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(warm.iterations, 60u);
  EXPECT_EQ(warm.residual_norm, cold.residual_norm);
}
