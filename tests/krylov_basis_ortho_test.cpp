/// \file krylov_basis_ortho_test.cpp
/// \brief Equivalence and quality tests for the fused contiguous-basis
/// orthogonalization path against the per-vector reference path.
///
/// The SDC framework's injection/detection semantics hinge on the hook
/// observing exactly the same projection coefficients through either path,
/// so the first half of this file asserts bitwise equality of the hook
/// (i, mgs_steps, value) sequences.  Both paths sum every coefficient in
/// la::dot's one summation order, which depends only on the length, so
/// equality is exact at any size and any OpenMP thread count.  The second
/// half is the numerical quality property: CGS2 on the contiguous basis
/// must keep basis orthogonality (||Q^T Q - I||_max) no worse than the
/// reference path on the paper's model problems.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "gen/convection_diffusion.hpp"
#include "gen/poisson.hpp"
#include "krylov/arnoldi.hpp"
#include "krylov/orthogonalize.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/krylov_basis.hpp"
#include "reference_sum_order.hpp"

namespace krylov = sdcgmres::krylov;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;

namespace {

/// Records every coefficient the hook sees; can also corrupt one of them.
class RecordingHook final : public krylov::ArnoldiHook {
public:
  struct Seen {
    std::size_t i;
    std::size_t mgs_steps;
    double value;
  };
  std::vector<Seen> seen;
  std::size_t corrupt_index = SIZE_MAX;
  double corrupt_factor = 1.0;

  void on_projection_coefficient(const krylov::ArnoldiContext&, std::size_t i,
                                 std::size_t mgs_steps, double& h) override {
    seen.push_back({i, mgs_steps, h});
    if (i == corrupt_index) h *= corrupt_factor;
  }
};

la::Vector generic_vector(std::size_t n, double phase) {
  la::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(1.7 * static_cast<double>(i) + phase) +
           0.01 * static_cast<double>(i % 13);
  }
  return v;
}

/// A (k x n) not-necessarily-orthonormal set of directions, materialized
/// both as the per-vector representation and the contiguous arena.
struct TwinBases {
  std::vector<la::Vector> old_q;
  la::KrylovBasis new_q;
};

TwinBases twin_bases(std::size_t n, std::size_t k) {
  TwinBases out;
  out.new_q = la::KrylovBasis(n, k);
  for (std::size_t j = 0; j < k; ++j) {
    la::Vector v = generic_vector(n, 0.3 + 0.9 * static_cast<double>(j));
    la::scal(1.0 / la::nrm2(v), v);
    out.old_q.push_back(v);
    out.new_q.append(v);
  }
  return out;
}

/// Gram-Schmidt-build an orthonormal basis of Krylov type (q_{j+1} from
/// A*q_j) with the REFERENCE orthogonalize path.
std::vector<la::Vector> build_basis_reference(
    const sdcgmres::sparse::CsrMatrix& A, std::size_t k,
    krylov::Orthogonalization kind) {
  const std::size_t n = A.rows();
  std::vector<la::Vector> q;
  la::Vector v0 = generic_vector(n, 0.3);
  la::scal(1.0 / la::nrm2(v0), v0);
  q.push_back(v0);
  std::vector<double> h(k + 1, 0.0);
  for (std::size_t j = 0; j + 1 < k; ++j) {
    la::Vector v(n);
    A.spmv(q[j], v);
    krylov::orthogonalize(kind, q, j + 1, v, h, nullptr, {});
    la::scal(1.0 / la::nrm2(v), v);
    q.push_back(std::move(v));
  }
  return q;
}

/// Same process on the contiguous arena with the fused path.
la::KrylovBasis build_basis_fused(const sdcgmres::sparse::CsrMatrix& A,
                                  std::size_t k,
                                  krylov::Orthogonalization kind) {
  const std::size_t n = A.rows();
  la::KrylovBasis q(n, k);
  la::Vector v0 = generic_vector(n, 0.3);
  la::scal(1.0 / la::nrm2(v0), v0);
  q.append(v0);
  std::vector<double> h(k + 1, 0.0);
  for (std::size_t j = 0; j + 1 < k; ++j) {
    la::Vector v(n);
    A.spmv(q.col(j), v);
    krylov::orthogonalize(kind, q, j + 1, v, h, nullptr, {});
    la::scal(1.0 / la::nrm2(v), v);
    q.append(v.span());
  }
  return q;
}

double defect_of(const std::vector<la::Vector>& q) {
  double worst = 0.0;
  for (std::size_t a = 0; a < q.size(); ++a) {
    for (std::size_t b = a; b < q.size(); ++b) {
      const double target = (a == b) ? 1.0 : 0.0;
      worst = std::max(worst, std::abs(la::dot(q[a], q[b]) - target));
    }
  }
  return worst;
}

} // namespace

// --- Coefficient / hook equivalence ----------------------------------------

/// (kind, rows): the sizes include odd block remainders and 16384 rows,
/// which spans four 4096-entry summation blocks.
class OrthoParity
    : public ::testing::TestWithParam<
          std::tuple<krylov::Orthogonalization, std::size_t>> {};

/// Both paths must produce bitwise-identical hook sequences and identical
/// total coefficients; the orthogonalized vector agrees to roundoff (the
/// fused correction combines columns in blocks).
TEST_P(OrthoParity, HookSequenceAndCoefficientsMatchReferencePath) {
  const auto [kind, n] = GetParam();
  const std::size_t k = 6;
  const TwinBases tb = twin_bases(n, k);

  la::Vector v_old = generic_vector(n, 5.1);
  la::Vector v_new = v_old;
  std::vector<double> h_old(k, 0.0), h_new(k, 0.0);
  RecordingHook hook_old, hook_new;

  krylov::orthogonalize(kind, tb.old_q, k, v_old, h_old, &hook_old, {});
  krylov::orthogonalize(kind, tb.new_q, k, v_new, h_new, &hook_new, {});

  ASSERT_EQ(hook_old.seen.size(), hook_new.seen.size());
  for (std::size_t s = 0; s < hook_old.seen.size(); ++s) {
    EXPECT_EQ(hook_old.seen[s].i, hook_new.seen[s].i) << "event " << s;
    EXPECT_EQ(hook_old.seen[s].mgs_steps, hook_new.seen[s].mgs_steps)
        << "event " << s;
    EXPECT_EQ(hook_old.seen[s].value, hook_new.seen[s].value)
        << "event " << s << " (hook values must be bitwise identical)";
  }
  for (std::size_t i = 0; i < k; ++i) {
    // MGS totals are bitwise identical (same kernel sequence); CGS2 adds a
    // second-pass correction whose rounding may differ, so allow roundoff.
    EXPECT_NEAR(h_new[i], h_old[i], 1e-13 * (1.0 + std::abs(h_old[i])))
        << "h[" << i << "]";
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(v_new[i], v_old[i], 1e-12) << "v[" << i << "]";
  }
}

/// Hook mutations must propagate identically (the paper's injection site:
/// a corrupted coefficient taints everything downstream the same way).
TEST_P(OrthoParity, HookMutationPropagatesIdentically) {
  const auto [kind, n] = GetParam();
  const std::size_t k = 5;
  const TwinBases tb = twin_bases(n, k);

  la::Vector v_old = generic_vector(n, 2.2);
  la::Vector v_new = v_old;
  std::vector<double> h_old(k, 0.0), h_new(k, 0.0);
  RecordingHook hook_old, hook_new;
  hook_old.corrupt_index = 1;
  hook_old.corrupt_factor = 100.0;
  hook_new.corrupt_index = 1;
  hook_new.corrupt_factor = 100.0;

  krylov::orthogonalize(kind, tb.old_q, k, v_old, h_old, &hook_old, {});
  krylov::orthogonalize(kind, tb.new_q, k, v_new, h_new, &hook_new, {});

  ASSERT_EQ(hook_old.seen.size(), hook_new.seen.size());
  for (std::size_t s = 0; s < hook_old.seen.size(); ++s) {
    EXPECT_EQ(hook_old.seen[s].value, hook_new.seen[s].value) << "event " << s;
  }
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_NEAR(h_new[i], h_old[i], 1e-12 * (1.0 + std::abs(h_old[i])))
        << "h[" << i << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, OrthoParity,
    ::testing::Combine(::testing::Values(krylov::Orthogonalization::MGS,
                                         krylov::Orthogonalization::CGS,
                                         krylov::Orthogonalization::CGS2),
                       ::testing::Values(std::size_t{333}, std::size_t{777},
                                         std::size_t{16384})),
    [](const auto& info) {
      return std::string(krylov::to_string(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// --- Float plane: the widened hook protocol --------------------------------

namespace {

/// Hook for the float kernels: records each widened coefficient next to
/// the reference-order float dot of the operands at that moment (the basis
/// column and the live candidate v), and can scale one coefficient by 100.
class FloatPlaneHook final : public krylov::ArnoldiHook {
public:
  FloatPlaneHook(const la::KrylovBasisT<float>& q, std::span<const float> v)
      : q_(q), v_(v) {}

  struct Seen {
    std::size_t i;
    double value;
    double reference;
  };
  std::vector<Seen> seen;
  std::size_t corrupt_index = SIZE_MAX;

  void on_projection_coefficient(const krylov::ArnoldiContext&, std::size_t i,
                                 std::size_t, double& h) override {
    const float ref = sdcgmres::reference::dot<float>(q_.col(i), v_);
    seen.push_back({i, h, static_cast<double>(ref)});
    if (i == corrupt_index) h *= 100.0;
  }

private:
  const la::KrylovBasisT<float>& q_;
  std::span<const float> v_;
};

std::vector<float> narrowed(const la::Vector& v) {
  std::vector<float> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = static_cast<float>(v[i]);
  return out;
}

} // namespace

class FloatOrtho : public ::testing::TestWithParam<krylov::Orthogonalization> {
};

/// On KrylovBasisT<float> every first-pass coefficient reaches the
/// double-typed hook as the widened float dot of that moment's operands,
/// summed in the reference order (n spans three 4096-entry blocks), and a
/// hook mutation is narrowed back into h and v exactly: a replay on the la
/// kernels that applies the narrowed x100 coefficient gives the same bits.
TEST_P(FloatOrtho, HookSeesWidenedReferenceDotsAndMutationNarrowsBack) {
  const krylov::Orthogonalization kind = GetParam();
  const std::size_t n = 9000;
  const std::size_t k = 5;
  const std::size_t bad = 2;
  la::KrylovBasisT<float> q(n, k);
  for (std::size_t j = 0; j < k; ++j) {
    la::Vector d = generic_vector(n, 0.3 + 0.9 * static_cast<double>(j));
    la::scal(1.0 / la::nrm2(d), d);
    q.append(std::span<const float>(narrowed(d)));
  }
  const std::vector<float> v0 = narrowed(generic_vector(n, 5.1));

  std::vector<float> v = v0;
  std::vector<float> h(k, 0.0f);
  FloatPlaneHook hook(q, v);
  hook.corrupt_index = bad;
  krylov::orthogonalize(kind, q, k, std::span<float>(v), std::span<float>(h),
                        &hook, {});

  ASSERT_EQ(hook.seen.size(), k);
  for (std::size_t s = 0; s < k; ++s) {
    EXPECT_EQ(hook.seen[s].i, s);
    EXPECT_EQ(hook.seen[s].value, hook.seen[s].reference) << "event " << s;
  }
  const float narrowed_bad = static_cast<float>(hook.seen[bad].value * 100.0);
  if (kind != krylov::Orthogonalization::CGS2) {
    EXPECT_EQ(h[bad], narrowed_bad); // one pass: h holds the coefficient
  }

  // Replay on the la kernels with the narrowed mutated coefficient.
  std::vector<float> vr = v0;
  std::vector<float> hr(k, 0.0f);
  const std::span<float> vrs(vr);
  if (kind == krylov::Orthogonalization::MGS) {
    for (std::size_t i = 0; i < k; ++i) {
      hr[i] += la::dot_axpy(q.col(i), vrs, [&](float& c) {
        if (i == bad) c = narrowed_bad;
      });
    }
  } else {
    const std::size_t passes = kind == krylov::Orthogonalization::CGS2 ? 2 : 1;
    std::vector<float> c(k, 0.0f);
    for (std::size_t p = 0; p < passes; ++p) {
      la::gemv_t(1.0f, q.view(k), std::span<const float>(vr), 0.0f,
                 std::span<float>(c));
      if (p == 0) c[bad] = narrowed_bad;
      for (std::size_t i = 0; i < k; ++i) hr[i] += c[i];
      la::gemv(-1.0f, q.view(k), std::span<const float>(c), 1.0f, vrs);
    }
  }
  for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(h[i], hr[i]) << "h[" << i << "]";
  std::size_t v_mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) v_mismatches += (v[i] != vr[i]) ? 1 : 0;
  EXPECT_EQ(v_mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FloatOrtho,
                         ::testing::Values(krylov::Orthogonalization::MGS,
                                           krylov::Orthogonalization::CGS,
                                           krylov::Orthogonalization::CGS2),
                         [](const auto& info) {
                           return std::string(krylov::to_string(info.param));
                         });

// --- Arnoldi-level hook equivalence ----------------------------------------

/// krylov::arnoldi (now on the fused contiguous path) must drive the hook
/// through the same (i, mgs_steps, value) sequence as a hand-rolled Arnoldi
/// loop over the per-vector reference path.
TEST(ArnoldiHookEquivalence, FusedPathReproducesReferenceSequence) {
  const auto A = gen::poisson2d(10);
  const krylov::CsrOperator op(A);
  const std::size_t m = 8;
  const la::Vector v0 = generic_vector(A.rows(), 0.3);

  RecordingHook hook_new;
  (void)krylov::arnoldi(op, v0, m, krylov::Orthogonalization::MGS, &hook_new);

  // Reference Arnoldi on std::vector<la::Vector>, mirroring the solver loop.
  RecordingHook hook_old;
  std::vector<la::Vector> q;
  la::Vector r = v0;
  la::scal(1.0 / la::nrm2(r), r);
  q.push_back(r);
  std::vector<double> hcol(m + 1, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    la::Vector v(A.rows());
    op.apply(q[j], v);
    const krylov::ArnoldiContext ctx{.solve_index = 0, .iteration = j};
    krylov::orthogonalize(krylov::Orthogonalization::MGS, q, j + 1, v, hcol,
                          &hook_old, ctx);
    const double hnext = la::nrm2(v);
    la::scal(1.0 / hnext, v);
    q.push_back(std::move(v));
  }

  ASSERT_EQ(hook_new.seen.size(), hook_old.seen.size());
  ASSERT_EQ(hook_new.seen.size(), m * (m + 1) / 2);
  for (std::size_t s = 0; s < hook_new.seen.size(); ++s) {
    EXPECT_EQ(hook_new.seen[s].i, hook_old.seen[s].i) << "event " << s;
    EXPECT_EQ(hook_new.seen[s].mgs_steps, hook_old.seen[s].mgs_steps)
        << "event " << s;
    EXPECT_EQ(hook_new.seen[s].value, hook_old.seen[s].value) << "event " << s;
  }
}

// --- Numerical quality property --------------------------------------------

/// CGS2 on the contiguous basis must produce basis orthogonality no worse
/// than the per-vector path (up to a small slack for reordered correction
/// rounding) on the paper's model problems.
TEST(OrthoQuality, Cgs2OnArenaNoWorseThanReferenceOnModelProblems) {
  struct Case {
    const char* name;
    sdcgmres::sparse::CsrMatrix matrix;
  };
  Case cases[] = {
      {"poisson2d(12)", gen::poisson2d(12)},
      {"convection_diffusion2d(12, 20, 5)",
       gen::convection_diffusion2d(12, 20.0, 5.0)},
  };
  const std::size_t k = 20;
  for (const auto& c : cases) {
    const auto old_q =
        build_basis_reference(c.matrix, k, krylov::Orthogonalization::CGS2);
    const auto new_q =
        build_basis_fused(c.matrix, k, krylov::Orthogonalization::CGS2);
    const double old_defect = defect_of(old_q);
    const double new_defect = la::orthonormality_defect(new_q.view());
    EXPECT_LE(new_defect, old_defect * 4.0 + 1e-14)
        << c.name << ": fused defect " << new_defect << " vs reference "
        << old_defect;
    // Both must be at machine-precision quality for CGS2.
    EXPECT_LT(new_defect, 1e-13) << c.name;
  }
}

/// Same property for MGS (the paper's default), which shares every kernel
/// with the reference path and must match its quality exactly.
TEST(OrthoQuality, MgsOnArenaMatchesReferenceOnModelProblems) {
  const auto A = gen::poisson2d(12);
  const std::size_t k = 20;
  const auto old_q = build_basis_reference(A, k, krylov::Orthogonalization::MGS);
  const auto new_q = build_basis_fused(A, k, krylov::Orthogonalization::MGS);
  const double old_defect = defect_of(old_q);
  const double new_defect = la::orthonormality_defect(new_q.view());
  EXPECT_EQ(new_defect, old_defect)
      << "MGS shares the exact kernel sequence; defects must agree";
}
