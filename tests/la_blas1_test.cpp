#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/krylov_basis.hpp"
#include "reference_sum_order.hpp"

namespace la = sdcgmres::la;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
} // namespace

TEST(Blas1Dot, OrthogonalVectorsGiveZero) {
  la::Vector x{1.0, 0.0};
  la::Vector y{0.0, 5.0};
  EXPECT_EQ(la::dot(x, y), 0.0);
}

TEST(Blas1Dot, MatchesHandComputedValue) {
  la::Vector x{1.0, 2.0, 3.0};
  la::Vector y{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(la::dot(x, y), 4.0 - 10.0 + 18.0);
}

TEST(Blas1Dot, SizeMismatchThrows) {
  la::Vector x(3);
  la::Vector y(4);
  EXPECT_THROW((void)la::dot(x, y), std::invalid_argument);
}

TEST(Blas1Dot, LargeVectorParallelPathAgreesWithSerialSum) {
  const std::size_t n = 100000; // above the OpenMP threshold
  la::Vector x(n, 1.0);
  la::Vector y(n, 2.0);
  EXPECT_DOUBLE_EQ(la::dot(x, y), 2.0 * static_cast<double>(n));
}

TEST(Blas1Norms, Nrm2OfUnitAxisVector) {
  EXPECT_DOUBLE_EQ(la::nrm2(la::unit(7, 3)), 1.0);
}

TEST(Blas1Norms, Nrm2Pythagorean) {
  la::Vector v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(la::nrm2(v), 5.0);
}

TEST(Blas1Norms, Nrm1SumsAbsoluteValues) {
  la::Vector v{-1.0, 2.0, -3.0};
  EXPECT_DOUBLE_EQ(la::nrm1(v), 6.0);
}

TEST(Blas1Norms, NrmInfPicksLargestMagnitude) {
  la::Vector v{-7.0, 2.0, 5.0};
  EXPECT_DOUBLE_EQ(la::nrminf(v), 7.0);
}

TEST(Blas1Norms, NrmInfOfEmptyIsZero) {
  la::Vector v;
  EXPECT_EQ(la::nrminf(v), 0.0);
}

TEST(Blas1Axpy, BasicUpdate) {
  la::Vector x{1.0, 2.0};
  la::Vector y{10.0, 20.0};
  la::axpy(2.0, x, y);
  EXPECT_EQ(y[0], 12.0);
  EXPECT_EQ(y[1], 24.0);
}

TEST(Blas1Axpy, SizeMismatchThrows) {
  la::Vector x(2);
  la::Vector y(3);
  EXPECT_THROW(la::axpy(1.0, x, y), std::invalid_argument);
}

TEST(Blas1Waxpby, ThreeOperandForm) {
  la::Vector x{1.0, 2.0};
  la::Vector y{3.0, 4.0};
  la::Vector w;
  la::waxpby(2.0, x, -1.0, y, w);
  EXPECT_EQ(w[0], -1.0);
  EXPECT_EQ(w[1], 0.0);
}

TEST(Blas1Waxpby, OutputMayAliasInput) {
  la::Vector x{1.0, 2.0};
  la::Vector y{3.0, 4.0};
  la::waxpby(1.0, x, 1.0, y, y); // y := x + y
  EXPECT_EQ(y[0], 4.0);
  EXPECT_EQ(y[1], 6.0);
}

TEST(Blas1Scal, ScalesInPlace) {
  la::Vector x{1.0, -2.0};
  la::scal(-3.0, x);
  EXPECT_EQ(x[0], -3.0);
  EXPECT_EQ(x[1], 6.0);
}

TEST(Blas1Copy, ResizesDestination) {
  la::Vector x{1.0, 2.0, 3.0};
  la::Vector y;
  la::copy(x, y);
  EXPECT_EQ(y, x);
}

TEST(Blas1Hadamard, ElementWiseProduct) {
  la::Vector x{1.0, 2.0, 3.0};
  la::Vector y{2.0, 0.5, -1.0};
  la::Vector z;
  la::hadamard(x, y, z);
  EXPECT_EQ(z[0], 2.0);
  EXPECT_EQ(z[1], 1.0);
  EXPECT_EQ(z[2], -3.0);
}

TEST(Blas1Finite, AllFiniteOnCleanVector) {
  la::Vector v{1.0, -2.0, 0.0};
  EXPECT_TRUE(la::all_finite(v));
  EXPECT_EQ(la::count_nonfinite(v), 0u);
}

TEST(Blas1Finite, DetectsInf) {
  la::Vector v{1.0, kInf, 0.0};
  EXPECT_FALSE(la::all_finite(v));
  EXPECT_EQ(la::count_nonfinite(v), 1u);
}

TEST(Blas1Finite, DetectsNaN) {
  la::Vector v{kNaN, kNaN, 0.0};
  EXPECT_FALSE(la::all_finite(v));
  EXPECT_EQ(la::count_nonfinite(v), 2u);
}

TEST(Blas1Finite, NegativeInfCounts) {
  la::Vector v{-kInf};
  EXPECT_EQ(la::count_nonfinite(v), 1u);
}

// --- Fused dot_axpy (the MGS hot-path kernel) -------------------------------

TEST(Blas1DotAxpy, BitwiseMatchesUnfusedDotThenAxpyAtSerialSize) {
  // One block: both kernels sum in the same lane order on one thread.
  const std::size_t n = 4000;
  la::Vector q(n), v(n);
  for (std::size_t i = 0; i < n; ++i) {
    q[i] = std::sin(0.31 * static_cast<double>(i));
    v[i] = std::cos(0.17 * static_cast<double>(i)) + 0.2;
  }
  la::Vector v_ref = v;
  const double h_ref = la::dot(q, v_ref);
  la::axpy(-h_ref, q, v_ref);

  const double h = la::dot_axpy(q.span(), v.span());
  EXPECT_EQ(h, h_ref);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(v[i], v_ref[i]) << "i=" << i;
  }
}

TEST(Blas1DotAxpy, MatchesUnfusedDotThenAxpyAboveParallelThreshold) {
  // Two blocks, so with several threads both kernels take the parallel
  // path; the block partials combine in block order, so equality stays
  // bitwise at any team size.
  const std::size_t n = 5000;
  la::Vector q(n), v(n);
  for (std::size_t i = 0; i < n; ++i) {
    q[i] = std::sin(0.31 * static_cast<double>(i));
    v[i] = std::cos(0.17 * static_cast<double>(i)) + 0.2;
  }
  la::Vector v_ref = v;
  const double h_ref = la::dot(q, v_ref);
  la::axpy(-h_ref, q, v_ref);

  const double h = la::dot_axpy(q.span(), v.span());
  EXPECT_EQ(h, h_ref);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(v[i], v_ref[i]) << "i=" << i;
  }
}

TEST(Blas1DotAxpy, AdjustRunsOnceBetweenDotAndCorrection) {
  la::Vector q{1.0, 0.0, 0.0};
  la::Vector v{4.0, 2.0, 1.0};
  int calls = 0;
  const double h =
      la::dot_axpy(q.span(), v.span(), [&](double& c) {
        ++calls;
        EXPECT_DOUBLE_EQ(c, 4.0); // the freshly computed coefficient
        c = 1.0;                  // mutate: only 1.0 of the component removed
      });
  EXPECT_EQ(calls, 1);
  EXPECT_DOUBLE_EQ(h, 1.0);      // returns the mutated coefficient
  EXPECT_DOUBLE_EQ(v[0], 3.0);   // 4 - 1: mutated value applied
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(Blas1DotAxpy, SizeMismatchThrows) {
  la::Vector q(3), v(4);
  EXPECT_THROW((void)la::dot_axpy(q.span(), v.span()), std::invalid_argument);
}

TEST(Blas1SpanOverloads, MatchVectorOverloadsBitwise) {
  const std::size_t n = 4100;
  la::Vector x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(static_cast<double>(i) * 0.7);
    y[i] = std::cos(static_cast<double>(i) * 0.3);
  }
  EXPECT_EQ(la::dot(x.span(), y.span()), la::dot(x, y));
  EXPECT_EQ(la::nrm2(x.span()), la::nrm2(x));
  la::Vector y1 = y, y2 = y;
  la::axpy(0.37, x, y1);
  la::axpy(0.37, x.span(), y2.span());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(y1[i], y2[i]);
}

// --- Thread-count invariance ------------------------------------------------

namespace {

// Every reduction of one precision on one input, as plain values.
template <typename S>
struct Reductions {
  S dot{};
  S nrm2{};
  S fused_h{};
  std::vector<S> fused_y;
  S adjusted_seen{};
  S adjusted_h{};
  std::vector<S> adjusted_y;
  std::vector<S> gemv_t;

  bool operator==(const Reductions&) const = default;
};

template <typename S>
std::vector<S> wave(std::size_t n, double freq, double shift) {
  std::vector<S> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<S>(std::sin(freq * static_cast<double>(i) + shift) +
                          0.1 * shift);
  }
  return v;
}

template <typename S>
Reductions<S> reductions(const std::vector<S>& x, const std::vector<S>& y,
                         const la::KrylovBasisT<S>& basis) {
  Reductions<S> r;
  const std::span<const S> xs(x);
  r.dot = la::dot(xs, std::span<const S>(y));
  r.nrm2 = la::nrm2(xs);
  r.fused_y = y;
  r.fused_h = la::dot_axpy(xs, std::span<S>(r.fused_y));
  r.adjusted_y = y;
  r.adjusted_h = la::dot_axpy(xs, std::span<S>(r.adjusted_y), [&](S& c) {
    r.adjusted_seen = c;
    c = c * S(0.5) + S(1); // a mutated coefficient, as an injection would
  });
  r.gemv_t.assign(basis.cols(), S(0));
  la::gemv_t(S(1), basis.view(), xs, S(0), std::span<S>(r.gemv_t));
  return r;
}

template <typename S>
la::KrylovBasisT<S> three_columns(std::size_t n) {
  la::KrylovBasisT<S> basis(n, 3);
  for (std::size_t c = 0; c < 3; ++c) {
    const std::vector<S> v = wave<S>(n, 0.37 + 0.2 * static_cast<double>(c),
                                     static_cast<double>(c));
    basis.append(std::span<const S>(v));
  }
  return basis;
}

class TeamSize {
public:
  explicit TeamSize(int threads) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
  }
  ~TeamSize() {
#ifdef _OPENMP
    omp_set_num_threads(saved_);
#endif
  }
  TeamSize(const TeamSize&) = delete;
  TeamSize& operator=(const TeamSize&) = delete;

private:
#ifdef _OPENMP
  int saved_ = omp_get_max_threads();
#endif
};

template <typename S>
void expect_invariant_across_team_sizes(std::size_t n) {
  const std::vector<S> x = wave<S>(n, 0.71, 0.3);
  const std::vector<S> y = wave<S>(n, 0.29, 1.7);
  const la::KrylovBasisT<S> basis = three_columns<S>(n);
  Reductions<S> serial;
  {
    const TeamSize team(1);
    serial = reductions(x, y, basis);
  }
  EXPECT_EQ(serial.dot, sdcgmres::reference::dot<S>(x, y)) << "n " << n;
  for (const int threads : {2, 3, 4}) {
    const TeamSize team(threads);
    EXPECT_TRUE(reductions(x, y, basis) == serial)
        << "n " << n << " threads " << threads;
  }
}

// Every element-wise kernel of one precision on one input.
template <typename S>
struct ElementWise {
  std::vector<S> axpy;
  std::vector<S> scal;
  std::vector<S> copy;
  std::vector<S> waxpby;
  std::vector<S> waxpby_aliased; // w is y, as r = b - A*x writes it
  std::vector<S> hadamard;       // double only
  std::size_t nonfinite = 0;
  bool all_finite = true;

  bool operator==(const ElementWise&) const = default;
};

template <typename S>
ElementWise<S> element_wise(const std::vector<S>& x, const std::vector<S>& y,
                            const std::vector<S>& holes) {
  ElementWise<S> r;
  const std::span<const S> xs(x);
  const std::span<const S> ys(y);
  r.axpy = y;
  la::axpy(S(0.37), xs, std::span<S>(r.axpy));
  r.scal = x;
  la::scal(S(-1.3), std::span<S>(r.scal));
  r.copy.assign(x.size(), S(0));
  la::copy(xs, std::span<S>(r.copy));
  r.waxpby.assign(x.size(), S(0));
  la::waxpby(S(0.5), xs, S(-2), ys, std::span<S>(r.waxpby));
  r.waxpby_aliased = y;
  la::waxpby(S(1), xs, S(-1), std::span<const S>(r.waxpby_aliased),
             std::span<S>(r.waxpby_aliased));
  if constexpr (std::is_same_v<S, double>) {
    r.hadamard.assign(x.size(), 0.0);
    la::hadamard(xs, ys, std::span<double>(r.hadamard));
  }
  r.nonfinite = la::count_nonfinite(std::span<const S>(holes));
  r.all_finite = la::all_finite(std::span<const S>(holes));
  return r;
}

template <typename S>
void expect_element_wise_invariant(std::size_t n) {
  const std::vector<S> x = wave<S>(n, 0.71, 0.3);
  const std::vector<S> y = wave<S>(n, 0.29, 1.7);
  // Non-finite entries every 1000th position, alternating Inf and NaN.
  std::vector<S> holes = x;
  std::size_t expected_holes = 0;
  for (std::size_t i = 0; i < n; i += 1000, ++expected_holes) {
    holes[i] = expected_holes % 2 == 0
                   ? std::numeric_limits<S>::infinity()
                   : std::numeric_limits<S>::quiet_NaN();
  }
  ElementWise<S> serial;
  {
    const TeamSize team(1);
    serial = element_wise(x, y, holes);
  }
  EXPECT_EQ(serial.nonfinite, expected_holes) << "n " << n;
  EXPECT_EQ(serial.all_finite, expected_holes == 0) << "n " << n;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(serial.axpy[i], y[i] + S(0.37) * x[i]) << "n " << n;
    ASSERT_EQ(serial.waxpby[i], S(0.5) * x[i] + S(-2) * y[i]) << "n " << n;
  }
  for (const int threads : {2, 3, 4}) {
    const TeamSize team(threads);
    EXPECT_TRUE(element_wise(x, y, holes) == serial)
        << "n " << n << " threads " << threads;
  }
}

} // namespace

TEST(Blas1ThreadInvariance, ElementWiseKernelsAreBitwiseIdenticalAtEveryTeamSize) {
  for (const std::size_t n :
       {0u, 1u, 7u, 4095u, 4096u, 4097u, 3u * 4096u + 5u, 100003u}) {
    expect_element_wise_invariant<double>(n);
    expect_element_wise_invariant<float>(n);
  }
}

TEST(Blas1ThreadInvariance, ReductionsAreBitwiseIdenticalAtEveryTeamSize) {
  for (const std::size_t n :
       {0u, 1u, 7u, 4095u, 4096u, 4097u, 3u * 4096u + 5u, 100003u}) {
    expect_invariant_across_team_sizes<double>(n);
    expect_invariant_across_team_sizes<float>(n);

    la::Vector v(n);
    const std::vector<double> entries = wave<double>(n, 0.53, 2.1);
    la::copy(std::span<const double>(entries), v.span());
    double nrm1_serial = 0.0;
    double nrminf_serial = 0.0;
    {
      const TeamSize team(1);
      nrm1_serial = la::nrm1(v);
      nrminf_serial = la::nrminf(v);
    }
    for (const int threads : {2, 3, 4}) {
      const TeamSize team(threads);
      EXPECT_EQ(la::nrm1(v), nrm1_serial) << "n " << n << " threads " << threads;
      EXPECT_EQ(la::nrminf(v), nrminf_serial)
          << "n " << n << " threads " << threads;
    }
  }
}
