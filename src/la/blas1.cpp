#include "la/blas1.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace sdcgmres::la {

namespace {

void require_same_size(const Vector& x, const Vector& y, const char* what) {
  if (x.size() != y.size()) {
    throw std::invalid_argument(std::string("la::") + what +
                                ": vector size mismatch");
  }
}

// OpenMP reductions use signed loop indices; sizes in this project are far
// below 2^63 so the narrowing is safe.
std::int64_t ssize(const Vector& x) { return static_cast<std::int64_t>(x.size()); }

void require_same_size(std::span<const double> x, std::span<const double> y,
                       const char* what) {
  if (x.size() != y.size()) {
    throw std::invalid_argument(std::string("la::") + what +
                                ": span size mismatch");
  }
}

template <typename S>
void require_same_size_t(std::span<const S> x, std::span<const S> y,
                         const char* what) {
  if (x.size() != y.size()) {
    throw std::invalid_argument(std::string("la::") + what +
                                ": span size mismatch");
  }
}

// Sums run in one thread at or below this length.
constexpr std::int64_t kParallelMin = 4096;

// Sums keep one partial per thread in a fixed-size array, so their team is
// capped at this many threads.
constexpr int kMaxPartials = 64;

int sum_team() {
#ifdef _OPENMP
  return std::min(omp_get_max_threads(), kMaxPartials);
#else
  return 1;
#endif
}

int thread_id() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

// Sum of term(i) over [0, n).  An OpenMP reduction clause adds the
// per-thread partials in the order the threads arrive, so two calls on the
// same data could differ in the last bit.  Here each thread sums its static
// chunk in index order and the partials are added in thread order: the
// result depends only on the data and the team size, and a team of one is
// the plain serial loop.
template <typename S, typename Term>
S ordered_sum(std::int64_t n, Term term) {
  std::array<S, kMaxPartials> partial{};
#pragma omp parallel num_threads(sum_team()) if (n > kParallelMin)
  {
    S part = S(0);
#pragma omp for schedule(static) nowait
    for (std::int64_t i = 0; i < n; ++i) {
      part += term(i);
    }
    partial[static_cast<std::size_t>(thread_id())] = part;
  }
  S sum = S(0);
  for (const S p : partial) sum += p;
  return sum;
}

template <typename S>
S dot_t(std::span<const S> x, std::span<const S> y) {
  require_same_size_t<S>(x, y, "dot");
  const S* px = x.data();
  const S* py = y.data();
  return ordered_sum<S>(static_cast<std::int64_t>(x.size()),
                        [=](std::int64_t i) { return px[i] * py[i]; });
}

// The dot is summed exactly as in ordered_sum (same static chunks, same
// thread-order combination), so the coefficient is bitwise equal to dot_t's.
template <typename S>
S dot_axpy_impl_t(std::span<const S> x, std::span<S> y,
                  const std::function<void(S&)>* adjust) {
  require_same_size_t<S>(x, std::span<const S>(y), "dot_axpy");
  const auto n = static_cast<std::int64_t>(x.size());
  const S* px = x.data();
  S* py = y.data();
  std::array<S, kMaxPartials> partial{};
  S h = S(0);
#pragma omp parallel num_threads(sum_team()) if (n > kParallelMin) \
    default(shared)
  {
    S part = S(0);
#pragma omp for schedule(static) nowait
    for (std::int64_t i = 0; i < n; ++i) {
      part += px[i] * py[i];
    }
    partial[static_cast<std::size_t>(thread_id())] = part;
#pragma omp barrier
    // The hook point runs exactly once, between the dot and the
    // correction, and may mutate h.
#pragma omp single
    {
      for (const S p : partial) h += p;
      if (adjust != nullptr) (*adjust)(h);
    }
    // Private copy: h is shared in the outlined region, and a shared
    // variable read inside the loop defeats register allocation.
    const S hh = h;
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) {
      py[i] -= hh * px[i];
    }
  }
  return h;
}

} // namespace

double dot(std::span<const double> x, std::span<const double> y) {
  return dot_t<double>(x, y);
}

double nrm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  require_same_size(x, y, "axpy");
  const auto n = static_cast<std::int64_t>(x.size());
  const double* px = x.data();
  double* py = y.data();
#pragma omp parallel for schedule(static) if (n > 4096)
  for (std::int64_t i = 0; i < n; ++i) {
    py[i] += alpha * px[i];
  }
}

void scal(double alpha, std::span<double> x) {
  const auto n = static_cast<std::int64_t>(x.size());
  double* px = x.data();
#pragma omp parallel for schedule(static) if (n > 4096)
  for (std::int64_t i = 0; i < n; ++i) {
    px[i] *= alpha;
  }
}

void copy(std::span<const double> x, std::span<double> y) {
  require_same_size(x, y, "copy");
  const auto n = static_cast<std::int64_t>(x.size());
  const double* px = x.data();
  double* py = y.data();
#pragma omp parallel for schedule(static) if (n > 4096)
  for (std::int64_t i = 0; i < n; ++i) {
    py[i] = px[i];
  }
}

void waxpby(double alpha, std::span<const double> x, double beta,
            std::span<const double> y, std::span<double> w) {
  require_same_size(x, y, "waxpby");
  require_same_size(x, std::span<const double>(w), "waxpby");
  const auto n = static_cast<std::int64_t>(x.size());
  const double* px = x.data();
  const double* py = y.data();
  double* pw = w.data();
#pragma omp parallel for schedule(static) if (n > 4096)
  for (std::int64_t i = 0; i < n; ++i) {
    pw[i] = alpha * px[i] + beta * py[i];
  }
}

void hadamard(std::span<const double> x, std::span<const double> y,
              std::span<double> z) {
  require_same_size(x, y, "hadamard");
  require_same_size(x, std::span<const double>(z), "hadamard");
  const auto n = static_cast<std::int64_t>(x.size());
  const double* px = x.data();
  const double* py = y.data();
  double* pz = z.data();
#pragma omp parallel for schedule(static) if (n > 4096)
  for (std::int64_t i = 0; i < n; ++i) {
    pz[i] = px[i] * py[i];
  }
}

bool all_finite(std::span<const double> x) { return count_nonfinite(x) == 0; }

std::size_t count_nonfinite(std::span<const double> x) {
  std::int64_t bad = 0;
  const auto n = static_cast<std::int64_t>(x.size());
  const double* px = x.data();
#pragma omp parallel for reduction(+ : bad) schedule(static) if (n > 4096)
  for (std::int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(px[i])) ++bad;
  }
  return static_cast<std::size_t>(bad);
}

double dot_axpy(std::span<const double> x, std::span<double> y) {
  return dot_axpy_impl_t<double>(x, y, nullptr);
}

double dot_axpy(std::span<const double> x, std::span<double> y,
                const std::function<void(double&)>& adjust) {
  return dot_axpy_impl_t<double>(x, y, &adjust);
}

// --- Float kernels ----------------------------------------------------------
//
// Same loops, thresholds, and summation order as the double kernels above;
// the sums share the templates at the top of this file.

float dot(std::span<const float> x, std::span<const float> y) {
  return dot_t<float>(x, y);
}

float nrm2(std::span<const float> x) { return std::sqrt(dot(x, x)); }

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  require_same_size_t<float>(x, std::span<const float>(y), "axpy");
  const auto n = static_cast<std::int64_t>(x.size());
  const float* px = x.data();
  float* py = y.data();
#pragma omp parallel for schedule(static) if (n > 4096)
  for (std::int64_t i = 0; i < n; ++i) {
    py[i] += alpha * px[i];
  }
}

void scal(float alpha, std::span<float> x) {
  const auto n = static_cast<std::int64_t>(x.size());
  float* px = x.data();
#pragma omp parallel for schedule(static) if (n > 4096)
  for (std::int64_t i = 0; i < n; ++i) {
    px[i] *= alpha;
  }
}

void copy(std::span<const float> x, std::span<float> y) {
  require_same_size_t<float>(x, std::span<const float>(y), "copy");
  const auto n = static_cast<std::int64_t>(x.size());
  const float* px = x.data();
  float* py = y.data();
#pragma omp parallel for schedule(static) if (n > 4096)
  for (std::int64_t i = 0; i < n; ++i) {
    py[i] = px[i];
  }
}

void waxpby(float alpha, std::span<const float> x, float beta,
            std::span<const float> y, std::span<float> w) {
  require_same_size_t<float>(x, y, "waxpby");
  require_same_size_t<float>(x, std::span<const float>(w), "waxpby");
  const auto n = static_cast<std::int64_t>(x.size());
  const float* px = x.data();
  const float* py = y.data();
  float* pw = w.data();
#pragma omp parallel for schedule(static) if (n > 4096)
  for (std::int64_t i = 0; i < n; ++i) {
    pw[i] = alpha * px[i] + beta * py[i];
  }
}

bool all_finite(std::span<const float> x) { return count_nonfinite(x) == 0; }

std::size_t count_nonfinite(std::span<const float> x) {
  std::int64_t bad = 0;
  const auto n = static_cast<std::int64_t>(x.size());
  const float* px = x.data();
#pragma omp parallel for reduction(+ : bad) schedule(static) if (n > 4096)
  for (std::int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(px[i])) ++bad;
  }
  return static_cast<std::size_t>(bad);
}

float dot_axpy(std::span<const float> x, std::span<float> y) {
  return dot_axpy_impl_t<float>(x, y, nullptr);
}

float dot_axpy(std::span<const float> x, std::span<float> y,
               const std::function<void(float&)>& adjust) {
  return dot_axpy_impl_t<float>(x, y, &adjust);
}

double dot(const Vector& x, const Vector& y) {
  require_same_size(x, y, "dot");
  return dot(std::span<const double>(x.span()),
             std::span<const double>(y.span()));
}

double nrm2(const Vector& x) { return std::sqrt(dot(x, x)); }

double nrm1(const Vector& x) {
  const double* px = x.data();
  return ordered_sum<double>(ssize(x),
                             [=](std::int64_t i) { return std::abs(px[i]); });
}

double nrminf(const Vector& x) {
  double best = 0.0;
  const std::int64_t n = ssize(x);
#pragma omp parallel for reduction(max : best) schedule(static) if (n > 4096)
  for (std::int64_t i = 0; i < n; ++i) {
    const double a = std::abs(x[static_cast<std::size_t>(i)]);
    if (a > best) best = a;
  }
  return best;
}

// The element-wise Vector overloads check (or size) their operands and
// forward to the span kernels above, so both forms are one loop.

void axpy(double alpha, const Vector& x, Vector& y) {
  require_same_size(x, y, "axpy");
  axpy(alpha, x.span(), y.span());
}

void waxpby(double alpha, const Vector& x, double beta, const Vector& y,
            Vector& w) {
  require_same_size(x, y, "waxpby");
  if (w.size() != x.size()) w.resize(x.size());
  waxpby(alpha, x.span(), beta, y.span(), w.span());
}

void scal(double alpha, Vector& x) { scal(alpha, x.span()); }

void copy(const Vector& x, Vector& y) {
  if (y.size() != x.size()) y.resize(x.size());
  copy(x.span(), y.span());
}

void hadamard(const Vector& x, const Vector& y, Vector& z) {
  require_same_size(x, y, "hadamard");
  if (z.size() != x.size()) z.resize(x.size());
  hadamard(x.span(), y.span(), z.span());
}

bool all_finite(const Vector& x) { return count_nonfinite(x.span()) == 0; }

std::size_t count_nonfinite(const Vector& x) {
  return count_nonfinite(std::span<const double>(x.span()));
}

} // namespace sdcgmres::la
