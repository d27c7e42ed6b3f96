#include "la/blas1.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

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

template <typename S>
void require_same_size_t(std::span<const S> x, std::span<const S> y,
                         const char* what) {
  if (x.size() != y.size()) {
    throw std::invalid_argument(std::string("la::") + what +
                                ": span size mismatch");
  }
}

// --- The summation order ---------------------------------------------------
//
// Every length-n reduction in this file (dot, dot_columns -- the core of
// gemv_t --, nrm2, nrm1, dot_axpy) adds its terms in the one order
// documented at la::dot: kBlock-entry blocks, kLanes interleaved
// lanes per block combined in a fixed tree, block partials added in block
// order.  The lanes are independent accumulator chains, so the compiler
// vectorizes the block loop without any reassociation flag.

constexpr std::int64_t kBlock = 4096;
constexpr std::int64_t kLanes = 8;

std::int64_t block_count(std::int64_t n) { return (n + kBlock - 1) / kBlock; }

// Sum of term(i) over block b of [0, n), in lane order.
template <typename S, typename Term>
S block_sum(std::int64_t b, std::int64_t n, Term term) {
  std::int64_t i = b * kBlock;
  const std::int64_t end = std::min(n, i + kBlock);
  S lane[kLanes] = {};
  for (; i + kLanes <= end; i += kLanes) {
    for (std::int64_t l = 0; l < kLanes; ++l) lane[l] += term(i + l);
  }
  for (std::int64_t l = 0; i < end; ++i, ++l) lane[l] += term(i);
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

// True when a reduction over \p work terms runs on the calling thread and
// enters no OpenMP region: at most one block of work, or a team of one
// (sweep workers pin their kernels to one thread, and a one-thread region
// still costs a fork, a barrier and a join per call).
bool runs_serial(std::int64_t work) {
#ifdef _OPENMP
  return work <= kBlock || omp_get_max_threads() == 1;
#else
  (void)work;
  return true;
#endif
}

// block(b) for every block of [0, n), folded into S(0) by combine in block
// order.  With several threads each thread owns whole blocks and writes one
// partial per block, so the fold sees the same values either way.
template <typename S, typename Block, typename Combine>
S fold_blocks(std::int64_t n, Block block, Combine combine) {
  const std::int64_t nblocks = block_count(n);
  S acc = S(0);
  if (runs_serial(n)) {
    for (std::int64_t b = 0; b < nblocks; ++b) acc = combine(acc, block(b));
    return acc;
  }
  std::vector<S> partial(static_cast<std::size_t>(nblocks));
#pragma omp parallel for schedule(static)
  for (std::int64_t b = 0; b < nblocks; ++b) {
    partial[static_cast<std::size_t>(b)] = block(b);
  }
  for (const S p : partial) acc = combine(acc, p);
  return acc;
}

// Sum of term(i) over [0, n) in the order above.
template <typename S, typename Term>
S ordered_sum(std::int64_t n, Term term) {
  return fold_blocks<S>(
      n, [&](std::int64_t b) { return block_sum<S>(b, n, term); },
      std::plus<S>());
}

template <typename S>
S dot_t(std::span<const S> x, std::span<const S> y) {
  require_same_size_t<S>(x, y, "dot");
  const S* px = x.data();
  const S* py = y.data();
  return ordered_sum<S>(static_cast<std::int64_t>(x.size()),
                        [=](std::int64_t i) { return px[i] * py[i]; });
}

// out[j] = x . column j for the rows x cols column-major block b.  Each
// column's block partials are the ones ordered_sum computes, added in block
// order, so out[j] is bitwise dot_t's.  Blocks are the outer loop: a block
// of x stays in cache while every column streams past it, and with several
// threads each thread owns whole (block, column) partials.
template <typename S>
void dot_columns_t(std::int64_t rows, std::int64_t cols, const S* b,
                   std::int64_t ld, const S* x, S* out) {
  const auto column_block = [=](std::int64_t blk, std::int64_t j) {
    const S* c = b + j * ld;
    return block_sum<S>(blk, rows,
                        [=](std::int64_t i) { return x[i] * c[i]; });
  };
  const std::int64_t tasks = block_count(rows) * cols;
  std::fill(out, out + cols, S(0));
  if (runs_serial(rows * cols)) {
    for (std::int64_t t = 0; t < tasks; ++t) {
      out[t % cols] += column_block(t / cols, t % cols);
    }
    return;
  }
  std::vector<S> partial(static_cast<std::size_t>(tasks));
#pragma omp parallel for schedule(static)
  for (std::int64_t t = 0; t < tasks; ++t) {
    partial[static_cast<std::size_t>(t)] = column_block(t / cols, t % cols);
  }
  for (std::int64_t t = 0; t < tasks; ++t) {
    out[t % cols] += partial[static_cast<std::size_t>(t)];
  }
}

// The dot is summed exactly as in ordered_sum, so the coefficient is
// bitwise equal to dot_t's at any team size.
template <typename S>
S dot_axpy_impl_t(std::span<const S> x, std::span<S> y,
                  const std::function<void(S&)>* adjust) {
  require_same_size_t<S>(x, std::span<const S>(y), "dot_axpy");
  const auto n = static_cast<std::int64_t>(x.size());
  const S* px = x.data();
  S* py = y.data();
  const auto term = [=](std::int64_t i) { return px[i] * py[i]; };
  if (runs_serial(n)) {
    S h = ordered_sum<S>(n, term);
    if (adjust != nullptr) (*adjust)(h);
    for (std::int64_t i = 0; i < n; ++i) py[i] -= h * px[i];
    return h;
  }
  const std::int64_t nblocks = block_count(n);
  std::vector<S> partial(static_cast<std::size_t>(nblocks));
  S h = S(0);
#pragma omp parallel default(shared)
  {
#pragma omp for schedule(static)
    for (std::int64_t b = 0; b < nblocks; ++b) {
      partial[static_cast<std::size_t>(b)] = block_sum<S>(b, n, term);
    }
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

// --- Element-wise kernels ---------------------------------------------------
//
// Each entry is written once from its own operands, so no split of [0, n)
// changes a bit; the threads only share runs_serial's rule for when a
// parallel region is worth entering.

// body(i) for every i in [0, n).
template <typename Body>
void for_each_index(std::int64_t n, Body body) {
  if (runs_serial(n)) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
    return;
  }
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) body(i);
}

template <typename S>
void axpy_t(S alpha, std::span<const S> x, std::span<S> y) {
  require_same_size_t<S>(x, std::span<const S>(y), "axpy");
  const S* px = x.data();
  S* py = y.data();
  for_each_index(static_cast<std::int64_t>(x.size()),
                 [=](std::int64_t i) { py[i] += alpha * px[i]; });
}

template <typename S>
void scal_t(S alpha, std::span<S> x) {
  S* px = x.data();
  for_each_index(static_cast<std::int64_t>(x.size()),
                 [=](std::int64_t i) { px[i] *= alpha; });
}

template <typename S>
void copy_t(std::span<const S> x, std::span<S> y) {
  require_same_size_t<S>(x, std::span<const S>(y), "copy");
  const S* px = x.data();
  S* py = y.data();
  for_each_index(static_cast<std::int64_t>(x.size()),
                 [=](std::int64_t i) { py[i] = px[i]; });
}

template <typename S>
void waxpby_t(S alpha, std::span<const S> x, S beta, std::span<const S> y,
              std::span<S> w) {
  require_same_size_t<S>(x, y, "waxpby");
  require_same_size_t<S>(x, std::span<const S>(w), "waxpby");
  const S* px = x.data();
  const S* py = y.data();
  S* pw = w.data();
  for_each_index(static_cast<std::int64_t>(x.size()), [=](std::int64_t i) {
    pw[i] = alpha * px[i] + beta * py[i];
  });
}

// An integer count is exact in any order; it shares the sums' blocks.
template <typename S>
std::size_t count_nonfinite_t(std::span<const S> x) {
  const S* px = x.data();
  return static_cast<std::size_t>(ordered_sum<std::int64_t>(
      static_cast<std::int64_t>(x.size()),
      [=](std::int64_t i) { return std::int64_t{!std::isfinite(px[i])}; }));
}

} // namespace

double dot(std::span<const double> x, std::span<const double> y) {
  return dot_t<double>(x, y);
}

void dot_columns(std::size_t rows, std::size_t cols, const double* b,
                 std::size_t ld, const double* x, double* out) {
  dot_columns_t<double>(static_cast<std::int64_t>(rows),
                        static_cast<std::int64_t>(cols), b,
                        static_cast<std::int64_t>(ld), x, out);
}

double nrm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  axpy_t<double>(alpha, x, y);
}

void scal(double alpha, std::span<double> x) { scal_t<double>(alpha, x); }

void copy(std::span<const double> x, std::span<double> y) {
  copy_t<double>(x, y);
}

void waxpby(double alpha, std::span<const double> x, double beta,
            std::span<const double> y, std::span<double> w) {
  waxpby_t<double>(alpha, x, beta, y, w);
}

void hadamard(std::span<const double> x, std::span<const double> y,
              std::span<double> z) {
  require_same_size_t<double>(x, y, "hadamard");
  require_same_size_t<double>(x, std::span<const double>(z), "hadamard");
  const double* px = x.data();
  const double* py = y.data();
  double* pz = z.data();
  for_each_index(static_cast<std::int64_t>(x.size()),
                 [=](std::int64_t i) { pz[i] = px[i] * py[i]; });
}

bool all_finite(std::span<const double> x) { return count_nonfinite(x) == 0; }

std::size_t count_nonfinite(std::span<const double> x) {
  return count_nonfinite_t<double>(x);
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
// The same templates as the double kernels above.

float dot(std::span<const float> x, std::span<const float> y) {
  return dot_t<float>(x, y);
}

void dot_columns(std::size_t rows, std::size_t cols, const float* b,
                 std::size_t ld, const float* x, float* out) {
  dot_columns_t<float>(static_cast<std::int64_t>(rows),
                       static_cast<std::int64_t>(cols), b,
                       static_cast<std::int64_t>(ld), x, out);
}

float nrm2(std::span<const float> x) { return std::sqrt(dot(x, x)); }

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  axpy_t<float>(alpha, x, y);
}

void scal(float alpha, std::span<float> x) { scal_t<float>(alpha, x); }

void copy(std::span<const float> x, std::span<float> y) {
  copy_t<float>(x, y);
}

void waxpby(float alpha, std::span<const float> x, float beta,
            std::span<const float> y, std::span<float> w) {
  waxpby_t<float>(alpha, x, beta, y, w);
}

bool all_finite(std::span<const float> x) { return count_nonfinite(x) == 0; }

std::size_t count_nonfinite(std::span<const float> x) {
  return count_nonfinite_t<float>(x);
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

double nrminf(std::span<const double> x) {
  const auto n = static_cast<std::int64_t>(x.size());
  const double* px = x.data();
  // A maximum is exact in any order; the blocks only share the partition
  // and the serial path with the sums.
  return fold_blocks<double>(
      n,
      [=](std::int64_t b) {
        double best = 0.0;
        const std::int64_t end = std::min(n, (b + 1) * kBlock);
        for (std::int64_t i = b * kBlock; i < end; ++i) {
          best = std::max(best, std::abs(px[i]));
        }
        return best;
      },
      [](double a, double b) { return std::max(a, b); });
}

double nrminf(const Vector& x) {
  return nrminf(std::span<const double>(x.span()));
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
