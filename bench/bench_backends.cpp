/// \file bench_backends.cpp
/// \brief SpMV/SpMM throughput of the pluggable execution backends
/// (sparse/sell.hpp vs the CSR baseline), the measurement behind the
/// `backend=` autotuner's assumptions.
///
/// For each matrix and each format the harness times repeated y = A*x
/// (spmv) and 4-column Y = A*X (spmm) applications and reports effective
/// bandwidth in GB/s -- bytes counted at the format's TRUE stored widths,
/// i.e. SELL padding slots are paid for, exactly as OperatorStats
/// accounts them -- plus the wall-clock speedup over CSR.  `--json PATH`
/// dumps the table machine-readably to a caller-given path.  The padding
/// ratios are deterministic and pinned as exact stored() counts in
/// Sell.PaddingCountsArePinnedOnTheModelMatrices (tests/sparse_sell_test).
///
/// SDCGMRES_FULL=1 runs the paper-scale matrices; the default sizes keep
/// the whole sweep under a minute.

#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gen/convection_diffusion.hpp"
#include "la/block.hpp"
#include "la/krylov_basis.hpp"
#include "solver/registry.hpp"
#include "sparse/sell.hpp"

using namespace sdcgmres;

namespace {

constexpr std::size_t kSpmmCols = 4;

struct Measurement {
  std::string format;   // "csr", "sell:8:1", ...
  double spmv_ms = 0.0; // per apply
  double spmm_ms = 0.0; // per 4-column apply
  double spmv_gbs = 0.0;
  double spmm_gbs = 0.0;
  double spmv_speedup = 1.0; // vs csr wall-clock
  double spmm_speedup = 1.0;
  double padding = 1.0; // stored()/nnz() overhead factor
};

/// Bytes one y = A*X application moves at the format's stored widths
/// (values + indices + the dense operands), the OperatorStats convention.
std::size_t csr_apply_bytes(const sparse::CsrMatrix& A, std::size_t columns) {
  return sizeof(double) * (A.nnz() + columns * (A.rows() + A.cols())) +
         sizeof(std::size_t) * (A.nnz() + A.rows() + 1);
}

std::size_t sell_apply_bytes(const sparse::SellMatrix& S,
                             std::size_t columns) {
  return sizeof(double) * (S.stored() + columns * (S.rows() + S.cols())) +
         sizeof(std::size_t) * S.index_slots();
}

/// Min-of-3 timing of \p body() run \p repeats times (milliseconds
/// per single invocation).
template <typename F>
double time_ms(F&& body, int repeats) {
  double best = 0.0;
  for (int round = 0; round < 3; ++round) {
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) body();
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count() /
        repeats;
    best = round == 0 ? ms : std::min(best, ms);
  }
  return best;
}

Measurement measure(const std::string& format, const sparse::CsrMatrix& A,
                    int repeats) {
  Measurement m;
  m.format = format;
  la::Vector x(A.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 + 0.001 * static_cast<double>(i % 97);
  }
  la::Vector y(A.rows());
  std::vector<double> xbuf(A.cols() * kSpmmCols);
  for (std::size_t c = 0; c < kSpmmCols; ++c) {
    for (std::size_t i = 0; i < A.cols(); ++i) {
      xbuf[c * A.cols() + i] = x[i] + static_cast<double>(c);
    }
  }
  const la::BasisView X(xbuf.data(), A.cols(), kSpmmCols, A.cols());
  std::vector<double> ybuf(A.rows() * kSpmmCols);
  la::BlockView Y(ybuf.data(), A.rows(), kSpmmCols, A.rows());

  std::size_t spmv_bytes = 0;
  std::size_t spmm_bytes = 0;
  if (format == "csr") {
    spmv_bytes = csr_apply_bytes(A, 1);
    spmm_bytes = csr_apply_bytes(A, kSpmmCols);
    m.spmv_ms = time_ms([&] { A.spmv(x, y); }, repeats);
    m.spmm_ms = time_ms(
        [&] {
          A.spmm(kSpmmCols, xbuf.data(), A.cols(), ybuf.data(), A.rows());
        },
        repeats);
  } else {
    const auto backend = solver::backend_registry().make(format, A);
    const auto* sell = dynamic_cast<const krylov::SellBackend*>(backend.get());
    if (sell == nullptr) {
      std::cerr << "format " << format << " is not SELL-backed\n";
      std::exit(1);
    }
    const sparse::SellMatrix& S = sell->matrix();
    m.padding = S.padding_ratio();
    spmv_bytes = sell_apply_bytes(S, 1);
    spmm_bytes = sell_apply_bytes(S, kSpmmCols);
    m.spmv_ms = time_ms([&] { S.spmv(x.span(), y.span()); }, repeats);
    m.spmm_ms = time_ms([&] { S.spmm(X, Y); }, repeats);
  }
  const double giga = 1024.0 * 1024.0 * 1024.0;
  m.spmv_gbs = static_cast<double>(spmv_bytes) / (m.spmv_ms * 1e-3) / giga;
  m.spmm_gbs = static_cast<double>(spmm_bytes) / (m.spmm_ms * 1e-3) / giga;
  return m;
}

void run_matrix(const char* name, const sparse::CsrMatrix& A, int repeats,
                std::ostringstream& json, bool* first_matrix) {
  const std::vector<std::string> formats = {"csr", "sell:4:1", "sell:8:1",
                                            "sell:8:4", "sell:32:1"};
  std::cout << "\n" << name << ": " << A.rows() << " rows, " << A.nnz()
            << " nnz\n";
  std::cout << "  format      spmv ms   spmv GB/s  speedup   spmm ms   "
               "spmm GB/s  speedup  padding\n";
  std::vector<Measurement> rows;
  for (const auto& format : formats) {
    rows.push_back(measure(format, A, repeats));
  }
  const Measurement& csr = rows.front();
  for (Measurement& m : rows) {
    m.spmv_speedup = csr.spmv_ms / m.spmv_ms;
    m.spmm_speedup = csr.spmm_ms / m.spmm_ms;
    std::cout << "  " << std::left << std::setw(10) << m.format << std::right
              << std::fixed << std::setprecision(4) << std::setw(9)
              << m.spmv_ms << std::setprecision(2) << std::setw(11)
              << m.spmv_gbs << std::setw(9) << m.spmv_speedup
              << std::setprecision(4) << std::setw(10) << m.spmm_ms
              << std::setprecision(2) << std::setw(11) << m.spmm_gbs
              << std::setw(9) << m.spmm_speedup << std::setw(9)
              << std::setprecision(3) << m.padding << "\n";
  }

  if (!*first_matrix) json << ",\n";
  *first_matrix = false;
  json << "    {\n      \"matrix\": \"" << name << "\",\n      \"rows\": "
       << A.rows() << ",\n      \"nnz\": " << A.nnz()
       << ",\n      \"formats\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Measurement& m = rows[i];
    json << "        {\"format\": \"" << m.format << "\", \"spmv_ms\": "
         << std::setprecision(6) << m.spmv_ms << ", \"spmv_gbs\": "
         << m.spmv_gbs << ", \"spmv_speedup_vs_csr\": " << m.spmv_speedup
         << ", \"spmm_ms\": " << m.spmm_ms << ", \"spmm_gbs\": "
         << m.spmm_gbs << ", \"spmm_speedup_vs_csr\": " << m.spmm_speedup
         << ", \"padding_ratio\": " << m.padding << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "      ]\n    }";
}

} // namespace

int main(int argc, char** argv) {
  const auto cli = benchcfg::parse_cli(argc, argv, {"repeats"});
  const bool full = benchcfg::full_scale();
  const int repeats = static_cast<int>(
      cli.spec.get_size("repeats", full ? 50 : 200));
  std::cout << "bench_backends: SpMV/SpMM throughput per execution backend ("
            << (full ? "full" : "default") << " scale, " << repeats
            << " repeats; serial kernels below the OpenMP row threshold "
               "run 1-core)\n";

  std::ostringstream json;
  json << std::fixed;
  bool first = true;
  run_matrix("poisson2d", benchcfg::poisson_matrix(), repeats, json, &first);
  run_matrix("convdiff2d",
             gen::convection_diffusion2d(full ? 100 : 40, 1.5, -0.75),
             repeats, json, &first);
  run_matrix("circuit", benchcfg::circuit_matrix(), repeats, json, &first);

  if (!cli.json.empty()) {
    std::ofstream out(cli.json);
    if (!out) {
      std::cerr << "cannot open " << cli.json << " for writing\n";
      return 1;
    }
    out << "{\n  \"bench\": \"backends\",\n  \"caveat\": \"min-of-3 "
           "timings, no spread; the default matrices sit below the SpMV "
           "kernels' OpenMP row threshold, so figures reflect serial "
           "memory bandwidth, not parallel scaling\",\n"
           "  \"spmm_cols\": "
        << kSpmmCols << ",\n  \"full_scale\": " << (full ? "true" : "false")
        << ",\n  \"matrices\": [\n"
        << json.str() << "\n  ]\n}\n";
    std::cout << "\nwrote " << cli.json << "\n";
  }
  return 0;
}
