#pragma once
/// \file trace.hpp
/// \brief Outside-in tracing: spans recorded around calls into the
/// library's public seams, kept in memory and written when the run ends.
///
/// Nothing here changes library code.  Three wrappers reach inside:
///
///   * TimingBackend -- a krylov::MatrixBackend decorator whose
///     make_operator() returns a TimingOperator, so every SpMV/SpMM a
///     sweep or solve issues becomes a `krylov.apply` span.  It reaches
///     into run_injection_sweep through SweepConfig::backend.  The
///     mixed-precision plane narrows only concrete CSR/SELL operators, so
///     it cannot run behind this decorator (its SpMVs stay untraced).
///   * TimingHook -- an ArnoldiHook forwarder chained around the sdc fault
///     campaign and detector on façade solves: matvec, orthogonalization,
///     s-step block commit and inner-solve spans, plus the time spent in
///     the sdc hooks themselves.
///   * Direct spans around build_problem, backend assembly, ||A||_F,
///     sweeps, sites and solves, and one span per service job with its
///     submit / queue-wait / run phases (in the workloads).

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "krylov/backend.hpp"
#include "krylov/hooks.hpp"
#include "krylov/operator.hpp"

namespace sdcbench {

/// One recorded span: [start, end] in seconds since the tracer's origin.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::size_t parent = 0; ///< index + 1 of the causing span; 0 = root
};

/// In-memory span store.  Thread-safe: SpMV spans arrive from every sweep
/// worker.  Spans that have no natural caller on the recording thread
/// (operator calls inside library-owned threads) take context() as their
/// parent.
class Tracer {
public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] double now() const {
    return seconds_between(origin_, Clock::now());
  }

  /// Record a finished span; returns its id (for children).
  std::size_t record(const char* name, double start, double end,
                     std::size_t parent) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, end, parent});
    return spans_.size();
  }

  /// Open a span now (end < 0 until closed).  Returns its id.
  std::size_t open(const char* name, std::size_t parent) {
    return record(name, now(), -1.0, parent);
  }
  void close(std::size_t id) { close_at(id, now()); }
  void close_at(std::size_t id, double end) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(id - 1).end = end;
  }

  void set_context(std::size_t id) { context_.store(id); }
  [[nodiscard]] std::size_t context() const { return context_.load(); }

  static constexpr std::size_t kAnyParent = static_cast<std::size_t>(-1);

  /// Sum of durations / number of closed spans named \p name (under
  /// \p parent, or anywhere).
  [[nodiscard]] double total(const std::string& name,
                             std::size_t parent = kAnyParent) const;
  [[nodiscard]] std::size_t count(const std::string& name,
                                  std::size_t parent = kAnyParent) const;

  /// Write every span as one JSON document to \p path.
  void write(const std::string& path) const;

private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic<std::size_t> context_{0};
};

/// Final operator traffic of every operator a TimingBackend made, by
/// creation order (a sweep makes its baseline operator first, then one
/// per worker).
struct OperatorLedger {
  std::mutex mutex;
  std::vector<sdcgmres::krylov::OperatorStats> by_creation;
};

/// Forwards y = A*x to a wrapped operator and records each call as a
/// `krylov.apply` span.  The wrapped operator keeps the authoritative
/// traffic counters; they are published to the ledger on destruction.
class TimingOperator final : public sdcgmres::krylov::LinearOperator {
public:
  TimingOperator(std::unique_ptr<sdcgmres::krylov::LinearOperator> inner,
                 Tracer* tracer, std::shared_ptr<OperatorLedger> ledger,
                 std::size_t slot)
      : inner_(std::move(inner)), tracer_(tracer), ledger_(std::move(ledger)),
        slot_(slot) {}
  ~TimingOperator() override;
  TimingOperator(const TimingOperator&) = delete;
  TimingOperator& operator=(const TimingOperator&) = delete;

  [[nodiscard]] std::size_t rows() const override { return inner_->rows(); }
  [[nodiscard]] std::size_t cols() const override { return inner_->cols(); }
  [[nodiscard]] const sdcgmres::krylov::LinearOperator& inner() const {
    return *inner_;
  }

protected:
  void do_apply(std::span<const double> x,
                std::span<double> y) const override;
  void do_apply_block(const sdcgmres::la::BasisView& x,
                      sdcgmres::la::BlockView y) const override;

private:
  std::unique_ptr<sdcgmres::krylov::LinearOperator> inner_;
  Tracer* tracer_;
  std::shared_ptr<OperatorLedger> ledger_;
  std::size_t slot_;
};

/// MatrixBackend decorator handing out TimingOperators.
class TimingBackend final : public sdcgmres::krylov::MatrixBackend {
public:
  TimingBackend(std::shared_ptr<const sdcgmres::krylov::MatrixBackend> inner,
                Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer),
        ledger_(std::make_shared<OperatorLedger>()) {}

  [[nodiscard]] const std::string& name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] const std::string& decision() const noexcept override {
    return inner_->decision();
  }
  [[nodiscard]] std::size_t resident_bytes() const noexcept override {
    return inner_->resident_bytes();
  }
  [[nodiscard]] std::unique_ptr<sdcgmres::krylov::LinearOperator>
  make_operator(const sdcgmres::sparse::CsrMatrix& A) const override;

  [[nodiscard]] OperatorLedger& ledger() const { return *ledger_; }

private:
  std::shared_ptr<const sdcgmres::krylov::MatrixBackend> inner_;
  Tracer* tracer_;
  std::shared_ptr<OperatorLedger> ledger_;
};

/// ArnoldiHook forwarder timing the inner Arnoldi steps of one façade
/// solve (hook events fire on the inner solves only).  Spans:
///   krylov.inner_solve   on_solve_begin .. the solve's last hook event
///   krylov.matvec        on_iteration_begin .. on_matvec_result
///   krylov.ortho         on_matvec_result .. on_subdiagonal (one-vector
///                        path only)
///   krylov.block_commit  last staged power .. first projection
///                        coefficient of the block (s-step path)
/// and the summed time of the forwarded sdc hook calls (sdc_seconds()).
class TimingHook final : public sdcgmres::krylov::ArnoldiHook {
public:
  /// \p sdc may be null (failure-free solve).  Spans take \p parent.
  TimingHook(Tracer* tracer, sdcgmres::krylov::ArnoldiHook* sdc,
             std::size_t parent)
      : tracer_(tracer), sdc_(sdc), parent_(parent) {}

  void on_solve_begin(std::size_t solve_index) override;
  void on_iteration_begin(const sdcgmres::krylov::ArnoldiContext& ctx) override;
  void on_matvec_result(const sdcgmres::krylov::ArnoldiContext& ctx,
                        std::span<double> v) override;
  void on_power_computed(const sdcgmres::krylov::ArnoldiContext& ctx,
                         std::size_t power_index, std::size_t block_size,
                         std::span<double> power) override;
  void on_projection_coefficient(const sdcgmres::krylov::ArnoldiContext& ctx,
                                 std::size_t i, std::size_t mgs_steps,
                                 double& h) override;
  void on_subdiagonal(const sdcgmres::krylov::ArnoldiContext& ctx,
                      double& h) override;
  void on_iteration_end(const sdcgmres::krylov::ArnoldiContext& ctx,
                        const sdcgmres::krylov::ArnoldiIterationView& view)
      override;
  [[nodiscard]] bool abort_requested() const override {
    return sdc_ != nullptr && sdc_->abort_requested();
  }

  /// Close the open inner-solve span (call after the solve returns).
  void finish();

  [[nodiscard]] double sdc_seconds() const { return sdc_seconds_; }

private:
  /// Time one forwarded sdc call.
  template <typename F> void forward(F&& call);

  Tracer* tracer_;
  sdcgmres::krylov::ArnoldiHook* sdc_;
  std::size_t parent_;
  std::size_t inner_span_ = 0;
  double last_event_ = 0.0;
  double iter_begin_ = -1.0;
  double matvec_done_ = -1.0; ///< pending one-vector orthogonalization
  double powers_done_ = -1.0; ///< pending s-step block commit
  double sdc_seconds_ = 0.0;
};

} // namespace sdcbench
