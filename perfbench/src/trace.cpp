#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace sdcbench {

namespace krylov = sdcgmres::krylov;

double Tracer::total(const std::string& name, std::size_t parent) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.end >= 0.0 && s.name == name &&
        (parent == kAnyParent || s.parent == parent)) {
      sum += s.end - s.start;
    }
  }
  return sum;
}

std::size_t Tracer::count(const std::string& name, std::size_t parent) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (s.end >= 0.0 && s.name == name &&
        (parent == kAnyParent || s.parent == parent)) {
      ++n;
    }
  }
  return n;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"spans\": [\n";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i + 1 << ", \"name\": \"" << s.name << "\"";
    std::snprintf(buf, sizeof(buf), ", \"start\": %.9f, \"end\": %.9f",
                  s.start, s.end);
    out << buf << ", \"parent\": " << s.parent << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

TimingOperator::~TimingOperator() {
  std::lock_guard<std::mutex> lock(ledger_->mutex);
  if (ledger_->by_creation.size() <= slot_) {
    ledger_->by_creation.resize(slot_ + 1);
  }
  ledger_->by_creation[slot_] = inner_->stats();
}

void TimingOperator::do_apply(std::span<const double> x,
                              std::span<double> y) const {
  const double t0 = tracer_->now();
  inner_->apply(x, y);
  tracer_->record("krylov.apply", t0, tracer_->now(), tracer_->context());
}

void TimingOperator::do_apply_block(const sdcgmres::la::BasisView& x,
                                    sdcgmres::la::BlockView y) const {
  const double t0 = tracer_->now();
  inner_->apply_block(x, y);
  tracer_->record("krylov.apply", t0, tracer_->now(), tracer_->context());
}

std::unique_ptr<krylov::LinearOperator>
TimingBackend::make_operator(const sdcgmres::sparse::CsrMatrix& A) const {
  std::size_t slot = 0;
  {
    std::lock_guard<std::mutex> lock(ledger_->mutex);
    slot = ledger_->by_creation.size();
    ledger_->by_creation.emplace_back();
  }
  return std::make_unique<TimingOperator>(inner_->make_operator(A), tracer_,
                                          ledger_, slot);
}

template <typename F> void TimingHook::forward(F&& call) {
  if (sdc_ == nullptr) return;
  const auto t0 = Clock::now();
  call(*sdc_);
  sdc_seconds_ += seconds_between(t0, Clock::now());
}

void TimingHook::on_solve_begin(std::size_t solve_index) {
  finish();
  inner_span_ = tracer_->open("krylov.inner_solve", parent_);
  forward([&](krylov::ArnoldiHook& h) { h.on_solve_begin(solve_index); });
  last_event_ = tracer_->now();
}

void TimingHook::on_iteration_begin(const krylov::ArnoldiContext& ctx) {
  forward([&](krylov::ArnoldiHook& h) { h.on_iteration_begin(ctx); });
  iter_begin_ = last_event_ = tracer_->now();
}

void TimingHook::on_matvec_result(const krylov::ArnoldiContext& ctx,
                                  std::span<double> v) {
  const double t = tracer_->now();
  if (iter_begin_ >= 0.0) {
    tracer_->record("krylov.matvec", iter_begin_, t, inner_span_);
  }
  iter_begin_ = -1.0;
  forward([&](krylov::ArnoldiHook& h) { h.on_matvec_result(ctx, v); });
  matvec_done_ = last_event_ = tracer_->now();
}

void TimingHook::on_power_computed(const krylov::ArnoldiContext& ctx,
                                   std::size_t power_index,
                                   std::size_t block_size,
                                   std::span<double> power) {
  matvec_done_ = -1.0; // s-step: the projection happens at block commit
  forward([&](krylov::ArnoldiHook& h) {
    h.on_power_computed(ctx, power_index, block_size, power);
  });
  last_event_ = tracer_->now();
  if (power_index + 1 == block_size) powers_done_ = last_event_;
}

void TimingHook::on_projection_coefficient(const krylov::ArnoldiContext& ctx,
                                           std::size_t i,
                                           std::size_t mgs_steps, double& h) {
  if (powers_done_ >= 0.0) {
    tracer_->record("krylov.block_commit", powers_done_, tracer_->now(),
                    inner_span_);
    powers_done_ = -1.0;
  }
  forward([&](krylov::ArnoldiHook& hk) {
    hk.on_projection_coefficient(ctx, i, mgs_steps, h);
  });
  if (sdc_ != nullptr) last_event_ = tracer_->now();
}

void TimingHook::on_subdiagonal(const krylov::ArnoldiContext& ctx, double& h) {
  const double t = tracer_->now();
  if (matvec_done_ >= 0.0) {
    tracer_->record("krylov.ortho", matvec_done_, t, inner_span_);
    matvec_done_ = -1.0;
  }
  forward([&](krylov::ArnoldiHook& hk) { hk.on_subdiagonal(ctx, h); });
  last_event_ = tracer_->now();
}

void TimingHook::on_iteration_end(const krylov::ArnoldiContext& ctx,
                                  const krylov::ArnoldiIterationView& view) {
  forward([&](krylov::ArnoldiHook& h) { h.on_iteration_end(ctx, view); });
  last_event_ = tracer_->now();
}

void TimingHook::finish() {
  if (inner_span_ == 0) return;
  tracer_->close_at(inner_span_, last_event_);
  inner_span_ = 0;
  iter_begin_ = matvec_done_ = powers_done_ = -1.0;
}

} // namespace sdcbench
