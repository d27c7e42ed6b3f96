#pragma once
/// \file scenario_spec.hpp
/// \brief Key=value scenario descriptions, the one text format every
/// front end shares.
///
/// A scenario -- {solver, preconditioner, matrix, fault model, injection
/// position, detector, sweep parameters} -- is described as
/// whitespace-separated `key=value` tokens:
///
///   solver=ft_gmres matrix=poisson n=40 inner=25 fault=class1
///   position=first detector=bound recovery=abort sweep=1 threads=2
///
/// The same parser backs the `sdc_run` example CLI, the spec-driven
/// `experiment::run_injection_sweep` overload, and the shared bench flag
/// handling (bench/bench_common.hpp), so a scenario string is portable
/// between all of them.  Values may contain ':' (registry inline
/// arguments such as `matrix=mtx:/path/to.mtx` or `fault=scale:1e150`).

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sdcgmres::experiment {

/// An ordered key=value map with typed accessors.  Later assignments of
/// the same key override earlier ones (so specs compose left to right:
/// defaults first, overrides appended).
class ScenarioSpec {
public:
  ScenarioSpec() = default;

  /// Parse whitespace-separated `key=value` tokens.  Throws
  /// std::invalid_argument on a token without '=' or with an empty key.
  [[nodiscard]] static ScenarioSpec parse(std::string_view text);

  /// Parse a spec FILE (one or more `key=value` tokens per line; `#`
  /// starts a comment through end of line).  Unlike parse(), assigning
  /// the same key twice is REJECTED: on a command line, later tokens
  /// deliberately override earlier ones, but in a queued job file a
  /// silent last-wins would hide which of two conflicting lines the
  /// service actually ran.  All errors -- unreadable file, malformed
  /// token, duplicate key -- throw std::runtime_error carrying the path
  /// and 1-based line number (the journal loader's error style).
  [[nodiscard]] static ScenarioSpec parse_file(const std::string& path);

  /// Set (or override) one entry.
  void set(std::string_view key, std::string_view value);

  /// Merge \p other on top of this spec (its entries win).
  void merge(const ScenarioSpec& other);

  [[nodiscard]] bool has(std::string_view key) const noexcept;
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Raw string value, or \p dflt when absent.
  [[nodiscard]] std::string get(std::string_view key,
                                std::string_view dflt = {}) const;

  /// Typed accessors; throw std::invalid_argument naming the key when the
  /// value does not parse (trailing garbage included).
  [[nodiscard]] std::size_t get_size(std::string_view key,
                                     std::size_t dflt) const;
  [[nodiscard]] double get_double(std::string_view key, double dflt) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool dflt) const;

  /// Keys in first-assignment order (deduplicated).
  [[nodiscard]] std::vector<std::string> keys() const;

  /// All entries in first-assignment order (for diagnostics / JSON).
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  entries() const noexcept {
    return entries_;
  }

  /// Round-trip text form: `key=value` joined by single spaces.
  [[nodiscard]] std::string to_string() const;

  /// Throw std::invalid_argument listing \p known when this spec contains
  /// a key outside \p known (catches typos like `positon=first` before a
  /// long sweep silently ignores them).
  void require_keys_in(std::initializer_list<std::string_view> known) const;

private:
  [[nodiscard]] const std::string* find(std::string_view key) const noexcept;

  std::vector<std::pair<std::string, std::string>> entries_;
};

} // namespace sdcgmres::experiment
