// Unified run report: one schema-versioned JSON document per run.
//
// Every run artefact so far lives in its own file with its own shape —
// metrics time series (CSV/JSONL), packet traces, profiler tables printed
// to stderr, fault plans, supervisor failures. RunReport aggregates the
// run-end state of all of them into a single machine-readable document:
//
//   {
//     "schema": "pds.run_report/1",
//     "kind": "study_a" | "supervised_sweep",
//     "metrics": {...},        // registry totals at run end
//     "profile": {...},        // per-label event counts
//     "conformance": {...},    // DDP summary + violations
//     "faults": {...},         // episode log
//     "supervisor": {...},     // cells, attempts, failures
//     "volatile": {...}        // OPT-IN: wall times, pool stats
//   }
//
// Determinism contract: every default section is derived from simulation
// state only and is byte-identical for any --jobs. Wall-clock and
// schedule-dependent quantities (pool steals, worker busy time, cell wall
// durations, profiler wall seconds) are quarantined in the "volatile"
// section, which is emitted only on request — so a report diff is a real
// regression signal, and the --jobs differential test can pin default
// reports byte-for-byte.
//
// Json is a deliberately small insertion-ordered DOM — enough to build the
// report without dragging in a JSON library (stdlib-only repo constraint).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pds {

class MetricsRegistry;
class SimProfiler;
struct ConformanceSummary;
struct ConformanceViolation;
struct SweepTelemetry;
struct CellFailure;

// Minimal JSON value: null, bool, integer, double, string, array, object.
// Objects preserve insertion order (reports read top-down); doubles render
// with ostream default precision (the repo-wide convention, see
// util/number_text.hpp), non-finite doubles render as null.
class Json {
 public:
  Json() = default;  // null
  Json(bool b);
  Json(int v);
  Json(unsigned v);
  Json(long v);
  Json(long long v);
  Json(unsigned long v);
  Json(unsigned long long v);
  Json(double v);
  Json(const char* s);
  Json(std::string s);

  static Json object();
  static Json array();

  // Object append (throws std::logic_error on non-objects). Returns *this
  // for chaining. Duplicate keys are the caller's bug and render as-is.
  Json& set(const std::string& key, Json value);
  // Array append (throws std::logic_error on non-arrays).
  Json& push(Json value);

  bool is_object() const noexcept { return kind_ == Kind::kObject; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }

  // Compact single-line rendering (deterministic).
  std::string dump() const;

 private:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  void render(std::string& out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  long long int_ = 0;
  unsigned long long uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

// Builder for the report document. Sections are emitted in insertion order
// after the fixed "schema" and "kind" headers.
class RunReport {
 public:
  static constexpr const char* kSchema = "pds.run_report/1";

  explicit RunReport(std::string kind);

  // Adds (or replaces, by key) a top-level section.
  void set_section(const std::string& name, Json value);

  std::string dump() const;
  // Atomic write (tmp + rename); throws on I/O failure.
  void write(const std::string& path) const;

 private:
  std::string kind_;
  std::vector<std::pair<std::string, Json>> sections_;
};

// Section builders for the existing run artefacts. All deterministic unless
// noted.
Json metrics_json(const MetricsRegistry& registry);
// Per-label event counts sorted by label; wall seconds only when
// `include_wall` (volatile).
Json profile_json(const SimProfiler& profiler, bool include_wall = false);
Json conformance_json(const ConformanceSummary& summary,
                      const std::vector<ConformanceViolation>& violations);
// Deterministic part of a sweep's telemetry: per-cell work/attempts/failed.
Json sweep_cells_json(const SweepTelemetry& telemetry);
// Volatile part: workers, steals, per-worker busy time, elapsed, per-cell
// wall placement.
Json sweep_volatile_json(const SweepTelemetry& telemetry);
Json failures_json(const std::vector<CellFailure>& failures);

}  // namespace pds
