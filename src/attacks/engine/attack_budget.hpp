// Shared attack-run budget: wall-clock deadline, cooperative cancellation,
// and the per-solve stats log.
//
// Every SAT-family attack used to carry its own `elapsed()` lambda and its
// own (or no) solve log. AttackBudget centralizes all of it: the attack
// loop asks expired() between solves and hands limits() to the solver or
// portfolio before each solve, so an in-flight search respects the same
// deadline and the caller's cancellation flag, and a caller on another
// thread can cancel a long-running attack (the attack then reports its
// timeout status). When recording is enabled, each
// portfolio solve and the clause cost of each encoded I/O constraint land
// in the SolveRecord log that surfaces as per-solve JSON in the CLI and
// bench stats files.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "runtime/portfolio.hpp"
#include "sat/solver.hpp"

namespace ril::attacks::engine {

/// One entry of the per-solve log: which solve of the attack loop it was,
/// how the portfolio decided it, and what the iteration's I/O constraints
/// cost in clauses.
struct SolveRecord {
  std::size_t iteration = 0;  ///< attack-loop iteration the solve belongs to
  std::string phase;          ///< "miter" or "key"
  runtime::SolveOutcome outcome;
  std::size_t encoded_clauses = 0;  ///< constraint clauses added after it
};

/// Serializes one record as a JSON object (one line, stable key order).
std::string solve_record_json(const SolveRecord& record);

class AttackBudget {
 public:
  /// `time_limit_seconds` <= 0 means unlimited. `cancel` is an optional
  /// caller-owned flag; raising it makes expired() true and unwinds every
  /// in-flight solve that runs under limits().
  explicit AttackBudget(double time_limit_seconds,
                        const std::atomic<bool>* cancel = nullptr);

  double elapsed() const;
  bool limited() const { return limit_ > 0; }
  /// Seconds left of the deadline; meaningful only when limited().
  double remaining() const { return limit_ - elapsed(); }
  bool cancelled() const;
  /// Deadline passed or cancellation raised.
  bool expired() const;
  /// Per-solve limits carrying the remaining deadline (no limit otherwise)
  /// and the caller's cancellation flag.
  sat::SolverLimits limits() const;

  // ----- per-solve stats ----------------------------------------------
  void enable_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }
  void record(std::size_t iteration, const char* phase,
              const runtime::SolveOutcome& outcome);
  /// Accounts constraint clauses toward the run totals and attaches them
  /// to the most recent record (the solve that produced the witness).
  void add_constraints(std::size_t encoded_clauses);
  std::size_t encoded_clauses() const { return encoded_clauses_; }
  std::vector<SolveRecord> take_log() { return std::move(log_); }

 private:
  std::chrono::steady_clock::time_point start_;
  double limit_ = 0.0;
  const std::atomic<bool>* cancel_ = nullptr;
  bool recording_ = false;
  std::vector<SolveRecord> log_;
  std::size_t encoded_clauses_ = 0;
};

}  // namespace ril::attacks::engine
