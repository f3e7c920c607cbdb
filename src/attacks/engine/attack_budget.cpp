#include "attacks/engine/attack_budget.hpp"

#include <cstdio>

namespace ril::attacks::engine {

AttackBudget::AttackBudget(double time_limit_seconds,
                           const std::atomic<bool>* cancel)
    : start_(std::chrono::steady_clock::now()),
      limit_(time_limit_seconds),
      cancel_(cancel) {}

double AttackBudget::elapsed() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

bool AttackBudget::cancelled() const {
  return cancel_ && cancel_->load(std::memory_order_relaxed);
}

bool AttackBudget::expired() const {
  return cancelled() || (limited() && remaining() <= 0);
}

sat::SolverLimits AttackBudget::limits() const {
  sat::SolverLimits limits;
  if (limited()) limits.time_limit_seconds = remaining();
  limits.cancel = cancel_;
  return limits;
}

void AttackBudget::record(std::size_t iteration, const char* phase,
                          const runtime::SolveOutcome& outcome) {
  if (!recording_) return;
  log_.push_back({iteration, phase, outcome, 0});
}

void AttackBudget::add_constraints(std::size_t encoded_clauses) {
  encoded_clauses_ += encoded_clauses;
  if (recording_ && !log_.empty()) {
    log_.back().encoded_clauses += encoded_clauses;
  }
}

std::string solve_record_json(const SolveRecord& record) {
  char prefix[96];
  std::snprintf(prefix, sizeof(prefix),
                "{\"iteration\":%zu,\"phase\":\"%s\",\"solve\":",
                record.iteration, record.phase.c_str());
  char suffix[96];
  std::snprintf(suffix, sizeof(suffix),
                ",\"encoded_clauses\":%zu}", record.encoded_clauses);
  return std::string(prefix) + runtime::to_json(record.outcome) + suffix;
}

}  // namespace ril::attacks::engine
