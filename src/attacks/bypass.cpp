#include "attacks/bypass.hpp"

#include <random>

#include "attacks/engine/attack_budget.hpp"
#include "attacks/engine/miter_context.hpp"
#include "locking/locked.hpp"
#include "netlist/simplify.hpp"
#include "netlist/simulator.hpp"

namespace ril::attacks {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;
using runtime::SolverPortfolio;
using sat::Lit;
using sat::Var;

std::string to_string(BypassStatus status) {
  switch (status) {
    case BypassStatus::kBypassed: return "bypassed";
    case BypassStatus::kTooManyPatterns: return "too-many-patterns";
    case BypassStatus::kTimeout: return "timeout";
  }
  return "?";
}

namespace {

/// Adds a comparator for `pattern` over the data inputs of `nl` and XOR
/// flips onto the outputs listed in `flip_bits`.
void stitch_bypass(Netlist& nl, const std::vector<bool>& pattern,
                   const std::vector<std::size_t>& flip_bits,
                   std::size_t tag) {
  const auto data = nl.data_inputs();
  std::vector<NodeId> terms;
  terms.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    terms.push_back(pattern[i]
                        ? data[i]
                        : nl.add_gate(GateType::kNot, {data[i]},
                                      "byp" + std::to_string(tag) + "_n" +
                                          std::to_string(i)));
  }
  std::size_t level = 0;
  while (terms.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
      next.push_back(nl.add_gate(GateType::kAnd, {terms[i], terms[i + 1]},
                                 "byp" + std::to_string(tag) + "_a" +
                                     std::to_string(level) + "_" +
                                     std::to_string(i / 2)));
    }
    if (terms.size() % 2 == 1) next.push_back(terms.back());
    terms = std::move(next);
    ++level;
  }
  const NodeId match = terms[0];
  auto outputs = nl.outputs();
  for (std::size_t bit : flip_bits) {
    outputs[bit] = nl.add_gate(
        GateType::kXor, {outputs[bit], match},
        "byp" + std::to_string(tag) + "_o" + std::to_string(bit));
  }
  nl.set_outputs(std::move(outputs));
}

}  // namespace

BypassResult run_bypass_attack(const Netlist& locked, QueryOracle& oracle,
                               const BypassOptions& options) {
  engine::AttackBudget budget(options.time_limit_seconds, options.cancel);
  std::mt19937_64 rng(options.seed);
  BypassResult result;

  const std::size_t key_width = locked.key_inputs().size();
  std::vector<bool> k1(key_width);
  std::vector<bool> k2(key_width);
  for (std::size_t i = 0; i < key_width; ++i) k1[i] = rng() & 1;
  do {
    for (std::size_t i = 0; i < key_width; ++i) k2[i] = rng() & 1;
  } while (k2 == k1 && key_width > 0);

  // Miter between the two wrongly-keyed copies: every witness is an input
  // where at least one of them is corrupted.
  SolverPortfolio solver(options.jobs, options.portfolio_seed);
  solver.set_limits(budget.limits());
  const engine::MiterContext ctx(locked, solver, k1, k2);
  const std::vector<Var>& x_vars = ctx.input_vars();

  // Simulator for the copy-1 candidate key, reused across every witness.
  netlist::Simulator sim(locked);

  // Patterns where copy 1 must be patched.
  std::vector<std::pair<std::vector<bool>, std::vector<bool>>> fixes;
  while (true) {
    if (budget.limited() || budget.cancelled()) {
      if (budget.expired()) {
        result.status = BypassStatus::kTimeout;
        result.seconds = budget.elapsed();
        return result;
      }
      solver.set_limits(budget.limits());
    }
    const sat::Result r = solver.solve().result;
    if (r == sat::Result::kUnknown) {
      result.status = BypassStatus::kTimeout;
      result.seconds = budget.elapsed();
      return result;
    }
    if (r == sat::Result::kUnsat) break;  // copies agree everywhere else
    const std::vector<bool> x =
        ctx.extract_dip([&](Var v) { return solver.model_bool(v); });
    const auto y_true = oracle.query(x);
    if (netlist::evaluate_with_key(sim, x, k1) != y_true) {
      fixes.emplace_back(x, y_true);
    }
    ++result.patterns;
    if (result.patterns > options.max_patterns) {
      result.status = BypassStatus::kTooManyPatterns;
      result.seconds = budget.elapsed();
      return result;
    }
    // Block this input pattern and continue enumerating.
    sat::Clause block;
    for (std::size_t i = 0; i < x_vars.size(); ++i) {
      block.push_back(Lit::make(x_vars[i], x[i]));
    }
    solver.add_clause(block);
  }

  // Build the pirated chip: copy 1 specialized + bypass comparators.
  result.pirated = locking::specialize_keys(locked, k1);
  netlist::simplify(result.pirated);
  std::size_t tag = 0;
  for (const auto& [x, y_true] : fixes) {
    // Fresh evaluation each round: the pirated netlist mutates as bypass
    // units are stitched in, so a reused Simulator would go stale.
    const auto y1 = netlist::evaluate_once(result.pirated, x);
    std::vector<std::size_t> flip_bits;
    for (std::size_t i = 0; i < y1.size(); ++i) {
      if (y1[i] != y_true[i]) flip_bits.push_back(i);
    }
    stitch_bypass(result.pirated, x, flip_bits, tag++);
  }
  result.status = BypassStatus::kBypassed;
  result.seconds = budget.elapsed();
  return result;
}

}  // namespace ril::attacks
