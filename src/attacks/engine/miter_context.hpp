// Shared miter construction for the SAT-family attacks.
//
// Every oracle-guided attack builds the same object: two copies of the
// locked circuit sharing the input vector X, each with its own key binding,
// and a miter constraint forcing at least one output pair to differ.
// MiterContext owns that construction over any sat::ClauseSink (a plain
// Solver or a runtime::SolverPortfolio), with the exact variable/clause
// order of the historical per-attack implementations so that a jobs == 1
// run stays bit-identical to the pre-engine code. The lower-level
// primitives (encode_copy, make_vars, fix_vars) serve attacks whose copies
// are not a miter pair, e.g. the sensitization attack's CEGIS copies.
#pragma once

#include <functional>
#include <vector>

#include "cnf/tseitin.hpp"
#include "netlist/netlist.hpp"
#include "sat/clause_sink.hpp"

namespace ril::attacks::engine {

/// Allocates `count` fresh variables from the sink.
std::vector<sat::Var> make_vars(sat::ClauseSink& sink, std::size_t count);

/// Allocates one fresh variable per value and immediately unit-fixes it
/// (variable and clause interleaved, matching the historical encoders).
std::vector<sat::Var> make_fixed_vars(sat::ClauseSink& sink,
                                      const std::vector<bool>& values);

/// Unit-fixes existing variables to the given values, in order.
void fix_vars(sat::ClauseSink& sink, const std::vector<sat::Var>& vars,
              const std::vector<bool>& values);

/// One encoded copy of a locked circuit.
struct CircuitCopy {
  cnf::CircuitEncoding enc;
  std::vector<sat::Var> key_vars;     ///< aligned with locked.key_inputs()
  std::vector<sat::Var> output_vars;  ///< aligned with locked.outputs()
};

/// Encodes one copy of `locked` into `sink` with its data inputs bound to
/// `input_vars` (positional over data_inputs()). Key inputs are bound to
/// *key_vars when given, otherwise they receive fresh variables in
/// topological order (exposed via CircuitCopy::key_vars either way).
CircuitCopy encode_copy(const netlist::Netlist& locked, sat::ClauseSink& sink,
                        const std::vector<sat::Var>& input_vars,
                        const std::vector<sat::Var>* key_vars = nullptr);

class MiterContext {
 public:
  /// Free-key miter (SAT attack, AppSAT): shared X, independent key vectors
  /// K1/K2. Variable layout is X, K1, K2, copy 1, copy 2, miter.
  MiterContext(const netlist::Netlist& locked, sat::ClauseSink& sink);

  /// Fixed-key miter (bypass attack): each copy carries fresh key variables
  /// unit-fixed to key_a / key_b; a witness is an input where the two
  /// wrongly-keyed copies disagree.
  MiterContext(const netlist::Netlist& locked, sat::ClauseSink& sink,
               const std::vector<bool>& key_a, const std::vector<bool>& key_b);

  const netlist::Netlist& locked() const { return *locked_; }
  const std::vector<sat::Var>& input_vars() const { return x_vars_; }
  /// The two encoded copies; index 0 / 1.
  const CircuitCopy& copy(std::size_t index) const { return copies_[index]; }
  /// Per-output-pair difference variables from the miter encoding.
  const std::vector<sat::Var>& diff_vars() const { return diff_vars_; }

  /// Reads the witness input assignment out of a satisfying model;
  /// `model` maps a variable to its model value.
  std::vector<bool> extract_dip(
      const std::function<bool(sat::Var)>& model) const;

 private:
  const netlist::Netlist* locked_ = nullptr;
  std::vector<sat::Var> x_vars_;
  CircuitCopy copies_[2];
  std::vector<sat::Var> diff_vars_;
};

}  // namespace ril::attacks::engine
