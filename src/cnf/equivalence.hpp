// Structural combinational equivalence checking (CEC).
//
// check_equivalence() first folds, then hashes, then SAT-solves:
//   1. Fold: both circuits are copied into one structurally hashed netlist
//      over shared data inputs, with each circuit's key inputs replaced by
//      its key constants. Constants propagate, and gates are rewritten into
//      a canonical NOT/AND/XOR/MUX/LUT form, so equal logic built from
//      different gate mixes still lands on one node.
//   2. Strash: output pairs that landed on the same node (including the
//      same constant) are proven equal without SAT.
//   3. Residual SAT: only the fan-in cones of the remaining pairs are
//      Tseitin-encoded, under one miter, and solved.
// For a locked circuit under its correct key, step 1 collapses everything
// outside the locking logic onto the host's nodes. The SAT call then sees
// only the residual cones.
#pragma once

#include <optional>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"

namespace ril::cnf {

struct EquivalenceResult {
  /// kSat   -> circuits differ (counterexample available)
  /// kUnsat -> equivalent
  /// kUnknown -> resource limit fired
  sat::Result status = sat::Result::kUnknown;
  /// Input assignment (in data_inputs() order of circuit a) on which the
  /// circuits differ; present iff status == kSat.
  std::vector<bool> counterexample;

  bool equivalent() const { return status == sat::Result::kUnsat; }
};

/// Checks functional equivalence of two combinational netlists.
/// Inputs are matched positionally across a.data_inputs()/b.data_inputs();
/// key inputs of each circuit are fixed with `key_a` / `key_b` (pass empty
/// vectors for circuits without key inputs). Outputs matched positionally.
EquivalenceResult check_equivalence(const netlist::Netlist& a,
                                    const netlist::Netlist& b,
                                    const std::vector<bool>& key_a = {},
                                    const std::vector<bool>& key_b = {},
                                    const sat::SolverLimits& limits = {});

}  // namespace ril::cnf
