// Restart-time inprocessing for the CDCL solver.
//
// Where the SatELite pass (sat/preprocessor.hpp) simplifies the formula
// once before search, the Inprocessor keeps simplifying *during* search:
// at conflict-count intervals the solver's restart path hands control to
// run(), which spends a small bounded budget on three techniques and then
// resumes CDCL where it left off.
//
//  * clause vivification -- a rotating slice of the learned and long
//    problem clauses is re-derived literal by literal: assume the negation
//    of each kept literal in turn and unit-propagate; a propagation
//    conflict or an implied literal proves a strict prefix of the clause,
//    and literals falsified along the way (or at the root) are dropped.
//    The shrunken clause replaces the original.
//  * learned-clause subsumption -- a bounded window of live clauses is
//    indexed by occurrence lists with bloom signatures (the same
//    machinery as the preprocessor); clauses subsumed inside the window
//    are deleted and self-subsumption resolution strengthens the rest.
//  * failed-literal probing -- the highest-activity unassigned variables
//    are probed in both polarities at a throwaway decision level; a
//    conflict yields a root unit (the failed literal's negation), and
//    literals propagated through long reasons yield hyper-binary
//    resolvents (~probe \/ implied), added as glue binaries.
//
// Every transformation is RUP at its position in the proof stream, so
// with a FileProofTracer attached the emitted derive/erase steps keep the
// trace DRAT-valid end to end (sat/drat_check.hpp accepts it): a strengthened clause is derived *before* its
// parent is erased, root units are derived before they propagate, and a
// hyper-binary follows from its probe's propagation, which the checker
// replays against a superset of the clauses the solver used.
//
// Frozen variables (Solver::freeze_inprocess) are never probed, so
// attack-level variables that outside code fixes via assumptions keep
// their full model range; inprocessing never eliminates variables at
// all, so model reconstruction is a no-op.
//
// Scheduling is driven by the solver's cumulative conflict count plus a
// per-solve gate: a pass fires once the cumulative count crosses the
// next interval AND the current solve() call has itself contributed
// interval_base / solve_gate_divisor conflicts, so both a single cheap
// solve and a long train of cheap incremental solves pay nothing beyond
// one integer compare per restart. Passes that derive nothing back off
// multiplicatively (stale_backoff_max) so formulas inprocessing cannot
// help stop paying for it.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/types.hpp"

namespace ril::sat {

class Solver;

struct InprocessConfig {
  /// Master switch; the default-constructed Solver keeps it off so the
  /// historical search is bit-identical until a caller opts in.
  bool enabled = false;
  /// Conflicts before the first pass and the base spacing between passes.
  std::uint64_t interval_base = 4000;
  /// Extra spacing added per completed pass (linear back-off, so a long
  /// solve runs passes ever less often).
  std::uint64_t interval_growth = 1000;
  /// Per-solve gate: a pass fires only when the *current* solve() call
  /// has itself contributed at least interval_base / solve_gate_divisor
  /// conflicts. The cumulative threshold alone lets an attack that issues
  /// hundreds of cheap incremental solves (AntiSAT's forced DIP
  /// enumeration runs ~160-conflict solves) cross every interval and eat
  /// pass perturbation it can never amortize; the gate makes such solves
  /// genuinely pay ~zero. 0 disables the gate.
  std::uint64_t solve_gate_divisor = 4;
  /// Multiplicative back-off for stale passes: a pass that derives
  /// nothing (no clause shrunk, subsumed, strengthened, failed literal,
  /// or hyper-binary) doubles the spacing multiplier up to this cap; any
  /// productive pass resets it to 1.
  std::uint64_t stale_backoff_max = 16;
  /// Clauses vivified per pass (rotating cursor over learned + problem).
  std::uint32_t vivify_budget = 96;
  /// Only clauses of 3..vivify_max_size literals are vivification
  /// candidates (binaries cannot shrink; huge clauses cost too many
  /// propagations per literal).
  std::uint32_t vivify_max_size = 48;
  /// Clauses in the subsumption window per pass.
  std::uint32_t subsume_budget = 768;
  /// Subset-check steps per pass (caps the occ-list scans).
  std::uint32_t subsume_steps = 20000;
  /// Variables probed per pass (both polarities each).
  std::uint32_t probe_budget = 48;
  /// Hyper-binary resolvents added per pass.
  std::uint32_t hbr_limit = 64;
};

struct InprocessStats {
  std::uint64_t passes = 0;
  /// Vivification: candidates examined / clauses shrunk / literals removed.
  std::uint64_t vivify_checked = 0;
  std::uint64_t vivified_clauses = 0;
  std::uint64_t vivified_literals = 0;
  /// Subsumption window: pairs checked / clauses deleted / strengthened.
  std::uint64_t subsume_checked = 0;
  std::uint64_t subsumed_clauses = 0;
  std::uint64_t strengthened_clauses = 0;
  /// Probing: literals probed / failed (root units derived) / binaries.
  std::uint64_t probed_literals = 0;
  std::uint64_t failed_literals = 0;
  std::uint64_t hyper_binaries = 0;
};

/// One bounded inprocessing pass over a Solver. Construct on the restart
/// path (decision level 0) and call run(); all state that must persist
/// between passes (cursors, schedule) lives in the Solver.
class Inprocessor {
 public:
  explicit Inprocessor(Solver& solver) : s_(solver) {}

  /// Runs one pass: vivification, then window subsumption, then probing.
  /// Returns false when the pass refuted the formula (the empty clause
  /// was derived and the solver is dead); the caller must then return
  /// kUnsat.
  bool run();

 private:
  // Each phase returns false on refutation.
  bool vivify_pass();
  bool subsume_pass();
  bool probe_pass();

  /// Vivifies the clause at `cref`; may delete or replace it. Sets
  /// `unsat` on refutation.
  void vivify_clause(std::uint32_t cref, bool learned, bool& unsat);
  /// Retires `cref` (proof erase + detach + mark) and installs `kept` in
  /// its place on `list`. The caller has already emitted the derive step
  /// for `kept` (install and derive must carry the same literals so a
  /// later deletion matches the checker's database). Returns the new
  /// clause ref, or kNoClause when `kept` collapsed to a root unit or a
  /// refutation; sets `unsat` when the replacement refuted the formula.
  std::uint32_t replace_clause(std::uint32_t cref, const Clause& kept,
                               std::vector<std::uint32_t>& list,
                               bool learned, bool& unsat);
  /// Proof-erases, detaches, and marks `cref` deleted.
  void delete_clause(std::uint32_t cref);
  /// True if `cref` is the reason of its first literal's assignment (such
  /// a clause must not be deleted or rewritten).
  bool is_reason_locked(std::uint32_t cref) const;
  /// True if a binary clause with exactly the literals {a, b} is attached.
  bool binary_exists(Lit a, Lit b) const;

  Solver& s_;
};

}  // namespace ril::sat
