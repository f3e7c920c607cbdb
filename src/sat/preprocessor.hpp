// SatELite-style CNF preprocessor: subsumption, self-subsuming resolution,
// and bounded variable elimination (BVE), with model reconstruction and
// optional DRAT step recording.
//
// The preprocessor is a ClauseSink-shaped staging area: callers feed it the
// problem formula, mark the variables that must survive (assumption vars,
// key vars, any var referenced after solving -- see freeze()), then call
// run(). Afterwards the simplified clause set is read back via clauses(),
// and a model of the *simplified* formula is completed into a model of the
// *original* formula with extend_model(), which replays the elimination
// stack in reverse (the MiniSat SimpSolver invariant: each eliminated
// variable is set so every clause removed on its behalf is satisfied).
//
// Techniques, applied to a fixpoint over bounded rounds:
//  * subsumption          -- if C \subseteq D, delete D;
//  * self-subsumption     -- if C \ {l} \cup {~l} \subseteq D for some
//                            l in C, remove ~l from D (strengthening);
//  * variable elimination -- replace the occurrences of a non-frozen var v
//                            by all non-tautological resolvents on v,
//                            when that does not grow the clause count
//                            beyond the configured bound. A var with
//                            single-polarity occurrences (pure literal)
//                            eliminates for free: no resolvents exist.
//
// Proof compatibility (PR 4's certification must survive preprocessing):
// with enable_proof() on, every transformation is recorded as DRAT steps.
// All additions are RUP with respect to the live clause set at their
// position -- a resolvent of C \/ v and D \/ ~v follows by assuming its
// negation and propagating v through C; a strengthened clause follows the
// same way from its self-subsumption partner -- and deletions are emitted
// only after the additions that supersede them, so a forward checker
// (sat/drat_check.hpp) accepts the stream. The portfolio replays
// originals() then proof_steps() into each member's tracer before feeding
// the simplified clauses with proof logging detached, keeping the trace's
// axiom ('o') set exactly the original formula.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sat/proof.hpp"
#include "sat/types.hpp"

namespace ril::sat {

struct PreprocessConfig {
  bool subsumption = true;           ///< clause subsumption
  bool self_subsumption = true;      ///< strengthening via self-subsumption
  bool variable_elimination = true;  ///< bounded variable elimination
  /// BVE may grow the clause count by at most this many clauses per
  /// eliminated variable (0 = never grow, the SatELite default).
  int bve_growth = 0;
  /// BVE may grow the *literal* count by at most this many literals per
  /// eliminated variable (0 = never grow). The clause-count rule alone
  /// lets narrow parents resolve into wide resolvents -- fewer clauses,
  /// more literals, a slower solve (the table5/xor regression).
  int bve_literal_growth = 0;
  /// Skip elimination of vars occurring in more than this many clauses.
  /// With `self_tuning` this is the starting point, not a constant.
  std::size_t bve_occurrence_limit = 32;
  /// Abort an elimination that would create a resolvent wider than this.
  std::size_t bve_resolvent_limit = 8;
  /// Maximum subsume/eliminate rounds before declaring a fixpoint.
  std::size_t max_rounds = 8;
  /// Per-formula autotuning of the elimination bounds: after each round
  /// the occurrence limit doubles (up to 8x the configured base) while
  /// the observed literal count keeps shrinking, and decays back toward
  /// the base when progress stalls. Deterministic -- driven only by the
  /// staged formula.
  bool self_tuning = true;
};

struct PreprocessStats {
  std::size_t vars_before = 0;
  std::size_t vars_after = 0;  ///< non-eliminated vars
  std::size_t clauses_before = 0;
  std::size_t clauses_after = 0;
  std::size_t literals_before = 0;
  std::size_t literals_after = 0;
  std::size_t eliminated_vars = 0;
  std::size_t subsumed_clauses = 0;
  std::size_t strengthened_literals = 0;  ///< literals removed by self-subs.
  std::size_t resolvents_added = 0;
  std::size_t rounds = 0;
  /// Final self-tuned occurrence limit (== the configured base when
  /// self_tuning is off or never adjusted).
  std::size_t tuned_occurrence_limit = 0;
};

class Preprocessor {
 public:
  explicit Preprocessor(PreprocessConfig config = PreprocessConfig{});

  // --- staging (before run) ---------------------------------------------
  Var new_var();
  void ensure_var(Var v);
  std::size_t num_vars() const { return frozen_.size(); }
  /// Stages a problem clause. Returns false once the formula is trivially
  /// contradictory (empty clause staged, or derived later by run()).
  bool add_clause(Clause lits);
  /// Protects a variable from elimination. Assumption variables, key
  /// variables, and any variable mentioned by clauses or model queries
  /// after preprocessing must be frozen before run().
  void freeze(Var v);
  void freeze(const std::vector<Var>& vars);
  bool frozen(Var v) const {
    return v >= 0 && static_cast<std::size_t>(v) < frozen_.size() &&
           frozen_[v];
  }
  /// Starts recording DRAT steps for run(); call before run().
  void enable_proof() { proof_enabled_ = true; }

  // --- simplification ----------------------------------------------------
  /// Runs subsumption / strengthening / elimination to a bounded fixpoint.
  /// Idempotent; after the first call the staged formula is simplified.
  void run();

  // --- results (after run) -----------------------------------------------
  bool contradiction() const { return contradiction_; }
  bool is_eliminated(Var v) const {
    return v >= 0 && static_cast<std::size_t>(v) < eliminated_.size() &&
           eliminated_[v];
  }
  /// Simplified clause set (live clauses, in stable insertion order).
  std::vector<Clause> clauses() const;
  /// Original formula as staged (including clauses later simplified away).
  const std::vector<Clause>& originals() const { return originals_; }
  /// DRAT steps recorded by run() ('a' resolvents/strengthenings before
  /// the 'd' lines of the clauses they supersede). Empty unless
  /// enable_proof() was called before run().
  const std::vector<ProofStep>& proof_steps() const { return proof_steps_; }

  /// Completes a model of the simplified formula (indexed by the
  /// preprocessor's variable numbering, kUndef allowed for eliminated
  /// vars) into a model of the original formula by replaying the
  /// elimination stack in reverse. `model` must have num_vars() entries.
  void extend_model(std::vector<LBool>& model) const;
  /// Checks a (extended) model against every original clause.
  bool verify_model(const std::vector<LBool>& model) const;

  const PreprocessStats& stats() const { return stats_; }

  // --- shared subsumption machinery (also used by sat/inprocess.cpp) ----
  /// Bloom signature over the clause's variables: a 64-bit superset
  /// filter -- sig(C) & ~sig(D) != 0 proves C is not a subset of D.
  static std::uint64_t signature(const Clause& lits);
  /// True iff every literal of `small` except `skip` occurs in `big`.
  /// Both clauses must be sorted by literal code.
  static bool subset_except(const Clause& small, const Clause& big,
                            Lit skip);

 private:
  struct Entry {
    Clause lits;            // sorted by literal code
    std::uint64_t sig = 0;  // bloom signature over vars
    bool deleted = false;
  };
  /// One eliminated variable with the clauses removed on its behalf.
  struct ElimRecord {
    Var var;
    std::vector<Clause> clauses;
  };

  bool stage_entry(Clause lits);  // dedup/taut-check + insert
  void delete_entry(std::size_t idx);
  void occ_remove(Lit l, std::size_t idx);

  bool subsume_round();
  bool process_subsumption(std::size_t idx);
  bool eliminate_round();
  bool try_eliminate(Var v);
  void set_contradiction();
  /// Records one DRAT step when proof logging is on.
  void log_step(ProofStepKind kind, const Clause& lits);
  std::size_t live_literals() const;

  PreprocessConfig config_;
  /// Effective BVE occurrence limit (self-tuned between rounds).
  std::size_t occ_limit_ = 0;
  PreprocessStats stats_;
  std::vector<Entry> entries_;
  std::vector<std::vector<std::size_t>> occ_;  // lit code -> entry indices
  std::vector<bool> frozen_;
  std::vector<bool> eliminated_;
  std::vector<ElimRecord> elim_stack_;
  std::vector<Clause> originals_;
  std::vector<std::size_t> queue_;  // entries pending subsumption checks
  std::vector<bool> queued_;
  std::vector<ProofStep> proof_steps_;
  bool proof_enabled_ = false;
  bool proof_closed_ = false;  ///< the empty clause has been logged
  bool contradiction_ = false;
  bool ran_ = false;
};

}  // namespace ril::sat
