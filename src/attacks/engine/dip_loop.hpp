// The oracle-guided DIP loop shared by the SAT attack, AppSAT and the
// one-hot routing attack.
//
// DipLoop owns a miter portfolio (two circuit copies sharing the input
// vector X, each with its own key bundle K1/K2), a key-determination
// portfolio, the run budget and the certificate. step() runs one
// iteration: miter solve -> DIP -> oracle query -> constrain both copies
// and the key solver; at miter-UNSAT it extracts the canonical key. Every
// SatAttackOptions field (jobs, cancel, certify, preprocess, ...) is
// honoured here, once, for all three attacks. What varies between them is
// the circuit encoding (DipEncoding) and AppSAT's settle step, which its
// caller runs between steps through candidate_key() and constrain().
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "attacks/engine/attack_budget.hpp"
#include "attacks/oracle.hpp"
#include "attacks/sat_attack.hpp"
#include "netlist/netlist.hpp"
#include "runtime/portfolio.hpp"
#include "sat/clause_sink.hpp"

namespace ril::attacks::engine {

/// The miter variables the loop reads (X) and constrains (K1, K2).
struct MiterVars {
  std::vector<sat::Var> inputs;   ///< aligned with locked.data_inputs()
  std::vector<sat::Var> keys[2];  ///< the two copies' key bundles
};

/// How a DIP-loop attack encodes the locked circuit. A key bundle is a
/// flat variable vector whose layout the encoding defines; the loop
/// freezes it against preprocessing and canonicalizes it bit by bit.
class DipEncoding {
 public:
  virtual ~DipEncoding() = default;
  /// Encodes the miter into a fresh sink: X shared, K1/K2 independent, at
  /// least one output pair differing.
  virtual MiterVars encode_miter(sat::ClauseSink& sink) = 0;
  /// Allocates the key-determination solver's key bundle.
  virtual std::vector<sat::Var> make_key(sat::ClauseSink& sink) = 0;
  /// Adds clauses asserting locked(dip, key) == response; returns how many.
  virtual std::size_t add_constraint(sat::ClauseSink& sink,
                                     const std::vector<sat::Var>& key,
                                     const std::vector<bool>& dip,
                                     const std::vector<bool>& response) = 0;
};

class CertificatePath;

class DipLoop {
 public:
  /// Builds both portfolios and encodes the miter. `locked`, `oracle`,
  /// `options` and `encoding` must outlive the loop.
  DipLoop(const netlist::Netlist& locked, QueryOracle& oracle,
          const SatAttackOptions& options, DipEncoding& encoding);
  ~DipLoop();
  DipLoop(const DipLoop&) = delete;
  DipLoop& operator=(const DipLoop&) = delete;

  /// One iteration. Returns nullopt after a DIP was found, queried and
  /// added; otherwise the run's final status: kKeyFound (key() holds the
  /// canonical key), kTimeout, kIterationLimit or kInconsistent.
  std::optional<SatAttackStatus> step();
  /// Steps until the loop ends; returns the final status.
  SatAttackStatus run();

  std::size_t iterations() const { return stats_.iterations; }
  /// The key bundle's values at kKeyFound, in make_key() order.
  const std::vector<bool>& key() const { return key_; }

  /// Solves the key-determination portfolio for any key consistent with
  /// the I/O pairs so far (a "key" solve in the log); fills `key` on SAT.
  sat::Result candidate_key(std::vector<bool>& key);
  /// Adds locked(x, K) == y to both miter copies and the key solver.
  void constrain(const std::vector<bool>& x, const std::vector<bool>& y);

  /// Ends the run: publishes an open certificate when the loop stopped
  /// before miter-UNSAT, then writes the run's statistics into `out`.
  void finish(DipLoopStats& out);

 private:
  /// Fixes each key bit to 0 when some consistent key allows it.
  void canonicalize_key();
  void publish_and_check(bool refutation);
  /// False once the budget has expired; otherwise hands the remaining
  /// deadline to `portfolio` for its next solve.
  bool within_budget(runtime::SolverPortfolio& portfolio);

  QueryOracle& oracle_;
  const SatAttackOptions& options_;
  DipEncoding& encoding_;
  AttackBudget budget_;
  runtime::SolverPortfolio miter_;
  runtime::SolverPortfolio key_solver_;
  std::unique_ptr<CertificatePath> certificate_;
  MiterVars miter_vars_;
  std::vector<sat::Var> key_vars_;
  std::vector<bool> key_;
  DipLoopStats stats_;
};

}  // namespace ril::attacks::engine
