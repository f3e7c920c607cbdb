// Oracle-guided SAT attack (Subramanyan et al., HOST'15) on CDCL.
//
// Maintains a miter over two copies of the locked circuit sharing the input
// vector X but carrying independent keys K1/K2. Each SAT witness yields a
// distinguishing input pattern (DIP); the oracle's response is added as an
// I/O constraint on both key copies. When the miter becomes UNSAT no DIP
// remains, and any key consistent with the collected I/O pairs (extracted
// from a parallel key-determination solver) unlocks the circuit -- provided
// the oracle answered with the true function. Scan-Enable obfuscation and
// dynamic morphing break exactly that premise. The loop itself is
// engine::DipLoop, which AppSAT and the one-hot routing attack share.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "attacks/engine/attack_budget.hpp"
#include "attacks/engine/miter_context.hpp"
#include "attacks/oracle.hpp"
#include "netlist/netlist.hpp"
#include "runtime/portfolio.hpp"
#include "sat/proof.hpp"

namespace ril::attacks {

/// When the miter and key-determination formulas go through SatELite-style
/// preprocessing before their first solve.
enum class PreprocessMode {
  kOff,
  /// Only on hosts of at least kPreprocessAutoMinGates gates: large-host
  /// miters are where BVE/subsumption pay for themselves (see
  /// docs/SCALING.md).
  kAuto,
  kOn,
};
inline constexpr std::size_t kPreprocessAutoMinGates = 100000;

/// Options shared by every DIP-loop attack: the SAT attack, AppSAT
/// (AppSatOptions adds its settle-step fields) and the one-hot routing
/// attack. Each field means the same thing for all three.
struct SatAttackOptions {
  /// Whole-attack wall-clock budget in seconds; <= 0 means unlimited.
  double time_limit_seconds = 0.0;
  /// DIP iteration cap; 0 means unlimited.
  std::size_t max_iterations = 0;
  /// Portfolio width for every miter / key-determination solve. 1 runs the
  /// historical serial path bit-for-bit; N > 1 races N diversified solvers
  /// per solve with first-to-finish-wins (see runtime::SolverPortfolio).
  unsigned jobs = 1;
  /// Base seed for portfolio diversification (irrelevant when jobs == 1).
  std::uint64_t portfolio_seed = 1;
  /// When true, every portfolio solve is appended to
  /// DipLoopStats::solve_log (per-solve JSON stats in the CLI/bench).
  bool record_solves = false;
  /// Optional caller-owned cancellation flag: raise it from any thread to
  /// unwind the attack cooperatively (reported as a timeout).
  const std::atomic<bool>* cancel = nullptr;
  /// Certify the verdict: every miter-portfolio member streams a binary
  /// DRAT trace to disk (sat::FileProofTracer temps next to the
  /// certificate path), each SAT model is self-checked, and on miter-UNSAT
  /// the winner's trace is published and validated with the independent
  /// streaming checker (sat::check_refutation_file). The proof never lives
  /// in RAM, which is what keeps certified attacks on 100k+-gate hosts
  /// inside the encoder's memory envelope. Off by default; the search
  /// itself is bit-identical either way.
  bool certify = false;
  /// With certify: where the certificate is published. Set, the winner's
  /// trace is atomically published as `proof_file` and
  /// DipLoopStats::{proof_path, proof_bytes} are filled; if the attack
  /// stops before miter-UNSAT (timeout, iteration cap, AppSAT's
  /// approximate exit), the trace is still published as an *open*
  /// certificate -- every step RUP-checks against the axioms but no empty
  /// clause lands -- validated with sat::check_derivations_file and
  /// reported as ProofStatus::kOpen. Empty (the default), the certificate
  /// goes to a private, uniquely named file under
  /// std::filesystem::temp_directory_path() that is removed once checked;
  /// proof_path stays empty, and a run that stops before miter-UNSAT
  /// reports ProofStatus::kMissing.
  std::string proof_file;
  /// SatELite-style preprocessing (subsumption, self-subsuming resolution,
  /// bounded variable elimination) of the miter and key-determination
  /// formulas before their first solve. Input and key variables are frozen
  /// so DIP extraction, I/O constraints, and key canonicalization keep
  /// working; composes with certify (elimination steps are replayed into
  /// the DRAT trace). On by default since the Table-5 bench medians
  /// confirmed a net win at every scale (see BENCH_solver.json); kOff (CLI
  /// --no-preprocess) recovers the historical bit-identical --jobs 1
  /// search trajectory.
  PreprocessMode preprocess = PreprocessMode::kOn;
  /// Restart-time inprocessing (sat/inprocess.hpp: clause vivification,
  /// learned-clause subsumption, failed-literal probing with hyper-binary
  /// resolution) inside every miter / key portfolio member. Scheduled off
  /// conflict counts, so cheap solves pay nothing; input and key
  /// variables are frozen against probing; composes with certify (every
  /// derivation reaches the DRAT stream). Orthogonal to `preprocess`
  /// (CLI --no-inprocess turns only this off).
  bool inprocess = true;
  /// CNF-skeleton cache hooks (the `ril serve` daemon's level-2 cache) for
  /// the plain miter encoding; the one-hot attack ignores them.
  /// When `miter_skeleton` is set, the miter formula is replayed from the
  /// capture instead of re-encoding `locked` -- bit-identical variables and
  /// clauses, so the verdict, key, iteration count, and conflicts are
  /// unchanged; the skeleton must come from a capture over a netlist with
  /// identical content (the caller keys captures by content hash).
  /// When `capture_skeleton` is set (and no replay source is given), this
  /// run's miter encoding is recorded into it for later replay. Both null
  /// by default; nothing in the attack path changes then.
  const engine::MiterSkeleton* miter_skeleton = nullptr;
  engine::MiterSkeleton* capture_skeleton = nullptr;
};

/// Certification verdict for a whole attack run.
enum class ProofStatus {
  kNotRequested,  ///< options.certify was false
  kValid,         ///< UNSAT trace validated by sat::check_refutation_file
  kOpen,          ///< published open certificate: every step checks, but
                  ///< the attack stopped before miter-UNSAT so there is no
                  ///< refutation (validated by sat::check_derivations_file)
  kInvalid,       ///< trace rejected (solver unsoundness or a corrupted
                  ///< certificate file)
  kMissing,       ///< certify requested but no closed UNSAT trace exists
                  ///< (and no proof_file to publish an open one to)
};

std::string to_string(ProofStatus status);

/// Per-solve log entry (shared across the attack engine).
using SolveRecord = engine::SolveRecord;
using engine::solve_record_json;

enum class SatAttackStatus {
  kKeyFound,       ///< miter UNSAT, consistent key extracted
  kTimeout,        ///< budget exhausted (the paper's "infinity" rows)
  kIterationLimit,
  kInconsistent,   ///< no key matches the collected I/O pairs (morphing)
};

/// What every DIP-loop attack reports besides its status and key.
struct DipLoopStats {
  std::size_t iterations = 0;     ///< DIPs used
  double seconds = 0.0;
  /// CDCL conflicts across all miter-portfolio members (equals the single
  /// miter solver's conflicts when jobs == 1).
  std::uint64_t conflicts = 0;
  /// Total I/O-constraint clauses added across the run.
  std::size_t encoded_clauses = 0;
  /// Per-solve portfolio stats; filled when options.record_solves is set.
  std::vector<SolveRecord> solve_log;
  /// --- certification (options.certify) ---------------------------------
  ProofStatus proof_status = ProofStatus::kNotRequested;
  /// Steps in the final miter certificate (originals + derivations +
  /// deletions), 0 unless a certificate was produced.
  std::uint64_t proof_steps = 0;
  /// Published on-disk certificate (options.proof_file set): final path
  /// and size in bytes. Empty/0 when no certificate was published.
  std::string proof_path;
  std::uint64_t proof_bytes = 0;
  /// False iff some SAT model failed the replay self-check (unsound SAT).
  bool models_verified = true;
  /// --- preprocessing (options.preprocess) ------------------------------
  /// True when the miter formula went through the preprocessor; `preprocess`
  /// then holds the miter-side simplification statistics.
  bool preprocessed = false;
  sat::PreprocessStats preprocess;
  /// --- inprocessing (options.inprocess) --------------------------------
  /// True when restart-time inprocessing was enabled on the portfolios;
  /// `inprocess` then aggregates the miter members' counters.
  bool inprocessed = false;
  sat::InprocessStats inprocess;
};

struct SatAttackResult : DipLoopStats {
  SatAttackStatus status = SatAttackStatus::kTimeout;
  /// Valid iff status == kKeyFound: the lexicographically smallest
  /// consistent key. At miter-UNSAT every consistent key is functionally
  /// correct, so this one does not depend on the DIP order (hence not on
  /// the jobs count or a portfolio race).
  std::vector<bool> key;
};

std::string to_string(SatAttackStatus status);

/// Runs the attack. `locked` must be the attacker's view (combinational,
/// with key inputs); `oracle` answers input queries.
SatAttackResult run_sat_attack(const netlist::Netlist& locked, QueryOracle& oracle,
                               const SatAttackOptions& options = {});

}  // namespace ril::attacks
