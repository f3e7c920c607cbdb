#include "attacks/sat_attack.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "attacks/engine/dip_encoder.hpp"
#include "attacks/engine/miter_context.hpp"
#include "sat/drat_check.hpp"

namespace ril::attacks {

using netlist::Netlist;
using runtime::SolverPortfolio;
using sat::Lit;
using sat::Var;

std::string to_string(ProofStatus status) {
  switch (status) {
    case ProofStatus::kNotRequested: return "not-requested";
    case ProofStatus::kValid: return "valid";
    case ProofStatus::kOpen: return "open";
    case ProofStatus::kInvalid: return "invalid";
    case ProofStatus::kMissing: return "missing";
  }
  return "?";
}

namespace {

/// Where a certified attack publishes its miter certificate: the caller's
/// proof_file, or else a private temp file that is removed once checked.
/// Temp names are unique per process and call, so concurrent certified
/// attacks (campaign cells, service workers) never share one.
class CertificatePath {
 public:
  explicit CertificatePath(const std::string& proof_file)
      : path_(proof_file.empty() ? unique_temp_path() : proof_file),
        temporary_(proof_file.empty()) {}
  ~CertificatePath() {
    if (temporary_) std::remove(path_.c_str());
  }
  CertificatePath(const CertificatePath&) = delete;
  CertificatePath& operator=(const CertificatePath&) = delete;

  const std::string& path() const { return path_; }
  bool temporary() const { return temporary_; }

 private:
  static std::string unique_temp_path() {
    static std::atomic<std::uint64_t> counter{0};
    const std::string name = "ril-certificate-" + std::to_string(::getpid()) +
                             "-" + std::to_string(counter++) + ".drat";
    return (std::filesystem::temp_directory_path() / name).string();
  }

  std::string path_;
  bool temporary_;
};

}  // namespace

std::string to_string(SatAttackStatus status) {
  switch (status) {
    case SatAttackStatus::kKeyFound: return "key-found";
    case SatAttackStatus::kTimeout: return "timeout";
    case SatAttackStatus::kIterationLimit: return "iteration-limit";
    case SatAttackStatus::kInconsistent: return "inconsistent";
  }
  return "?";
}

SatAttackResult run_sat_attack(const Netlist& locked, QueryOracle& oracle,
                               const SatAttackOptions& options) {
  engine::AttackBudget budget(options.time_limit_seconds, options.cancel);
  budget.enable_recording(options.record_solves);

  SatAttackResult result;

  // Preprocessing is explicit opt-in on small hosts (keeps --jobs 1 runs
  // bit-identical to the historical path) and automatic at scale, where
  // the miter is large enough for BVE/subsumption to pay off.
  const bool preprocess =
      options.preprocess ||
      (options.preprocess_auto &&
       locked.gate_count() >= options.preprocess_auto_min_gates);

  // Miter portfolio: shared X, independent K1 / K2 in every member.
  SolverPortfolio miter(options.jobs, options.portfolio_seed);
  miter.set_external_stop(budget.stop_flag());
  // Certification: proof logging must precede the miter encoding so every
  // member's trace carries the full axiom stream. Only the miter verdict
  // is certified -- the UNSAT that terminates the DIP loop is the claim
  // the paper's iteration counts rest on.
  std::optional<CertificatePath> certificate;
  if (options.certify) {
    certificate.emplace(options.proof_file);
    miter.enable_proof(certificate->path());
  }
  // Publishes the winning member's trace and validates it with the
  // independent streaming checker, re-reading it from disk: as a
  // refutation after miter-UNSAT, as an open certificate (every step
  // checks, no empty clause) when the attack stopped first.
  const auto publish_and_check = [&](bool refutation) {
    const sat::FileProofTracer* trace = miter.winner_trace();
    if (trace == nullptr || (refutation && !trace->closed())) {
      result.proof_status = ProofStatus::kMissing;
      return;
    }
    const std::string& path = certificate->path();
    result.proof_steps = trace->steps();
    const std::uint64_t bytes = miter.promote_winner_trace(path);
    const sat::DratCheckResult check =
        refutation ? sat::check_refutation_file(path)
                   : sat::check_derivations_file(path);
    result.proof_status = !check.valid  ? ProofStatus::kInvalid
                          : refutation ? ProofStatus::kValid
                                       : ProofStatus::kOpen;
    if (!certificate->temporary()) {
      result.proof_path = path;
      result.proof_bytes = bytes;
    }
  };
  if (preprocess) miter.enable_preprocessing();
  if (options.inprocess) miter.enable_inprocessing();
  const engine::MiterContext ctx = [&]() -> engine::MiterContext {
    if (options.miter_skeleton != nullptr) {
      return engine::MiterContext(locked, *options.miter_skeleton, miter);
    }
    return engine::MiterContext(locked, miter, options.capture_skeleton);
  }();
  if (preprocess || options.inprocess) {
    // The DIP loop reads X from each model and adds constraints over both
    // key vectors, so those variables must survive elimination (and stay
    // exempt from failed-literal probing).
    miter.freeze(ctx.input_vars());
    miter.freeze(ctx.copy(0).key_vars);
    miter.freeze(ctx.copy(1).key_vars);
  }

  // Key-determination portfolio: one key vector constrained by all DIPs.
  SolverPortfolio key_solver(options.jobs, options.portfolio_seed + 0x9e37);
  key_solver.set_external_stop(budget.stop_flag());
  if (preprocess) key_solver.enable_preprocessing();
  if (options.inprocess) key_solver.enable_inprocessing();
  const std::vector<Var> key_vars =
      engine::make_vars(key_solver, locked.key_inputs().size());
  if (preprocess || options.inprocess) key_solver.freeze(key_vars);

  engine::DipConstraintEncoder dips(locked, options.specialize_dips);

  while (true) {
    if (options.max_iterations != 0 &&
        result.iterations >= options.max_iterations) {
      result.status = SatAttackStatus::kIterationLimit;
      break;
    }
    if (budget.limited() || budget.cancelled()) {
      if (budget.expired()) {
        result.status = SatAttackStatus::kTimeout;
        break;
      }
      miter.set_limits(budget.limits());
    }
    const runtime::SolveOutcome miter_outcome = miter.solve();
    budget.record(result.iterations, "miter", miter_outcome);
    if (miter_outcome.model_verified == 0) result.models_verified = false;
    const sat::Result r = miter_outcome.result;
    if (r == sat::Result::kUnknown) {
      result.status = SatAttackStatus::kTimeout;
      break;
    }
    if (r == sat::Result::kUnsat) {
      // The winner's trace is the certificate; validate it before
      // trusting the verdict.
      if (options.certify) publish_and_check(/*refutation=*/true);
      // No DIP remains: extract any consistent key.
      if (budget.limited() || budget.cancelled()) {
        if (budget.expired()) {
          result.status = SatAttackStatus::kTimeout;
          break;
        }
        key_solver.set_limits(budget.limits());
      }
      const runtime::SolveOutcome key_outcome = key_solver.solve();
      budget.record(result.iterations, "key", key_outcome);
      const sat::Result kr = key_outcome.result;
      if (kr == sat::Result::kSat) {
        result.key.reserve(key_vars.size());
        for (Var v : key_vars) result.key.push_back(key_solver.model_bool(v));
        result.status = SatAttackStatus::kKeyFound;
        if (options.canonical_key) {
          // Lexicographic minimization: fix each key bit to 0 when some
          // consistent key allows it. Every consistent key is functionally
          // correct here, so the minimum is a valid unlock key and does
          // not depend on the DIP order (hence not on the jobs count).
          std::vector<Lit> fixed;
          fixed.reserve(key_vars.size());
          bool complete = true;
          for (std::size_t i = 0; i < key_vars.size(); ++i) {
            if (budget.limited() || budget.cancelled()) {
              if (budget.expired()) {
                complete = false;
                break;
              }
              key_solver.set_limits(budget.limits());
            }
            fixed.push_back(Lit::make(key_vars[i], true));  // try bit = 0
            const runtime::SolveOutcome probe = key_solver.solve(fixed);
            if (probe.result == sat::Result::kUnsat) {
              fixed.back() = Lit::make(key_vars[i]);  // forced to 1
            } else if (probe.result != sat::Result::kSat) {
              complete = false;  // budget expired; keep the model key
              break;
            }
          }
          if (complete) {
            for (std::size_t i = 0; i < key_vars.size(); ++i) {
              result.key[i] = !fixed[i].sign();
            }
          }
        }
      } else if (kr == sat::Result::kUnsat) {
        result.status = SatAttackStatus::kInconsistent;
      } else {
        result.status = SatAttackStatus::kTimeout;
      }
      break;
    }

    // SAT: extract a DIP, query the oracle, constrain both copies.
    const std::vector<bool> dip =
        ctx.extract_dip([&](Var v) { return miter.model_bool(v); });
    const std::vector<bool> response = oracle.query(dip);
    engine::ConstraintStats stats =
        dips.add_constraint(miter, ctx.copy(0).key_vars, dip, response);
    stats += dips.add_constraint(miter, ctx.copy(1).key_vars, dip, response);
    stats += dips.add_constraint(key_solver, key_vars, dip, response);
    budget.add_constraints(stats);
    ++result.iterations;
  }

  if (options.certify &&
      result.proof_status == ProofStatus::kNotRequested) {
    // The attack stopped before miter-UNSAT (timeout, iteration cap). A
    // caller-named certificate is still worth publishing: every
    // derivation in it RUP-checks against the logged axioms, so it is an
    // *open* certificate of the work done so far -- exactly what
    // `ril check-proof --open` accepts. On 200k+-gate hosts the final
    // whole-miter refutation is beyond the CDCL core, so this is the
    // certificate such runs actually produce (see docs/SCALING.md). A
    // private temp certificate would be checked only to be discarded, so
    // that run reports kMissing and its member temps are dropped.
    if (certificate->temporary()) {
      result.proof_status = ProofStatus::kMissing;
    } else {
      publish_and_check(/*refutation=*/false);
    }
  }
  result.seconds = budget.elapsed();
  result.conflicts = miter.total_conflicts();
  if (const sat::PreprocessStats* prep = miter.preprocess_stats()) {
    result.preprocessed = true;
    result.preprocess = *prep;
  }
  if (miter.inprocessing_enabled()) {
    result.inprocessed = true;
    result.inprocess = miter.inprocess_stats_total();
  }
  const engine::ConstraintStats totals = budget.constraint_totals();
  result.encoded_clauses = totals.encoded_clauses;
  result.saved_clauses = totals.saved_clauses;
  result.solve_log = budget.take_log();
  return result;
}

}  // namespace ril::attacks
