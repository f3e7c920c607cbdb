#include "attacks/engine/dip_loop.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>

#include "sat/drat_check.hpp"

namespace ril::attacks::engine {

using runtime::SolverPortfolio;
using sat::Lit;
using sat::Var;

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

DipLoop::DipLoop(const netlist::Netlist& locked, QueryOracle& oracle,
                 const SatAttackOptions& options, DipEncoding& encoding)
    : oracle_(oracle),
      options_(options),
      encoding_(encoding),
      budget_(options.time_limit_seconds, options.cancel),
      miter_(options.jobs, options.portfolio_seed),
      key_solver_(options.jobs, options.portfolio_seed + 0x9e37) {
  budget_.enable_recording(options.record_solves);
  const bool preprocess =
      options.preprocess == PreprocessMode::kOn ||
      (options.preprocess == PreprocessMode::kAuto &&
       locked.gate_count() >= kPreprocessAutoMinGates);
  const bool freeze = preprocess || options.inprocess;

  // Miter portfolio: shared X, independent K1 / K2 in every member.
  miter_.set_limits(budget_.limits());
  // Certification: proof logging must precede the miter encoding so every
  // member's trace carries the full axiom stream. Only the miter verdict
  // is certified -- the UNSAT that terminates the DIP loop is the claim
  // the paper's iteration counts rest on.
  if (options.certify) {
    certificate_ = std::make_unique<CertificatePath>(options.proof_file);
    miter_.enable_proof(certificate_->path());
  }
  if (preprocess) miter_.enable_preprocessing();
  if (options.inprocess) miter_.enable_inprocessing();
  miter_vars_ = encoding_.encode_miter(miter_);
  if (freeze) {
    // The loop reads X from each model and adds constraints over both key
    // bundles, so those variables must survive elimination (and stay
    // exempt from failed-literal probing).
    miter_.freeze(miter_vars_.inputs);
    miter_.freeze(miter_vars_.keys[0]);
    miter_.freeze(miter_vars_.keys[1]);
  }

  // Key-determination portfolio: one key bundle constrained by all DIPs.
  key_solver_.set_limits(budget_.limits());
  if (preprocess) key_solver_.enable_preprocessing();
  if (options.inprocess) key_solver_.enable_inprocessing();
  key_vars_ = encoding_.make_key(key_solver_);
  if (freeze) key_solver_.freeze(key_vars_);
}

DipLoop::~DipLoop() = default;

bool DipLoop::within_budget(SolverPortfolio& portfolio) {
  if (!budget_.limited() && !budget_.cancelled()) return true;
  if (budget_.expired()) return false;
  portfolio.set_limits(budget_.limits());
  return true;
}

std::optional<SatAttackStatus> DipLoop::step() {
  if (options_.max_iterations != 0 &&
      stats_.iterations >= options_.max_iterations) {
    return SatAttackStatus::kIterationLimit;
  }
  if (!within_budget(miter_)) return SatAttackStatus::kTimeout;
  const runtime::SolveOutcome outcome = miter_.solve();
  budget_.record(stats_.iterations, "miter", outcome);
  if (outcome.model_verified == 0) stats_.models_verified = false;
  if (outcome.result == sat::Result::kUnknown) {
    return SatAttackStatus::kTimeout;
  }
  if (outcome.result == sat::Result::kUnsat) {
    // The winner's trace is the certificate; validate it before trusting
    // the verdict.
    if (options_.certify) publish_and_check(/*refutation=*/true);
    // No DIP remains: any consistent key unlocks the circuit.
    switch (candidate_key(key_)) {
      case sat::Result::kSat:
        canonicalize_key();
        return SatAttackStatus::kKeyFound;
      case sat::Result::kUnsat:
        return SatAttackStatus::kInconsistent;
      default:
        return SatAttackStatus::kTimeout;
    }
  }

  // SAT: extract a DIP, query the oracle, constrain both copies.
  std::vector<bool> dip;
  dip.reserve(miter_vars_.inputs.size());
  for (Var v : miter_vars_.inputs) dip.push_back(miter_.model_bool(v));
  constrain(dip, oracle_.query(dip));
  ++stats_.iterations;
  return std::nullopt;
}

SatAttackStatus DipLoop::run() {
  while (true) {
    if (const auto status = step()) return *status;
  }
}

sat::Result DipLoop::candidate_key(std::vector<bool>& key) {
  if (!within_budget(key_solver_)) return sat::Result::kUnknown;
  const runtime::SolveOutcome outcome = key_solver_.solve();
  budget_.record(stats_.iterations, "key", outcome);
  if (outcome.result == sat::Result::kSat) {
    key.clear();
    key.reserve(key_vars_.size());
    for (Var v : key_vars_) key.push_back(key_solver_.model_bool(v));
  }
  return outcome.result;
}

void DipLoop::canonicalize_key() {
  // Lexicographic minimization: fix each key bit to 0 when some consistent
  // key allows it. Every consistent key is functionally correct here, so
  // the minimum is a valid unlock key and does not depend on the DIP order
  // (hence not on the jobs count). If the budget runs out first, the
  // model key stands.
  std::vector<Lit> fixed;
  fixed.reserve(key_vars_.size());
  for (Var v : key_vars_) {
    if (!within_budget(key_solver_)) return;
    fixed.push_back(Lit::make(v, true));  // try bit = 0
    const sat::Result probe = key_solver_.solve(fixed).result;
    if (probe == sat::Result::kUnsat) {
      fixed.back() = Lit::make(v);  // forced to 1
    } else if (probe != sat::Result::kSat) {
      return;
    }
  }
  for (std::size_t i = 0; i < fixed.size(); ++i) key_[i] = !fixed[i].sign();
}

void DipLoop::constrain(const std::vector<bool>& x,
                        const std::vector<bool>& y) {
  std::size_t clauses =
      encoding_.add_constraint(miter_, miter_vars_.keys[0], x, y);
  clauses += encoding_.add_constraint(miter_, miter_vars_.keys[1], x, y);
  clauses += encoding_.add_constraint(key_solver_, key_vars_, x, y);
  budget_.add_constraints(clauses);
}

void DipLoop::publish_and_check(bool refutation) {
  // Publishes the winning member's trace and validates it with the
  // independent streaming checker, re-reading it from disk: as a
  // refutation after miter-UNSAT, as an open certificate (every step
  // checks, no empty clause) when the attack stopped first.
  const sat::FileProofTracer* trace = miter_.winner_trace();
  if (trace == nullptr || (refutation && !trace->closed())) {
    stats_.proof_status = ProofStatus::kMissing;
    return;
  }
  const std::string& path = certificate_->path();
  stats_.proof_steps = trace->steps();
  const std::uint64_t bytes = miter_.promote_winner_trace(path);
  const sat::DratCheckResult check = refutation
                                         ? sat::check_refutation_file(path)
                                         : sat::check_derivations_file(path);
  stats_.proof_status = !check.valid  ? ProofStatus::kInvalid
                        : refutation ? ProofStatus::kValid
                                     : ProofStatus::kOpen;
  if (!certificate_->temporary()) {
    stats_.proof_path = path;
    stats_.proof_bytes = bytes;
  }
}

void DipLoop::finish(DipLoopStats& out) {
  if (options_.certify && stats_.proof_status == ProofStatus::kNotRequested) {
    // The attack stopped before miter-UNSAT (timeout, iteration cap,
    // AppSAT's approximate exit). A caller-named certificate is still
    // worth publishing: every derivation in it RUP-checks against the
    // logged axioms, so it is an *open* certificate of the work done so
    // far -- exactly what `ril check-proof --open` accepts. On 200k+-gate
    // hosts the final whole-miter refutation is beyond the CDCL core, so
    // this is the certificate such runs actually produce (see
    // docs/SCALING.md). A private temp certificate would be checked only
    // to be discarded, so that run reports kMissing and its member temps
    // are dropped.
    if (certificate_->temporary()) {
      stats_.proof_status = ProofStatus::kMissing;
    } else {
      publish_and_check(/*refutation=*/false);
    }
  }
  stats_.seconds = budget_.elapsed();
  stats_.conflicts = miter_.total_conflicts();
  if (const sat::PreprocessStats* prep = miter_.preprocess_stats()) {
    stats_.preprocessed = true;
    stats_.preprocess = *prep;
  }
  if (miter_.inprocessing_enabled()) {
    stats_.inprocessed = true;
    stats_.inprocess = miter_.inprocess_stats_total();
  }
  stats_.encoded_clauses = budget_.encoded_clauses();
  stats_.solve_log = budget_.take_log();
  out = std::move(stats_);
}

}  // namespace ril::attacks::engine
