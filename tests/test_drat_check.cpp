// Verdict certification: DRAT proof logging in the solver/portfolio, the
// independent forward RUP checker, the model self-check, and the certified
// end-to-end SAT attack.
#include "sat/drat_check.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <optional>
#include <random>
#include <thread>

#include "attacks/oracle.hpp"
#include "attacks/sat_attack.hpp"
#include "benchgen/random_dag.hpp"
#include "cnf/equivalence.hpp"
#include "core/ril_block.hpp"
#include "locking/schemes.hpp"
#include "proof_test_util.hpp"
#include "runtime/portfolio.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"

namespace ril::sat {
namespace {

using proof_test::Certificate;
using proof_test::check_steps;
using proof_test::read_steps;
using proof_test::ScratchPath;
using proof_test::write_bytes;
using runtime::SolverPortfolio;

void add_pigeonhole(ClauseSink& sink, int pigeons, int holes) {
  auto var = [&](int p, int h) { return p * holes + h; };
  sink.ensure_var(pigeons * holes - 1);
  for (int p = 0; p < pigeons; ++p) {
    Clause somewhere;
    for (int h = 0; h < holes; ++h) somewhere.push_back(Lit::make(var(p, h)));
    sink.add_clause(somewhere);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        sink.add_clause(
            {Lit::make(var(p1, h), true), Lit::make(var(p2, h), true)});
      }
    }
  }
}

// --- trace framing ----------------------------------------------------------

/// Magic header followed by `records` (raw binary step records).
std::string binary_trace(const std::string& records) {
  return std::string("\x8f" "DRAT\x01", 6) + records;
}

DratCheckResult check_bytes(const std::string& bytes) {
  ScratchPath path("bytes.drat");
  write_bytes(path.str(), bytes);
  return check_refutation_file(path.str());
}

TEST(ProofTrace, ParserRejectsMalformedInput) {
  // The well-formed baseline: o 1 0, o -1 0, a 0, end marker (3 steps).
  const std::string ok =
      binary_trace(std::string("o\x02\0o\x03\0a\0e\x03", 10));
  ASSERT_TRUE(check_bytes(ok).valid) << check_bytes(ok).error;

  const auto expect_malformed = [](const std::string& bytes,
                                   const std::string& what) {
    const DratCheckResult check = check_bytes(bytes);
    EXPECT_FALSE(check.valid) << what;
    EXPECT_TRUE(check.malformed) << what;
    EXPECT_NE(check.error.find(what), std::string::npos) << check.error;
  };
  expect_malformed("o 1 0\no -1 0\na 0\n", "bad binary magic header");
  expect_malformed(binary_trace("x\x02"), "unknown step tag");
  expect_malformed(binary_trace(std::string("a\x01\0e\x01", 5)),
                   "literal code out of range");
  expect_malformed(binary_trace("o\x02"), "truncated varint");
  expect_malformed(binary_trace(std::string("o\x02\0", 3)),
                   "missing end marker");
  expect_malformed(ok + "a", "trailing bytes after end marker");
  // A literal whose variable lies far beyond anything the file could
  // number densely is rejected before the checker sizes its tables.
  expect_malformed(
      binary_trace(std::string("o\xff\xff\xff\x07\0e\x01", 8)),
      "literal code out of range");
}

// --- checker on hand-written traces ---------------------------------------

TEST(DratCheck, AcceptsMinimalRefutation) {
  const DratCheckResult result =
      check_steps({{'o', {1}}, {'o', {-1}}, {'a', {}}});
  EXPECT_TRUE(result.valid) << result.error;
  EXPECT_EQ(result.stats.originals, 2u);
}

TEST(DratCheck, AcceptsResolutionChain) {
  // (x1 | x2) (x1 | -x2) (-x1 | x3) (-x1 | -x3) with the derived units.
  EXPECT_TRUE(check_steps({{'o', {1, 2}},
                           {'o', {1, -2}},
                           {'o', {-1, 3}},
                           {'o', {-1, -3}},
                           {'a', {1}},
                           {'a', {}}})
                  .valid);
}

TEST(DratCheck, RejectsOpenTrace) {
  const DratCheckResult result = check_steps({{'o', {1}}, {'o', {-1}}});
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.error.find("empty clause"), std::string::npos);
}

TEST(DratCheck, RejectsNonRupDerivation) {
  const DratCheckResult result =
      check_steps({{'o', {1, 2}}, {'a', {1}}, {'a', {}}});
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.error.find("not RUP"), std::string::npos);
}

TEST(DratCheck, RejectsUnfoundedEmptyClause) {
  EXPECT_FALSE(check_steps({{'o', {1}}, {'a', {}}}).valid);
}

TEST(DratCheck, RejectsDeletionOfUnknownClause) {
  const DratCheckResult result =
      check_steps({{'o', {1}}, {'o', {-1}}, {'d', {2, 3}}, {'a', {}}});
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.error.find("deletion"), std::string::npos);
}

TEST(DratCheck, DeletionRemovesPropagationPower) {
  // Without the deletion the final unit is RUP; after deleting the clause
  // that provided it, the derivation must be rejected.
  EXPECT_TRUE(check_steps({{'o', {1, 2}},
                           {'o', {-2}},
                           {'a', {1}},
                           {'o', {-1}},
                           {'a', {}}})
                  .valid);
  EXPECT_FALSE(check_steps({{'o', {1, 2}},
                            {'d', {1, 2}},
                            {'o', {-2}},
                            {'a', {1}},
                            {'o', {-1}},
                            {'a', {}}})
                   .valid);
}

TEST(DratCheck, HandlesTautologyAndDuplicateLiterals) {
  EXPECT_TRUE(
      check_steps({{'o', {1, -1}}, {'o', {2, 2}}, {'o', {-2}}, {'a', {}}})
          .valid);
}

// --- solver-emitted proofs -------------------------------------------------

TEST(SolverProof, PigeonholeRefutationChecks) {
  Solver solver;
  Certificate cert("pigeonhole.drat");
  solver.set_proof(&cert.tracer());
  add_pigeonhole(solver, 4, 3);
  ASSERT_EQ(solver.solve(), Result::kUnsat);
  ASSERT_TRUE(cert.tracer().closed());
  const DratCheckResult result = cert.refutation();
  EXPECT_TRUE(result.valid) << result.error;
  EXPECT_GT(result.stats.derivations, 0u);
}

TEST(SolverProof, SurvivesFileRoundTripAndRejectsMutations) {
  Solver solver;
  Certificate cert("roundtrip.drat");
  solver.set_proof(&cert.tracer());
  add_pigeonhole(solver, 5, 4);
  ASSERT_EQ(solver.solve(), Result::kUnsat);
  ASSERT_TRUE(cert.refutation().valid);
  const std::vector<ProofStep> steps = cert.steps();
  ASSERT_FALSE(steps.empty());
  EXPECT_EQ(steps.size(), cert.tracer().steps());

  // Re-encodes `steps` minus the one at `drop` as a fresh certificate.
  const auto check_without = [&](std::size_t drop) {
    Certificate mutant("roundtrip-mutant.drat");
    for (std::size_t i = 0; i < steps.size(); ++i) {
      if (i != drop) mutant.tracer().append(steps[i]);
    }
    return mutant.refutation();
  };
  // Corruption 1: drop the closing empty clause.
  EXPECT_TRUE(steps.back().kind == ProofStepKind::kDerive &&
              steps.back().lits.empty());
  EXPECT_FALSE(check_without(steps.size() - 1).valid);

  // Corruption 2: drop an axiom -- some later step loses its support.
  EXPECT_EQ(steps.front().kind, ProofStepKind::kOriginal);
  EXPECT_FALSE(check_without(0).valid);
}

TEST(SolverProof, DbReductionDeletionsStayCheckable) {
  // A tiny learned-clause cap forces reduce_learned_db (hence deletion
  // lines) many times before the refutation completes.
  Solver solver;
  SolverConfig config;
  config.max_learned = 32;
  config.restart_base = 16;
  solver.set_config(config);
  Certificate cert("dbreduce.drat");
  solver.set_proof(&cert.tracer());
  add_pigeonhole(solver, 7, 6);
  ASSERT_EQ(solver.solve(), Result::kUnsat);
  std::size_t deletions = 0;
  for (const ProofStep& step : cert.steps()) {
    deletions += step.kind == ProofStepKind::kErase;
  }
  EXPECT_GT(deletions, 0u) << "cap never triggered a DB reduction";
  const DratCheckResult result = cert.refutation();
  EXPECT_TRUE(result.valid) << result.error;
}

TEST(SolverProof, IncrementalSolvesShareOneTrace) {
  Solver solver;
  Certificate cert("incremental.drat");
  solver.set_proof(&cert.tracer());
  for (int i = 0; i < 6; ++i) solver.new_var();
  Clause any;
  for (int i = 0; i < 6; ++i) any.push_back(Lit::make(i));
  solver.add_clause(any);
  ASSERT_EQ(solver.solve(), Result::kSat);
  EXPECT_FALSE(cert.tracer().closed());
  EXPECT_TRUE(solver.verify_model());
  for (int i = 0; i < 6; ++i) {
    solver.add_clause({Lit::make(i, true)});
  }
  ASSERT_EQ(solver.solve(), Result::kUnsat);
  ASSERT_TRUE(cert.tracer().closed());
  const DratCheckResult result = cert.refutation();
  EXPECT_TRUE(result.valid) << result.error;
}

TEST(SolverProof, UnsatUnderAssumptionsEmitsFailedAssumptionCore) {
  // Minimized regression for the assumption-UNSAT certification gap: the
  // solve used to bail out without a final derivation, leaving a trace
  // that neither closed nor explained the conflict. Now it must end with
  // the failed-assumption core (here: the clause {x0, x1}, negating the
  // two assumptions), every step RUP over the logged axioms.
  Solver solver;
  Certificate cert("assumption-core.drat");
  solver.set_proof(&cert.tracer());
  solver.ensure_var(1);
  solver.add_clause({Lit::make(0), Lit::make(1)});
  ASSERT_EQ(solver.solve({Lit::make(0, true), Lit::make(1, true)}),
            Result::kUnsat);
  // Still no empty clause -- the formula itself is satisfiable.
  EXPECT_FALSE(cert.tracer().closed());
  const std::uint64_t steps_at_core = cert.tracer().steps();
  // The solver stays usable (it keeps logging into the same trace).
  ASSERT_EQ(solver.solve(), Result::kSat);
  EXPECT_TRUE(solver.verify_model());

  EXPECT_FALSE(cert.refutation().valid);
  // But the trace is a valid open certificate ending in the core.
  const DratCheckResult derivations = cert.derivations();
  EXPECT_TRUE(derivations.valid) << derivations.error;
  const std::vector<ProofStep> steps = cert.steps();
  ASSERT_GE(steps.size(), steps_at_core);
  ASSERT_GT(steps_at_core, 0u);
  const ProofStep& last = steps[steps_at_core - 1];
  EXPECT_EQ(last.kind, ProofStepKind::kDerive);
  Clause core = last.lits;
  std::sort(core.begin(), core.end(),
            [](Lit a, Lit b) { return a.code < b.code; });
  const Clause expected = {Lit::make(0), Lit::make(1)};
  EXPECT_EQ(core, expected);
}

TEST(SolverProof, FalsifiedAssumptionEmitsUnitCore) {
  // The other assumption-UNSAT exit: an assumption already falsified at
  // level 0 (x0 is forced true, assumed false). The core is the unit
  // clause {x0} -- one unit propagation from the axioms, hence RUP.
  Solver solver;
  Certificate cert("unit-core.drat");
  solver.set_proof(&cert.tracer());
  solver.ensure_var(0);
  solver.add_clause({Lit::make(0)});
  ASSERT_EQ(solver.solve({Lit::make(0, true)}), Result::kUnsat);
  EXPECT_FALSE(cert.tracer().closed());
  const DratCheckResult derivations = cert.derivations();
  EXPECT_TRUE(derivations.valid) << derivations.error;
  const std::vector<ProofStep> steps = cert.steps();
  ASSERT_FALSE(steps.empty());
  EXPECT_EQ(steps.back().kind, ProofStepKind::kDerive);
  const Clause expected = {Lit::make(0)};
  EXPECT_EQ(steps.back().lits, expected);
}

TEST(SolverProof, RootConflictFromAddClauseIsCertified) {
  Solver solver;
  Certificate cert("root-conflict.drat");
  solver.set_proof(&cert.tracer());
  solver.ensure_var(0);
  EXPECT_TRUE(solver.add_clause({Lit::make(0)}));
  EXPECT_FALSE(solver.add_clause({Lit::make(0, true)}));
  EXPECT_FALSE(solver.okay());
  ASSERT_TRUE(cert.tracer().closed());
  EXPECT_TRUE(cert.refutation().valid);
}

TEST(SolverProof, VerifyModelCoversAssumptions) {
  Solver solver;
  solver.ensure_var(1);
  solver.add_clause({Lit::make(0), Lit::make(1)});
  ASSERT_EQ(solver.solve({Lit::make(0)}), Result::kSat);
  EXPECT_TRUE(solver.verify_model({Lit::make(0)}));
  // A literal the model falsifies must fail the check.
  const Lit forced = solver.model_bool(0) ? Lit::make(0, true) : Lit::make(0);
  EXPECT_FALSE(solver.verify_model({forced}));
}

// --- portfolio certification ----------------------------------------------

TEST(PortfolioProof, WinnerTraceIsACertificate) {
  for (const unsigned jobs : {1u, 3u}) {
    const ScratchPath path("portfolio-winner.drat");
    SolverPortfolio portfolio(jobs, 7);
    portfolio.enable_proof(path.str());
    add_pigeonhole(portfolio, 6, 5);
    const runtime::SolveOutcome outcome = portfolio.solve();
    ASSERT_EQ(outcome.result, Result::kUnsat) << jobs << " jobs";
    EXPECT_GT(outcome.proof_steps, 0u);
    const FileProofTracer* trace = portfolio.winner_trace();
    ASSERT_NE(trace, nullptr);
    ASSERT_TRUE(trace->closed());
    EXPECT_EQ(trace->steps(), outcome.proof_steps);
    portfolio.promote_winner_trace(path.str());
    const DratCheckResult result = check_refutation_file(path.str());
    EXPECT_TRUE(result.valid) << jobs << " jobs: " << result.error;
  }
}

TEST(PortfolioProof, SatModelsSelfCheck) {
  const ScratchPath path("portfolio-sat.drat");
  SolverPortfolio portfolio(3, 9);
  portfolio.enable_proof(path.str());
  add_pigeonhole(portfolio, 5, 5);
  const runtime::SolveOutcome outcome = portfolio.solve();
  ASSERT_EQ(outcome.result, Result::kSat);
  EXPECT_EQ(outcome.model_verified, 1);
  const std::string json = runtime::to_json(outcome);
  EXPECT_NE(json.find("\"model_ok\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"proof_steps\":"), std::string::npos) << json;
}

TEST(PortfolioProof, JsonShapeUnchangedWithoutProof) {
  SolverPortfolio portfolio(1, 1);
  portfolio.ensure_var(0);
  portfolio.add_clause({Lit::make(0)});
  const runtime::SolveOutcome outcome = portfolio.solve();
  ASSERT_EQ(outcome.result, Result::kSat);
  const std::string json = runtime::to_json(outcome);
  EXPECT_EQ(json.find("proof_steps"), std::string::npos) << json;
  EXPECT_EQ(json.find("model_ok"), std::string::npos) << json;
}

// --- certified end-to-end attack -------------------------------------------

TEST(CertifiedAttack, RilBlockAttackProducesCheckableCertificate) {
  // A banyan+LUT RIL-Block from benchgen, attacked in portfolio mode with
  // certification on: the final miter-UNSAT trace must validate, and the
  // recovered key must unlock the circuit.
  benchgen::RandomDagParams params;
  params.num_inputs = 12;
  params.num_outputs = 6;
  params.num_gates = 120;
  params.seed = 17;
  const netlist::Netlist host = benchgen::generate_random_dag(params);
  core::RilBlockConfig config;
  config.size = 4;
  const auto ril = locking::lock_ril(host, 1, config, 33);

  attacks::Oracle oracle(ril.locked.netlist, ril.locked.key);
  const ScratchPath path("ril-block.drat");
  attacks::SatAttackOptions options;
  options.jobs = 2;  // a real portfolio race, as the acceptance bar asks
  options.certify = true;
  options.proof_file = path.str();
  const auto result =
      attacks::run_sat_attack(ril.locked.netlist, oracle, options);
  ASSERT_EQ(result.status, attacks::SatAttackStatus::kKeyFound);
  EXPECT_TRUE(result.models_verified);
  ASSERT_EQ(result.proof_status, attacks::ProofStatus::kValid);
  ASSERT_EQ(result.proof_path, path.str());
  const std::vector<ProofStep> steps = read_steps(path.str());
  EXPECT_EQ(result.proof_steps, steps.size());
  ASSERT_TRUE(check_refutation_file(path.str()).valid);

  // The recovered key passes the oracle (functional equivalence).
  EXPECT_TRUE(cnf::check_equivalence(ril.locked.netlist, host, result.key, {})
                  .equivalent());

  // A deliberately corrupted certificate is rejected: flip one literal in
  // a random derivation step and re-encode.
  std::mt19937 rng(1234);
  std::vector<std::size_t> derivation_steps;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const ProofStep& step = steps[i];
    if (step.kind == ProofStepKind::kDerive && step.lits.size() >= 2) {
      derivation_steps.push_back(i);
    }
  }
  ASSERT_FALSE(derivation_steps.empty());
  bool any_rejected = false;
  for (int trial = 0; trial < 4 && !any_rejected; ++trial) {
    const std::size_t at =
        derivation_steps[rng() % derivation_steps.size()];
    Certificate corrupt("ril-block-corrupt.drat");
    for (std::size_t i = 0; i < steps.size(); ++i) {
      ProofStep step = steps[i];
      if (i == at) {
        const std::size_t victim = rng() % step.lits.size();
        step.lits[victim] = ~step.lits[rng() % step.lits.size()];
      }
      corrupt.tracer().append(step);
    }
    any_rejected = !corrupt.refutation().valid;
  }
  EXPECT_TRUE(any_rejected)
      << "no corrupted variant of the certificate was rejected";
}

TEST(CertifiedAttack, CertifyOffByDefaultAndTimeoutReportsMissing) {
  benchgen::RandomDagParams params;
  params.num_inputs = 10;
  params.num_outputs = 5;
  params.num_gates = 80;
  params.seed = 3;
  const netlist::Netlist host = benchgen::generate_random_dag(params);
  const auto locked = locking::lock_xor(host, 8, 11);
  attacks::Oracle oracle(locked.netlist, locked.key);

  attacks::SatAttackOptions options;
  const auto plain = attacks::run_sat_attack(locked.netlist, oracle, options);
  EXPECT_EQ(plain.proof_status, attacks::ProofStatus::kNotRequested);
  EXPECT_TRUE(plain.proof_path.empty());

  attacks::Oracle oracle2(locked.netlist, locked.key);
  options.certify = true;
  options.max_iterations = 1;  // stop before any UNSAT can be reached
  const auto cut = attacks::run_sat_attack(locked.netlist, oracle2, options);
  if (cut.status == attacks::SatAttackStatus::kIterationLimit) {
    // Without a proof_file there is nowhere to publish an open
    // certificate; with one it is published instead (below).
    EXPECT_EQ(cut.proof_status, attacks::ProofStatus::kMissing);
  }
}

TEST(CertifiedAttack, CappedStreamedAttackPublishesOpenCertificate) {
  // An iteration-capped streamed attack cannot reach miter-UNSAT, but its
  // trace is still published as an open certificate: every derivation
  // RUP-checks against the logged axioms, no empty clause lands. This is
  // the certificate a 238k-gate certified run actually produces (the
  // whole-miter refutation there is beyond the CDCL core), so the small
  // host here stands in for the bench_netlist acceptance stage.
  benchgen::RandomDagParams params;
  params.num_inputs = 10;
  params.num_outputs = 5;
  params.num_gates = 80;
  params.seed = 3;
  const netlist::Netlist host = benchgen::generate_random_dag(params);
  const auto locked = locking::lock_xor(host, 8, 11);
  attacks::Oracle oracle(locked.netlist, locked.key);

  const ScratchPath scratch("open-cert.drat");
  const std::string& path = scratch.str();
  attacks::SatAttackOptions options;
  options.certify = true;
  options.proof_file = path;
  options.max_iterations = 1;
  const auto result =
      attacks::run_sat_attack(locked.netlist, oracle, options);
  ASSERT_EQ(result.status, attacks::SatAttackStatus::kIterationLimit);
  EXPECT_EQ(result.proof_status, attacks::ProofStatus::kOpen);
  ASSERT_EQ(result.proof_path, path);
  EXPECT_GT(result.proof_bytes, 0u);
  EXPECT_GT(result.proof_steps, 0u);
  EXPECT_TRUE(std::ifstream(path, std::ios::binary).good());

  // The published file passes the open-certificate check but is rejected
  // as a refutation -- well-formed, just not closed (no malformed flag).
  const DratCheckResult open_check = check_derivations_file(path);
  EXPECT_TRUE(open_check.valid) << open_check.error;
  EXPECT_GT(open_check.stats.originals, 0u);
  const DratCheckResult closed_check = check_refutation_file(path);
  EXPECT_FALSE(closed_check.valid);
  EXPECT_FALSE(closed_check.malformed);
  EXPECT_EQ(closed_check.error, "trace never derives the empty clause");
}

// --- private temp certificates (certify without proof_file) --------------

/// Points std::filesystem::temp_directory_path() at a fresh private
/// directory for the object's lifetime, so a test can see every temp file
/// a certified attack creates.
class PrivateTempDir {
 public:
  PrivateTempDir()
      : dir_(::testing::TempDir() + "ril-tmpdir-" +
             std::to_string(::getpid())) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    if (const char* old = std::getenv("TMPDIR")) old_ = old;
    ::setenv("TMPDIR", dir_.c_str(), 1);
  }
  ~PrivateTempDir() {
    if (old_) {
      ::setenv("TMPDIR", old_->c_str(), 1);
    } else {
      ::unsetenv("TMPDIR");
    }
    std::filesystem::remove_all(dir_);
  }

  std::vector<std::string> files() const {
    std::vector<std::string> out;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      out.push_back(entry.path().string());
    }
    return out;
  }

 private:
  std::string dir_;
  std::optional<std::string> old_;
};

/// Wraps an oracle and runs `hook` before answering each query -- while
/// the miter members are mid-trace.
class HookedOracle : public attacks::QueryOracle {
 public:
  HookedOracle(attacks::QueryOracle& inner, std::function<void()> hook)
      : inner_(inner), hook_(std::move(hook)) {}
  std::vector<bool> query(const std::vector<bool>& data) override {
    hook_();
    return inner_.query(data);
  }

 private:
  attacks::QueryOracle& inner_;
  std::function<void()> hook_;
};

TEST(CertifiedAttack, TempCertificateLeavesNoFileBehind) {
  benchgen::RandomDagParams params;
  params.num_inputs = 10;
  params.num_outputs = 5;
  params.num_gates = 80;
  params.seed = 3;
  const netlist::Netlist host = benchgen::generate_random_dag(params);
  const auto locked = locking::lock_xor(host, 8, 11);
  const PrivateTempDir tmp;
  attacks::SatAttackOptions options;
  options.certify = true;

  // Key found: the refutation is checked from the temp file, then removed.
  {
    attacks::Oracle oracle(locked.netlist, locked.key);
    options.jobs = 2;
    const auto r = attacks::run_sat_attack(locked.netlist, oracle, options);
    ASSERT_EQ(r.status, attacks::SatAttackStatus::kKeyFound);
    EXPECT_EQ(r.proof_status, attacks::ProofStatus::kValid);
    EXPECT_GT(r.proof_steps, 0u);
    EXPECT_TRUE(r.proof_path.empty());
    EXPECT_EQ(r.proof_bytes, 0u);
    EXPECT_TRUE(tmp.files().empty());
    options.jobs = 1;
  }
  // Iteration cap: nothing to publish, the member temps are dropped.
  {
    attacks::Oracle oracle(locked.netlist, locked.key);
    options.max_iterations = 1;
    const auto r = attacks::run_sat_attack(locked.netlist, oracle, options);
    ASSERT_EQ(r.status, attacks::SatAttackStatus::kIterationLimit);
    EXPECT_EQ(r.proof_status, attacks::ProofStatus::kMissing);
    EXPECT_TRUE(tmp.files().empty());
    options.max_iterations = 0;
  }
  // Cancelled mid-attack (reported as a timeout), and an expired budget.
  {
    attacks::Oracle oracle(locked.netlist, locked.key);
    std::atomic<bool> cancel{false};
    HookedOracle hooked(oracle, [&] {
      EXPECT_FALSE(tmp.files().empty()) << "member traces stream to TMPDIR";
      cancel = true;
    });
    options.cancel = &cancel;
    const auto r = attacks::run_sat_attack(locked.netlist, hooked, options);
    EXPECT_EQ(r.status, attacks::SatAttackStatus::kTimeout);
    EXPECT_EQ(r.proof_status, attacks::ProofStatus::kMissing);
    EXPECT_TRUE(tmp.files().empty());
    options.cancel = nullptr;

    options.time_limit_seconds = 1e-9;
    const auto t = attacks::run_sat_attack(locked.netlist, oracle, options);
    EXPECT_EQ(t.status, attacks::SatAttackStatus::kTimeout);
    EXPECT_TRUE(tmp.files().empty());
    options.time_limit_seconds = 0;
  }
  // The checker reports invalid: a byte written far past the end of the
  // winner's trace (as a disk fault would) leaves trailing garbage after
  // the end marker of the published temp certificate.
  {
    attacks::Oracle oracle(locked.netlist, locked.key);
    HookedOracle hooked(oracle, [&] {
      for (const std::string& file : tmp.files()) {
        const int fd = ::open(file.c_str(), O_WRONLY);
        ASSERT_GE(fd, 0) << file;
        EXPECT_EQ(::pwrite(fd, "x", 1, 1 << 24), 1);
        ::close(fd);
      }
    });
    const auto r = attacks::run_sat_attack(locked.netlist, hooked, options);
    ASSERT_EQ(r.status, attacks::SatAttackStatus::kKeyFound);
    EXPECT_EQ(r.proof_status, attacks::ProofStatus::kInvalid);
    EXPECT_TRUE(tmp.files().empty());
  }
  // Concurrent certified attacks (as in a certified campaign) never share
  // a temp name: every one validates its own certificate.
  {
    std::vector<attacks::ProofStatus> statuses(4);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      threads.emplace_back([&, i] {
        attacks::Oracle oracle(locked.netlist, locked.key);
        statuses[i] =
            attacks::run_sat_attack(locked.netlist, oracle, options)
                .proof_status;
      });
    }
    for (auto& t : threads) t.join();
    for (const attacks::ProofStatus status : statuses) {
      EXPECT_EQ(status, attacks::ProofStatus::kValid);
    }
    EXPECT_TRUE(tmp.files().empty());
  }
}

}  // namespace
}  // namespace ril::sat
