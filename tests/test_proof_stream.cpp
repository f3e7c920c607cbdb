// Disk-backed proof streaming: FileProofTracer (binary DRAT, atomic
// temp+rename publish), TraceReader / check_refutation_file (single-pass
// streaming reads with bounded memory), truncation/garbage rejection, the
// portfolio's winner-trace promotion -- including composition with the
// SatELite preprocessor's step replay -- and a seeded byte-mutation fuzz
// over real attack certificates.
#include "sat/proof.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "attacks/oracle.hpp"
#include "attacks/sat_attack.hpp"
#include "benchgen/random_dag.hpp"
#include "locking/schemes.hpp"
#include "proof_test_util.hpp"
#include "runtime/portfolio.hpp"
#include "sat/drat_check.hpp"

namespace ril::sat {
namespace {

using proof_test::file_exists;
using proof_test::read_bytes;
using proof_test::read_steps;
using proof_test::ScratchPath;
using proof_test::write_bytes;
using runtime::SolverPortfolio;

void expect_same_steps(const std::vector<ProofStep>& a,
                       const std::vector<ProofStep>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "step " << i;
    EXPECT_EQ(a[i].lits, b[i].lits) << "step " << i;
  }
}

/// A pseudo-random but deterministic trace large enough to cross several
/// stream-buffer flushes (the tracer's buffer is 1 MiB by default; we use
/// a small one in the tests that care).
std::vector<ProofStep> make_large_trace(std::size_t steps,
                                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<ProofStep> trace;
  for (std::size_t i = 0; i < steps; ++i) {
    Clause lits;
    const std::size_t width = 1 + rng() % 8;
    for (std::size_t k = 0; k < width; ++k) {
      lits.push_back(Lit::make(static_cast<Var>(rng() % 5000), rng() & 1));
    }
    const ProofStepKind kinds[] = {ProofStepKind::kOriginal,
                                   ProofStepKind::kDerive,
                                   ProofStepKind::kErase};
    trace.push_back({kinds[rng() % 3], lits});
  }
  return trace;
}

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

// --- FileProofTracer --------------------------------------------------------

TEST(FileProofTracer, LargeTraceRoundTripsBitIdentically) {
  const ScratchPath scratch("large.drat");
  const std::string& path = scratch.str();
  const std::vector<ProofStep> reference = make_large_trace(50000, 42);

  // Stream with a deliberately tiny buffer so the flush path is exercised
  // thousands of times.
  {
    FileProofTracer tracer(path, /*buffer_bytes=*/256);
    for (const ProofStep& step : reference) tracer.append(step);
    EXPECT_EQ(tracer.steps(), reference.size());
    tracer.finalize();
    EXPECT_TRUE(tracer.finalized());
  }
  ASSERT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp")) << "temp must be renamed away";

  // The streaming reader agrees step-for-step.
  expect_same_steps(reference, read_steps(path));

  // A second streaming pass over the same steps must produce the same
  // bytes -- the binary encoding is deterministic.
  const std::string first = read_bytes(path);
  {
    FileProofTracer tracer(path, /*buffer_bytes=*/1 << 20);
    for (const ProofStep& step : reference) tracer.append(step);
    tracer.finalize();
  }
  EXPECT_EQ(first, read_bytes(path));
}

TEST(FileProofTracer, AbandonRemovesTempAndNeverPublishes) {
  const ScratchPath scratch("abandon.drat");
  const std::string& path = scratch.str();
  {
    FileProofTracer tracer(path);
    tracer.original({Lit::make(0)});
    tracer.abandon();
  }
  EXPECT_FALSE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));

  // Destruction without finalize() abandons too (the kill-mid-write
  // story: an un-finalized temp never shadows a published proof).
  {
    FileProofTracer tracer(path);
    tracer.derive({Lit::make(1, true)});
  }
  EXPECT_FALSE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST(FileProofTracer, StepsAfterFinalizeThrow) {
  const ScratchPath scratch("sealed.drat");
  FileProofTracer tracer(scratch.str());
  tracer.original({Lit::make(0)});
  tracer.finalize();
  EXPECT_THROW(tracer.derive({Lit::make(1)}), std::logic_error);
}

// --- truncation / garbage rejection -----------------------------------------

TEST(TraceReader, TruncatedBinaryTraceIsRejected) {
  const ScratchPath scratch("trunc.drat");
  const std::string& path = scratch.str();
  {
    // Originals only: every step is checker-acceptable, so the streaming
    // checker must reach the torn tail and flag the parse failure instead
    // of rejecting some semantically-invalid step before it.
    std::mt19937_64 rng(7);
    FileProofTracer tracer(path);
    for (int i = 0; i < 500; ++i) {
      Clause lits;
      for (int k = 0; k < 4; ++k) {
        lits.push_back(Lit::make(static_cast<Var>(rng() % 5000), rng() & 1));
      }
      tracer.original(lits);
    }
    tracer.finalize();
  }
  const std::string full = read_bytes(path);
  // Cut the file mid-stream, as a crashed writer would leave it (if it
  // ever published, which FileProofTracer does not -- this simulates
  // external tampering or a torn copy).
  write_bytes(path, full.substr(0, full.size() / 2));
  EXPECT_THROW(read_steps(path), std::runtime_error);
  const DratCheckResult check = check_refutation_file(path);
  EXPECT_FALSE(check.valid);
  EXPECT_TRUE(check.malformed) << check.error;

  // Dropping only the end marker must also be rejected: a clean EOF
  // without the marker is indistinguishable from a truncated tail.
  write_bytes(path, full.substr(0, full.size() - 3));
  EXPECT_THROW(read_steps(path), std::runtime_error);
}

TEST(TraceReader, GarbageAndBadFooterAreRejectedWithLocation) {
  const ScratchPath scratch("garbage.drat");
  const std::string& path = scratch.str();
  write_bytes(path, "this is not a proof trace\n");
  try {
    read_steps(path);
    FAIL() << "garbage trace must not parse";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte 0"), std::string::npos)
        << e.what();
  }

  const std::string header("\x8f" "DRAT\x01", 6);
  const std::string steps("o\x02\0a\x03\0", 6);  // o 1 0, a -1 0
  // Footer count disagrees with the steps.
  write_bytes(path, header + steps + "e\x05");
  try {
    read_steps(path);
    FAIL() << "bad footer count must not parse";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte 14"), std::string::npos)
        << e.what();
  }
  // Content after the footer.
  write_bytes(path, header + "o\x02" + std::string(1, '\0') + "e\x01" + "a");
  EXPECT_THROW(read_steps(path), std::runtime_error);
  // Footer missing entirely (torn tail).
  write_bytes(path, header + steps);
  EXPECT_THROW(read_steps(path), std::runtime_error);
}

TEST(TraceReader, FooterTamperRejectedEvenWhenRefutationChecks) {
  // A complete, checker-valid refutation whose end marker is then
  // corrupted: check_refutation_file must drain the reader past the empty
  // clause and reject the bad framing -- mid-trace literal flips can leave
  // a refutation that still checks, so the end marker is the integrity
  // anchor a tamper test can rely on.
  const ScratchPath scratch("footer-tamper.drat");
  const std::string& path = scratch.str();
  {
    FileProofTracer tracer(path);
    tracer.original({Lit::make(0)});
    tracer.original({Lit::make(0, true)});
    tracer.derive({});
    tracer.finalize();
  }
  ASSERT_TRUE(check_refutation_file(path).valid);

  std::string bytes = read_bytes(path);
  ASSERT_GE(bytes.size(), 2u);
  bytes.back() = static_cast<char>(bytes.back() + 1);  // declared step count
  write_bytes(path, bytes);
  const DratCheckResult check = check_refutation_file(path);
  EXPECT_FALSE(check.valid);
  EXPECT_TRUE(check.malformed);
  EXPECT_NE(check.error.find("end marker"), std::string::npos) << check.error;
}

TEST(TraceReader, EmptyFileIsACleanEmptyTrace) {
  const ScratchPath scratch("empty.drat");
  const std::string& path = scratch.str();
  write_bytes(path, "");
  TraceReader reader(path);
  ProofStep step;
  EXPECT_FALSE(reader.next(step));
  // Readable, but no certificate of anything -- open or closed.
  for (const DratCheckResult& check :
       {check_refutation_file(path), check_derivations_file(path)}) {
    EXPECT_FALSE(check.valid);
    EXPECT_FALSE(check.malformed);
    EXPECT_EQ(check.error, "empty trace");
  }
}

// --- portfolio winner promotion ---------------------------------------------

TEST(PortfolioProofFiles, WinnerIsPromotedAndLosersCleanedUp) {
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    const ScratchPath scratch("portfolio.drat");
    const std::string& stem = scratch.str();
    const unsigned jobs = 3;
    SolverPortfolio portfolio(jobs, seed);
    portfolio.enable_proof(stem);
    EXPECT_TRUE(portfolio.proof_enabled());
    add_pigeonhole(portfolio, 6, 5);
    const runtime::SolveOutcome outcome = portfolio.solve();
    ASSERT_EQ(outcome.result, Result::kUnsat);
    ASSERT_NE(portfolio.winner_trace(), nullptr);
    EXPECT_TRUE(portfolio.winner_trace()->closed());

    const std::uint64_t bytes = portfolio.promote_winner_trace(stem);
    EXPECT_GT(bytes, 0u);
    ASSERT_TRUE(file_exists(stem));
    for (unsigned i = 0; i < jobs; ++i) {
      const std::string member = stem + ".m" + std::to_string(i) + ".drat";
      EXPECT_FALSE(file_exists(member)) << member;
      EXPECT_FALSE(file_exists(member + ".tmp")) << member;
    }

    const DratCheckResult check = check_refutation_file(stem);
    EXPECT_TRUE(check.valid) << check.error;
    EXPECT_FALSE(check.malformed);

    // After promotion the portfolio detaches proof logging: later solves
    // are uncertified but still sound.
    EXPECT_FALSE(portfolio.proof_enabled());
    EXPECT_EQ(portfolio.winner_trace(), nullptr);
  }
}

TEST(PortfolioProofFiles, PreprocessorReplayPassesStreamingChecker) {
  const ScratchPath scratch("prep.drat");
  const std::string& stem = scratch.str();
  SolverPortfolio portfolio(2, 5);
  portfolio.enable_proof(stem);
  portfolio.enable_preprocessing();
  add_pigeonhole(portfolio, 7, 6);
  const runtime::SolveOutcome outcome = portfolio.solve();
  ASSERT_EQ(outcome.result, Result::kUnsat);
  ASSERT_NE(portfolio.winner_trace(), nullptr);
  ASSERT_TRUE(portfolio.winner_trace()->closed());
  portfolio.promote_winner_trace(stem);
  // The elimination/strengthening steps the preprocessor replayed into the
  // streamed trace must satisfy the independent streaming checker.
  const DratCheckResult check = check_refutation_file(stem);
  EXPECT_TRUE(check.valid) << check.error;
}

TEST(PortfolioProofFiles, EnableIsIdempotentAndPromotionNeedsProof) {
  // A second enable_proof is a no-op: the members keep streaming to the
  // first stem, and promotion without proof logging is a logic error.
  const ScratchPath first("idempotent-a.drat");
  const ScratchPath second("idempotent-b.drat");
  SolverPortfolio portfolio(1, 1);
  portfolio.enable_proof(first.str());
  portfolio.enable_proof(second.str());
  EXPECT_TRUE(portfolio.proof_enabled());
  EXPECT_TRUE(file_exists(first.str() + ".m0.drat.tmp"));
  EXPECT_FALSE(file_exists(second.str() + ".m0.drat.tmp"));

  SolverPortfolio plain(1, 1);
  EXPECT_FALSE(plain.proof_enabled());
  EXPECT_EQ(plain.winner_trace(), nullptr);
  EXPECT_THROW(plain.promote_winner_trace(second.str()), std::logic_error);
}

// --- certificate-mutation fuzz ----------------------------------------------
// Seeded byte-level mutants of real attack certificates: whatever the
// damage, check_*_file must return (no crash, hang, or runaway
// allocation), and every truncation or end-marker tamper must be rejected.

struct Corpus {
  std::string closed;  ///< refutation from a key-found certified attack
  std::string open;    ///< open certificate from an iteration-capped one
  std::uint64_t closed_steps = 0;
  std::uint64_t open_steps = 0;
};

const Corpus& corpus() {
  static const Corpus built = [] {
    benchgen::RandomDagParams params;
    params.num_inputs = 10;
    params.num_outputs = 5;
    params.num_gates = 80;
    params.seed = 3;
    const netlist::Netlist host = benchgen::generate_random_dag(params);
    const auto locked = locking::lock_xor(host, 8, 11);
    Corpus c;
    for (const std::size_t cap : {std::size_t{0}, std::size_t{1}}) {
      const ScratchPath path("fuzz-source.drat");
      attacks::Oracle oracle(locked.netlist, locked.key);
      attacks::SatAttackOptions options;
      options.certify = true;
      options.proof_file = path.str();
      options.max_iterations = cap;
      const auto r = attacks::run_sat_attack(locked.netlist, oracle, options);
      (cap == 0 ? c.closed : c.open) = read_bytes(path.str());
      (cap == 0 ? c.closed_steps : c.open_steps) = r.proof_steps;
    }
    return c;
  }();
  return built;
}

std::string end_marker(std::uint64_t steps) {
  std::string out = "e";
  while (steps >= 0x80) {
    out.push_back(static_cast<char>((steps & 0x7f) | 0x80));
    steps >>= 7;
  }
  out.push_back(static_cast<char>(steps));
  return out;
}

/// Checks `bytes` both ways; returns true iff neither check accepts it.
bool rejected(const std::string& bytes) {
  const ScratchPath path("fuzz-mutant.drat");
  write_bytes(path.str(), bytes);
  const DratCheckResult closed = check_refutation_file(path.str());
  const DratCheckResult open = check_derivations_file(path.str());
  if (closed.valid) {
    EXPECT_TRUE(open.valid) << "refutation but not open";
  }
  return !closed.valid && !open.valid;
}

TEST(CertificateFuzz, UnmutatedCertificatesPass) {
  const Corpus& c = corpus();
  ASSERT_GT(c.closed_steps, 0u);
  ASSERT_GT(c.open_steps, 0u);
  const ScratchPath path("fuzz-clean.drat");
  write_bytes(path.str(), c.closed);
  EXPECT_TRUE(check_refutation_file(path.str()).valid);
  write_bytes(path.str(), c.open);
  EXPECT_TRUE(check_derivations_file(path.str()).valid);
  const DratCheckResult closed = check_refutation_file(path.str());
  EXPECT_FALSE(closed.valid);
  EXPECT_FALSE(closed.malformed);
  // The corpus framing is what end-marker tampering rewrites below.
  for (const auto& [bytes, steps] :
       {std::pair{c.closed, c.closed_steps}, std::pair{c.open, c.open_steps}}) {
    const std::string marker = end_marker(steps);
    EXPECT_EQ(bytes.substr(bytes.size() - marker.size()), marker);
  }
}

TEST(CertificateFuzz, TruncationsAndEndMarkerTampersAreRejected) {
  const Corpus& c = corpus();
  std::mt19937_64 rng(2024);
  for (const auto& [bytes, steps] :
       {std::pair{c.closed, c.closed_steps}, std::pair{c.open, c.open_steps}}) {
    for (int i = 0; i < 60; ++i) {
      const std::size_t cut = 1 + rng() % (bytes.size() - 1);
      EXPECT_TRUE(rejected(bytes.substr(0, cut))) << "truncated at " << cut;
    }
    const std::string body =
        bytes.substr(0, bytes.size() - end_marker(steps).size());
    for (const std::int64_t delta : {-3, -1, 1, 2, 127, 128, 100000}) {
      const auto tampered = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(steps) + delta);
      EXPECT_TRUE(rejected(body + end_marker(tampered)))
          << "end marker count off by " << delta;
    }
    EXPECT_TRUE(rejected(body)) << "end marker dropped";
    EXPECT_TRUE(rejected(bytes + end_marker(steps))) << "end marker doubled";
  }
}

TEST(CertificateFuzz, ByteMutantsNeverCrash) {
  const Corpus& c = corpus();
  std::mt19937_64 rng(77);
  std::size_t accepted = 0;
  std::size_t total = 0;
  for (const std::string& bytes : {c.closed, c.open}) {
    for (int i = 0; i < 150; ++i) {
      std::string mutant = bytes;
      const std::size_t at = rng() % mutant.size();
      switch (i % 3) {
        case 0:  // flip some bits of one byte
          mutant[at] = static_cast<char>(mutant[at] ^ (1 + rng() % 255));
          break;
        case 1:  // insert a random byte
          mutant.insert(at, 1, static_cast<char>(rng() & 0xff));
          break;
        default:  // delete one byte
          mutant.erase(at, 1);
          break;
      }
      accepted += !rejected(mutant);
      ++total;
    }
  }
  // Most damage is caught by framing or RUP checks; the few survivors are
  // mutants that happen to stay well-framed sound proofs (e.g. a flipped
  // literal in a deletion that still names a live clause).
  EXPECT_LT(accepted, total / 4) << accepted << " of " << total
                                 << " mutants accepted";
}

}  // namespace
}  // namespace ril::sat
