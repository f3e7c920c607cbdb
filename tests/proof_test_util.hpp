// Shared test helpers for binary DRAT certificates: scratch paths that
// clean up after themselves, a solver-attachable certificate, hand-written
// certificates in DIMACS literal numbering, and reading a certificate back
// step by step.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sat/drat_check.hpp"
#include "sat/proof.hpp"

namespace ril::sat::proof_test {

/// A path under gtest's temp dir, unique to this process; the file and
/// its ".tmp" sibling are removed when the object goes out of scope.
class ScratchPath {
 public:
  explicit ScratchPath(const std::string& name)
      : path_(::testing::TempDir() + "ril-" + std::to_string(::getpid()) +
              "-" + name) {}
  ~ScratchPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  ScratchPath(const ScratchPath&) = delete;
  ScratchPath& operator=(const ScratchPath&) = delete;

  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

inline std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

inline void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

inline bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

/// Every step of the certificate at `path`, in file order.
inline std::vector<ProofStep> read_steps(const std::string& path) {
  std::vector<ProofStep> steps;
  TraceReader reader(path);
  ProofStep step;
  while (reader.next(step)) steps.push_back(step);
  return steps;
}

/// A FileProofTracer at a scratch path. The check and read helpers seal
/// the trace first (sealing is idempotent), so a test can attach the
/// tracer to a solver, solve, and then query the published certificate.
class Certificate {
 public:
  explicit Certificate(const std::string& name) : path_(name) {}

  FileProofTracer& tracer() { return tracer_; }
  const std::string& path() const { return path_.str(); }

  DratCheckResult refutation() {
    tracer_.finalize();
    return check_refutation_file(path());
  }
  DratCheckResult derivations() {
    tracer_.finalize();
    return check_derivations_file(path());
  }
  std::vector<ProofStep> steps() {
    tracer_.finalize();
    return read_steps(path());
  }

 private:
  ScratchPath path_;  // declared first: removed after the tracer closes
  FileProofTracer tracer_{path_.str()};
};

/// DIMACS literal numbering: variable 0 <-> 1, negation <-> minus sign.
inline Clause dimacs(const std::vector<int>& lits) {
  Clause clause;
  for (const int l : lits) {
    clause.push_back(Lit::make(static_cast<Var>((l < 0 ? -l : l) - 1), l < 0));
  }
  return clause;
}

/// One hand-written step: 'o' axiom, 'a' derivation or 'd' deletion.
struct Step {
  char tag;
  std::vector<int> lits;
};

/// Writes `steps` as a sealed certificate and checks it as a refutation
/// (or, with `refutation == false`, as an open certificate).
inline DratCheckResult check_steps(const std::vector<Step>& steps,
                                   bool refutation = true) {
  Certificate cert("steps.drat");
  for (const Step& step : steps) {
    const Clause lits = dimacs(step.lits);
    switch (step.tag) {
      case 'o': cert.tracer().original(lits); break;
      case 'a': cert.tracer().derive(lits); break;
      case 'd': cert.tracer().erase(lits); break;
      default: ADD_FAILURE() << "unknown step tag " << step.tag;
    }
  }
  return refutation ? cert.refutation() : cert.derivations();
}

}  // namespace ril::sat::proof_test
