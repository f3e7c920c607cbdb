#include "attacks/sat_attack.hpp"

#include "attacks/engine/dip_encoder.hpp"
#include "attacks/engine/dip_loop.hpp"

namespace ril::attacks {

using netlist::Netlist;

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
  engine::PlainEncoding encoding(locked, options.miter_skeleton,
                                 options.capture_skeleton);
  engine::DipLoop loop(locked, oracle, options, encoding);
  SatAttackResult result;
  result.status = loop.run();
  if (result.status == SatAttackStatus::kKeyFound) result.key = loop.key();
  loop.finish(result);
  return result;
}

}  // namespace ril::attacks
