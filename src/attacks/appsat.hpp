// AppSAT (Shamsi et al.): approximate SAT attack.
//
// Interleaves the exact DIP loop with periodic random-query reinforcement
// and an empirical error estimate of the current candidate key; terminates
// early once the estimated error drops below a threshold, returning an
// approximate key. Against high-corruptibility schemes (RIL-Blocks) the
// error never settles, and against a Scan-Enable-obfuscated oracle the
// returned key is wrong for the functional circuit -- the "AppSAT fails"
// column of Table III. Runs on the SAT attack's engine::DipLoop: the settle
// step is the only thing AppSAT adds between its iterations.
#pragma once

#include <cstdint>
#include <vector>

#include "attacks/oracle.hpp"
#include "attacks/sat_attack.hpp"
#include "netlist/netlist.hpp"

namespace ril::attacks {

/// The shared DIP-loop options plus AppSAT's settle step.
struct AppSatOptions : SatAttackOptions {
  /// Run the reinforcement/estimation step every `settle_interval` DIPs.
  std::size_t settle_interval = 4;
  /// Random queries per reinforcement step.
  std::size_t random_queries = 32;
  /// Terminate when the sampled error rate is below this threshold.
  double error_threshold = 0.01;
  /// Seed for the random-query generator.
  std::uint64_t seed = 1;
};

enum class AppSatStatus {
  kExact,        ///< DIP loop converged (same as the full SAT attack)
  kApproximate,  ///< early exit with sampled error <= threshold
  kTimeout,
  kIterationLimit,
  kInconsistent,  ///< candidate-key extraction became UNSAT
};

struct AppSatResult : DipLoopStats {
  AppSatStatus status = AppSatStatus::kTimeout;
  /// kExact: the canonical key (as run_sat_attack returns it);
  /// kApproximate: the candidate whose sampled error settled.
  std::vector<bool> key;
  /// Sampled error rate of `key` against the oracle at termination.
  double sampled_error = 1.0;
};

std::string to_string(AppSatStatus status);

AppSatResult run_appsat(const netlist::Netlist& locked, QueryOracle& oracle,
                        const AppSatOptions& options = {});

}  // namespace ril::attacks
