#include "attacks/appsat.hpp"

#include <random>

#include "attacks/engine/dip_encoder.hpp"
#include "attacks/engine/dip_loop.hpp"
#include "attacks/metrics.hpp"
#include "netlist/simulator.hpp"

namespace ril::attacks {

using netlist::Netlist;

std::string to_string(AppSatStatus status) {
  switch (status) {
    case AppSatStatus::kExact: return "exact";
    case AppSatStatus::kApproximate: return "approximate";
    case AppSatStatus::kTimeout: return "timeout";
    case AppSatStatus::kIterationLimit: return "iteration-limit";
    case AppSatStatus::kInconsistent: return "inconsistent";
  }
  return "?";
}

AppSatResult run_appsat(const Netlist& locked, QueryOracle& oracle,
                        const AppSatOptions& options) {
  engine::PlainEncoding encoding(locked);
  engine::DipLoop loop(locked, oracle, options, encoding);
  std::mt19937_64 rng(options.seed);
  netlist::Simulator sim(locked);  // reused across every settle step

  AppSatResult result;
  while (true) {
    if (const auto status = loop.step()) {
      result.status =
          *status == SatAttackStatus::kKeyFound ? AppSatStatus::kExact
          : *status == SatAttackStatus::kIterationLimit
              ? AppSatStatus::kIterationLimit
          : *status == SatAttackStatus::kInconsistent
              ? AppSatStatus::kInconsistent
              : AppSatStatus::kTimeout;
      if (result.status == AppSatStatus::kExact) {
        result.key = loop.key();
        result.sampled_error = 0.0;
      }
      break;
    }
    if (loop.iterations() % options.settle_interval != 0) continue;

    // Settle: reinforce with random queries the candidate key gets wrong
    // and estimate its error from them.
    std::vector<bool> candidate;
    const sat::Result kr = loop.candidate_key(candidate);
    if (kr == sat::Result::kUnsat) {
      result.status = AppSatStatus::kInconsistent;
      break;
    }
    if (kr == sat::Result::kUnknown) {
      result.status = AppSatStatus::kTimeout;
      break;
    }
    const auto mismatches = sample_key_mismatches(
        sim, candidate, oracle, options.random_queries, rng);
    for (const auto& [x, y] : mismatches) loop.constrain(x, y);
    const double error =
        options.random_queries == 0
            ? 1.0
            : static_cast<double>(mismatches.size()) / options.random_queries;
    if (error <= options.error_threshold) {
      result.status = AppSatStatus::kApproximate;
      result.key = std::move(candidate);
      result.sampled_error = error;
      break;
    }
  }
  loop.finish(result);
  return result;
}

}  // namespace ril::attacks
