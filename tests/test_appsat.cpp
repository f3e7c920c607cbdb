#include "attacks/appsat.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "attacks/metrics.hpp"
#include "benchgen/random_dag.hpp"
#include "cancelling_oracle.hpp"
#include "cnf/equivalence.hpp"
#include "locking/schemes.hpp"

namespace ril::attacks {
namespace {

using netlist::Netlist;

Netlist host_circuit(std::uint64_t seed = 1) {
  benchgen::RandomDagParams params;
  params.num_inputs = 16;
  params.num_outputs = 8;
  params.num_gates = 200;
  params.seed = seed;
  return benchgen::generate_random_dag(params);
}

TEST(AppSat, RecoversXorLockedKey) {
  const Netlist host = host_circuit(1);
  const auto locked = locking::lock_xor(host, 10, 41);
  Oracle oracle(locked.netlist, locked.key);
  const auto result = run_appsat(locked.netlist, oracle);
  ASSERT_TRUE(result.status == AppSatStatus::kExact ||
              result.status == AppSatStatus::kApproximate);
  EXPECT_TRUE(
      cnf::check_equivalence(locked.netlist, host, result.key, {})
          .equivalent());
}

TEST(AppSat, ApproximateExitOnOnePointFunction) {
  // AppSAT's reason to exist: SARLock's single corrupted pattern hides from
  // random sampling, so AppSAT settles early on an approximately-correct
  // key instead of enumerating 2^k DIPs.
  const Netlist host = host_circuit(2);
  const auto locked = locking::lock_sarlock(host, 14, 42);
  Oracle oracle(locked.netlist, locked.key);
  AppSatOptions options;
  options.settle_interval = 2;
  options.random_queries = 24;
  options.error_threshold = 0.05;
  const auto result = run_appsat(locked.netlist, oracle, options);
  ASSERT_EQ(result.status, AppSatStatus::kApproximate);
  EXPECT_LE(result.sampled_error, options.error_threshold);
  // Far fewer iterations than the exact attack would need (2^14 patterns).
  EXPECT_LT(result.iterations, 100u);
  // And the approximate key is nearly correct: error rate is tiny.
  const double error = functional_error_rate(locked.netlist, result.key,
                                             locked.key, 4096, 7);
  EXPECT_LT(error, 0.01);
}

TEST(AppSat, HighCorruptibilityPreventsEarlyExit) {
  // Against a RIL-locked circuit a wrong candidate key corrupts many
  // outputs, so the error estimate never settles below the threshold and
  // AppSAT must grind DIPs like the exact attack (or hit its budget).
  const Netlist host = host_circuit(3);
  core::RilBlockConfig config;
  config.size = 8;
  const auto ril = locking::lock_ril(host, 1, config, 43);
  Oracle oracle(ril.locked.netlist, ril.locked.key);
  AppSatOptions options;
  options.settle_interval = 2;
  options.random_queries = 16;
  options.error_threshold = 0.05;
  options.max_iterations = 12;
  options.time_limit_seconds = 30;
  const auto result = run_appsat(ril.locked.netlist, oracle, options);
  // Either it ran out of budget, or it converged exactly; it must not
  // declare an approximate success with a functionally broken key.
  if (result.status == AppSatStatus::kApproximate) {
    const double error = functional_error_rate(
        ril.locked.netlist, result.key, ril.locked.key, 4096, 8);
    EXPECT_LT(error, 0.1);
  } else {
    EXPECT_TRUE(result.status == AppSatStatus::kIterationLimit ||
                result.status == AppSatStatus::kExact ||
                result.status == AppSatStatus::kTimeout);
  }
}

TEST(AppSat, FailsAgainstScanObfuscatedOracle) {
  // Table III's AppSAT column: with Scan-Enable obfuscation active, any key
  // AppSAT returns is wrong for the functional circuit.
  std::size_t wrong = 0;
  std::size_t runs = 0;
  for (std::uint64_t seed = 50; seed < 54; ++seed) {
    const Netlist host = host_circuit(seed);
    core::RilBlockConfig config;
    config.size = 4;
    config.scan_obfuscation = true;
    const auto ril = locking::lock_ril(host, 1, config, seed);
    if (ril.info.oracle_scan_key == ril.info.functional_key) continue;
    Oracle oracle(ril.locked.netlist, ril.info.oracle_scan_key);
    AppSatOptions options;
    options.max_iterations = 64;
    options.time_limit_seconds = 30;
    const auto result = run_appsat(ril.locked.netlist, oracle, options);
    ++runs;
    if (result.key.empty()) {
      ++wrong;  // no key at all counts as failure to unlock
      continue;
    }
    auto deployed = result.key;
    for (std::size_t pos : ril.info.se_key_positions) deployed[pos] = false;
    if (!cnf::check_equivalence(ril.locked.netlist, host, deployed, {})
             .equivalent()) {
      ++wrong;
    }
  }
  ASSERT_GE(runs, 2u);
  EXPECT_GE(wrong, 1u);
}

TEST(AppSat, CancelMidRunStopsPromptly) {
  // The flag goes up while the second DIP is answered; the loop must stop
  // before its next miter solve and report a timeout.
  const Netlist host = host_circuit(8);
  core::RilBlockConfig config;
  config.size = 8;
  const auto ril = locking::lock_ril(host, 2, config, 88);
  Oracle inner(ril.locked.netlist, ril.locked.key);
  std::atomic<bool> cancel{false};
  CancellingOracle oracle(inner, cancel, 2);
  AppSatOptions options;
  options.cancel = &cancel;
  const auto result = run_appsat(ril.locked.netlist, oracle, options);
  EXPECT_EQ(result.status, AppSatStatus::kTimeout);
  EXPECT_EQ(result.iterations, 2u);
  EXPECT_TRUE(result.key.empty());
}

TEST(AppSat, StatusStrings) {
  EXPECT_EQ(to_string(AppSatStatus::kExact), "exact");
  EXPECT_EQ(to_string(AppSatStatus::kApproximate), "approximate");
  EXPECT_EQ(to_string(AppSatStatus::kInconsistent), "inconsistent");
}

}  // namespace
}  // namespace ril::attacks
