#include "attacks/sat_attack.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "attacks/metrics.hpp"
#include "benchgen/arithmetic.hpp"
#include "benchgen/random_dag.hpp"
#include "cnf/equivalence.hpp"
#include "locking/schemes.hpp"

namespace ril::attacks {
namespace {

using netlist::Netlist;

Netlist host_circuit(std::uint64_t seed = 1, std::size_t gates = 200) {
  benchgen::RandomDagParams params;
  params.num_inputs = 16;
  params.num_outputs = 8;
  params.num_gates = gates;
  params.seed = seed;
  return benchgen::generate_random_dag(params);
}

/// The attack must return a key that makes the locked circuit equivalent to
/// the host (not necessarily the original key -- any functionally correct
/// key wins).
void expect_attack_succeeds(const Netlist& host,
                            const locking::LockedCircuit& locked,
                            std::size_t expected_max_iterations = 0) {
  Oracle oracle(locked.netlist, locked.key);
  const SatAttackResult result = run_sat_attack(locked.netlist, oracle);
  ASSERT_EQ(result.status, SatAttackStatus::kKeyFound) << locked.scheme;
  EXPECT_TRUE(
      cnf::check_equivalence(locked.netlist, host, result.key, {})
          .equivalent())
      << locked.scheme;
  if (expected_max_iterations != 0) {
    EXPECT_LE(result.iterations, expected_max_iterations);
  }
}

TEST(SatAttack, BreaksXorLocking) {
  const Netlist host = host_circuit(1);
  expect_attack_succeeds(host, locking::lock_xor(host, 12, 21));
}

TEST(SatAttack, BreaksLutLocking) {
  const Netlist host = host_circuit(2);
  expect_attack_succeeds(host, locking::lock_lut(host, 3, 22));
}

TEST(SatAttack, BreaksSmallFullLock) {
  const Netlist host = host_circuit(3);
  expect_attack_succeeds(host, locking::lock_fulllock(host, 4, 23));
}

TEST(SatAttack, BreaksSmallRilBlock) {
  // A single 2x2 block must fall quickly (Table I, top-left corner).
  const Netlist host = host_circuit(4);
  core::RilBlockConfig config;
  config.size = 2;
  const auto ril = locking::lock_ril(host, 1, config, 24);
  expect_attack_succeeds(host, ril.locked);
}

TEST(SatAttack, SarlockNeedsManyIterations) {
  // SARLock forces ~2^k DIPs for k key bits: with k=6 expect >= 32
  // iterations; XOR locking needs far fewer on the same host.
  const Netlist host = host_circuit(5);
  const auto sar = locking::lock_sarlock(host, 6, 25);
  Oracle sar_oracle(sar.netlist, sar.key);
  const auto sar_result = run_sat_attack(sar.netlist, sar_oracle);
  ASSERT_EQ(sar_result.status, SatAttackStatus::kKeyFound);
  EXPECT_GE(sar_result.iterations, 32u);

  const auto xor_lock = locking::lock_xor(host, 6, 25);
  Oracle xor_oracle(xor_lock.netlist, xor_lock.key);
  const auto xor_result = run_sat_attack(xor_lock.netlist, xor_oracle);
  ASSERT_EQ(xor_result.status, SatAttackStatus::kKeyFound);
  EXPECT_LT(xor_result.iterations, sar_result.iterations);
}

TEST(SatAttack, TimeoutReported) {
  const Netlist host = host_circuit(6, 400);
  core::RilBlockConfig config;
  config.size = 8;
  config.output_network = true;
  const auto ril = locking::lock_ril(host, 2, config, 26);
  Oracle oracle(ril.locked.netlist, ril.locked.key);
  SatAttackOptions options;
  options.time_limit_seconds = 0.02;  // far too little
  const auto result = run_sat_attack(ril.locked.netlist, oracle, options);
  EXPECT_EQ(result.status, SatAttackStatus::kTimeout);
  EXPECT_LE(result.seconds, 2.0);
}

TEST(SatAttack, IterationLimitReported) {
  const Netlist host = host_circuit(7);
  const auto sar = locking::lock_sarlock(host, 10, 27);
  Oracle oracle(sar.netlist, sar.key);
  SatAttackOptions options;
  options.max_iterations = 3;
  const auto result = run_sat_attack(sar.netlist, oracle, options);
  EXPECT_EQ(result.status, SatAttackStatus::kIterationLimit);
  EXPECT_EQ(result.iterations, 3u);
}

TEST(SatAttack, ScanObfuscationYieldsWrongKey) {
  // Oracle answers through the scan interface (SE active): the attack may
  // still "find" a key consistent with scan-mode responses, but it cannot
  // tell "LUT=OR, SE inverts" from "LUT=NOR, SE idle". Deploying the
  // recovered LUT/routing keys (the SE bits are not attacker-programmable)
  // must therefore go wrong on a solid fraction of instances.
  std::size_t instances = 0;
  std::size_t wrong_deployments = 0;
  for (std::uint64_t seed = 30; seed < 36; ++seed) {
    const Netlist host = host_circuit(8 + seed);
    core::RilBlockConfig config;
    config.size = 4;
    config.scan_obfuscation = true;
    const locking::RilLocked ril = locking::lock_ril(host, 1, config, seed);
    if (ril.info.oracle_scan_key == ril.info.functional_key) continue;
    Oracle scan_oracle(ril.locked.netlist, ril.info.oracle_scan_key);
    const auto result = run_sat_attack(ril.locked.netlist, scan_oracle);
    ASSERT_EQ(result.status, SatAttackStatus::kKeyFound);
    // The recovered key always matches the scan-mode function...
    EXPECT_TRUE(cnf::check_equivalence(ril.locked.netlist, ril.locked.netlist,
                                       result.key, ril.info.oracle_scan_key)
                    .equivalent());
    // ...but with the hidden SE bits forced inactive it may not match the
    // functional circuit.
    auto deployed = result.key;
    for (std::size_t pos : ril.info.se_key_positions) deployed[pos] = false;
    ++instances;
    if (!cnf::check_equivalence(ril.locked.netlist, host, deployed, {})
             .equivalent()) {
      ++wrong_deployments;
    }
  }
  ASSERT_GE(instances, 3u);
  EXPECT_GE(wrong_deployments, 1u);
}

TEST(SatAttack, MorphingOracleEliminatesAttack) {
  const Netlist host = host_circuit(9);
  const auto lut = locking::lock_lut(host, 6, 31);
  Oracle oracle(lut.netlist, lut.key);
  // Re-randomize half the key bits every 2 queries.
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < lut.key.size(); i += 2) positions.push_back(i);
  oracle.enable_morphing(2, positions, 99);
  SatAttackOptions options;
  options.max_iterations = 200;
  options.time_limit_seconds = 30;
  const auto result = run_sat_attack(lut.netlist, oracle, options);
  // Inconsistent I/O constraints: either the key-extraction becomes UNSAT
  // or no consistent key survives to equivalence.
  if (result.status == SatAttackStatus::kKeyFound) {
    EXPECT_FALSE(
        cnf::check_equivalence(lut.netlist, host, result.key, {})
            .equivalent());
  } else {
    EXPECT_TRUE(result.status == SatAttackStatus::kInconsistent ||
                result.status == SatAttackStatus::kIterationLimit ||
                result.status == SatAttackStatus::kTimeout);
  }
}

TEST(SatAttack, StatusStrings) {
  EXPECT_EQ(to_string(SatAttackStatus::kKeyFound), "key-found");
  EXPECT_EQ(to_string(SatAttackStatus::kTimeout), "timeout");
  EXPECT_EQ(to_string(SatAttackStatus::kInconsistent), "inconsistent");
}

}  // namespace
}  // namespace ril::attacks
