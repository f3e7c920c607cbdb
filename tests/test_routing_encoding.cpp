#include "attacks/routing_encoding.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "attacks/oracle.hpp"
#include "cancelling_oracle.hpp"
#include "benchgen/random_dag.hpp"
#include "cnf/equivalence.hpp"
#include "locking/schemes.hpp"

namespace ril::attacks {
namespace {

using netlist::Netlist;

Netlist host_circuit(std::uint64_t seed = 1) {
  benchgen::RandomDagParams params;
  params.num_inputs = 18;
  params.num_outputs = 9;
  params.num_gates = 220;
  params.seed = seed;
  return benchgen::generate_random_dag(params);
}

TEST(RoutingEncoding, DetectsBanyanNetwork) {
  const Netlist host = host_circuit(1);
  const auto lock = locking::lock_banyan_routing(host, 8, 41);
  const auto components = find_routing_networks(lock.netlist);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].inputs.size(), 8u);
  EXPECT_EQ(components[0].outputs.size(), 8u);
  EXPECT_EQ(components[0].members.size(), 24u);   // 12 switches * 2 MUXes
  EXPECT_EQ(components[0].key_inputs.size(), 12u);
  EXPECT_TRUE(components[0].terminal);
}

TEST(RoutingEncoding, IgnoresFullLockSwitches) {
  // FullLock's 4-MUX element shares each swap key across two route MUXes
  // but adds keyed-inversion MUXes; only the crossed pairs are routing
  // switches, and their data inputs flow through inverter MUXes -- the
  // detector must still not crash and must only claim clean components.
  const Netlist host = host_circuit(2);
  const auto lock = locking::lock_fulllock(host, 8, 42);
  const auto components = find_routing_networks(lock.netlist);
  for (const auto& component : components) {
    EXPECT_FALSE(component.outputs.empty());
  }
}

TEST(RoutingEncoding, NoFalsePositivesOnPlainCircuits) {
  const Netlist host = host_circuit(3);
  EXPECT_TRUE(find_routing_networks(host).empty());
  const auto xor_lock = locking::lock_xor(host, 10, 43);
  EXPECT_TRUE(find_routing_networks(xor_lock.netlist).empty());
}

TEST(RoutingEncoding, OnehotAttackRecoversRoutingLock) {
  const Netlist host = host_circuit(4);
  const auto lock = locking::lock_banyan_routing(host, 8, 44);
  Oracle oracle(lock.netlist, lock.key);
  SatAttackOptions options;
  options.time_limit_seconds = 30;
  const auto result = run_sat_attack_onehot(lock.netlist, oracle, options);
  ASSERT_EQ(result.status, SatAttackStatus::kKeyFound);
  EXPECT_EQ(result.components, 1u);
  EXPECT_EQ(result.routing_key_bits_replaced, 12u);
  EXPECT_TRUE(result.plain_key.empty());  // routing-only lock
  EXPECT_TRUE(cnf::check_equivalence(result.reconstructed, host)
                  .equivalent());
}

TEST(RoutingEncoding, OnehotAttackRecoversRilLock) {
  // Mixed logic+routing: plain keys (LUT configs) and selectors recovered
  // together; reconstruction must be exactly the host function.
  const Netlist host = host_circuit(5);
  core::RilBlockConfig config;
  config.size = 4;
  const auto ril = locking::lock_ril(host, 1, config, 45);
  Oracle oracle(ril.locked.netlist, ril.locked.key);
  SatAttackOptions options;
  options.time_limit_seconds = 30;
  const auto result =
      run_sat_attack_onehot(ril.locked.netlist, oracle, options);
  ASSERT_EQ(result.status, SatAttackStatus::kKeyFound);
  EXPECT_EQ(result.plain_key.size(), 16u);  // 4 LUTs x 4 config bits
  EXPECT_TRUE(cnf::check_equivalence(result.reconstructed, host)
                  .equivalent());
}

TEST(RoutingEncoding, RoutingChoiceIsInjectiveOnTerminalNetworks) {
  const Netlist host = host_circuit(6);
  const auto lock = locking::lock_banyan_routing(host, 8, 46);
  Oracle oracle(lock.netlist, lock.key);
  const auto result = run_sat_attack_onehot(lock.netlist, oracle);
  ASSERT_EQ(result.status, SatAttackStatus::kKeyFound);
  ASSERT_EQ(result.routing_choice.size(), 1u);
  std::vector<bool> used(8, false);
  for (std::size_t choice : result.routing_choice[0]) {
    ASSERT_LT(choice, 8u);
    EXPECT_FALSE(used[choice]) << "port selected twice";
    used[choice] = true;
  }
}

TEST(RoutingEncoding, CancelMidRunStopsPromptly) {
  // The one-hot attack honours SatAttackOptions::cancel like the SAT
  // attack: the flag goes up while the second DIP is answered, and the
  // loop stops before its next miter solve.
  const Netlist host = host_circuit(7);
  core::RilBlockConfig config;
  config.size = 8;
  config.output_network = true;
  const auto ril = locking::lock_ril(host, 3, config, 47);
  Oracle inner(ril.locked.netlist, ril.locked.key);
  std::atomic<bool> cancel{false};
  CancellingOracle oracle(inner, cancel, 2);
  SatAttackOptions options;
  options.cancel = &cancel;
  const auto result =
      run_sat_attack_onehot(ril.locked.netlist, oracle, options);
  EXPECT_EQ(result.status, SatAttackStatus::kTimeout);
  EXPECT_EQ(result.iterations, 2u);
}

TEST(RoutingEncoding, TimeoutReported) {
  const Netlist host = host_circuit(7);
  core::RilBlockConfig config;
  config.size = 8;
  config.output_network = true;
  const auto ril = locking::lock_ril(host, 3, config, 47);
  Oracle oracle(ril.locked.netlist, ril.locked.key);
  SatAttackOptions options;
  options.time_limit_seconds = 0.05;
  const auto result =
      run_sat_attack_onehot(ril.locked.netlist, oracle, options);
  EXPECT_EQ(result.status, SatAttackStatus::kTimeout);
}

}  // namespace
}  // namespace ril::attacks
