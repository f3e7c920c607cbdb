#include "core/ril_block.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>

#include "attacks/metrics.hpp"
#include "benchgen/arithmetic.hpp"
#include "benchgen/random_dag.hpp"
#include "cnf/equivalence.hpp"
#include "core/banyan.hpp"
#include "locking/locked.hpp"
#include "netlist/simulator.hpp"

namespace ril::core {
namespace {

using netlist::Netlist;

Netlist host_circuit(std::uint64_t seed = 1) {
  benchgen::RandomDagParams params;
  params.num_inputs = 24;
  params.num_outputs = 12;
  params.num_gates = 300;
  params.seed = seed;
  return benchgen::generate_random_dag(params);
}

struct ConfigCase {
  std::size_t size;
  bool output_network;
  bool scan;
  // gtest names each case after the raw bytes of its parameter. Naming the
  // padding keeps those bytes zero, so the case names are the same every run.
  std::uint8_t reserved[6] = {};
};

class RilConfig : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(RilConfig, FunctionalKeyRestoresCircuit) {
  const ConfigCase& param = GetParam();
  const Netlist host = host_circuit();
  Netlist locked = host;
  RilBlockConfig config;
  config.size = param.size;
  config.output_network = param.output_network;
  config.scan_obfuscation = param.scan;
  const RilLockResult lock = insert_ril_blocks(locked, 2, config, 77);

  ASSERT_EQ(lock.functional_key.size(), locked.key_inputs().size());
  EXPECT_TRUE(locked.validate().empty());
  const auto eq =
      cnf::check_equivalence(locked, host, lock.functional_key, {});
  EXPECT_TRUE(eq.equivalent()) << config.label();
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RilConfig,
    ::testing::Values(ConfigCase{2, false, false},
                      ConfigCase{2, true, false},
                      ConfigCase{4, false, false},
                      ConfigCase{4, true, true},
                      ConfigCase{8, false, false},
                      ConfigCase{8, true, false},
                      ConfigCase{8, true, true}));

TEST(RilBlock, KeyWidthAccounting) {
  Netlist locked = host_circuit();
  RilBlockConfig config;
  config.size = 8;
  config.output_network = true;
  config.scan_obfuscation = true;
  const RilLockResult lock = insert_ril_blocks(locked, 1, config, 5);
  // 12 input-banyan + 8*4 LUT + 8 SE + 12 output-banyan = 64 key bits.
  EXPECT_EQ(lock.key_width, 64u);
  EXPECT_EQ(lock.se_key_positions.size(), 8u);
  EXPECT_EQ(lock.functional_key.size(), 64u);
  EXPECT_EQ(lock.oracle_scan_key.size(), 64u);
}

TEST(RilBlock, SeBitsAreZeroInFunctionalKey) {
  Netlist locked = host_circuit(3);
  RilBlockConfig config;
  config.size = 4;
  config.scan_obfuscation = true;
  const RilLockResult lock = insert_ril_blocks(locked, 2, config, 6);
  for (std::size_t pos : lock.se_key_positions) {
    EXPECT_FALSE(lock.functional_key[pos]);
  }
  // Outside SE positions both keys agree.
  for (std::size_t i = 0; i < lock.functional_key.size(); ++i) {
    const bool is_se =
        std::find(lock.se_key_positions.begin(), lock.se_key_positions.end(),
                  i) != lock.se_key_positions.end();
    if (!is_se) {
      EXPECT_EQ(lock.functional_key[i], lock.oracle_scan_key[i]);
    }
  }
}

TEST(RilBlock, ScanKeyCorruptsFunction) {
  // With at least one SE bit set, the scan-mode responses must differ from
  // the functional circuit (that is the whole point of SE obfuscation).
  Netlist locked = host_circuit(4);
  RilBlockConfig config;
  config.size = 8;
  config.scan_obfuscation = true;
  RilLockResult lock;
  // Retry seeds until the random MTJ_SE programming has a set bit (8 bits,
  // so this virtually always succeeds on the first try).
  std::uint64_t seed = 10;
  bool any_se = false;
  Netlist attempt = host_circuit(4);
  while (!any_se) {
    attempt = host_circuit(4);
    lock = insert_ril_blocks(attempt, 1, config, seed++);
    for (std::size_t pos : lock.se_key_positions) {
      any_se |= lock.oracle_scan_key[pos];
    }
  }
  locked = attempt;
  const double error = attacks::functional_error_rate(
      locked, lock.oracle_scan_key, lock.functional_key, 512, 3);
  EXPECT_GT(error, 0.0);
}

TEST(RilBlock, WrongKeyCorruptsOutputs) {
  Netlist locked = host_circuit(5);
  RilBlockConfig config;
  config.size = 8;
  config.output_network = true;
  const RilLockResult lock = insert_ril_blocks(locked, 2, config, 12);
  const double corruption =
      attacks::output_corruptibility(locked, lock.functional_key, 2048, 9);
  // High output corruptibility, unlike one-point functions.
  EXPECT_GT(corruption, 0.2);
}

TEST(RilBlock, ReplacedGatesAreGone) {
  Netlist locked = host_circuit(6);
  const std::size_t before = locked.gate_count();
  RilBlockConfig config;
  config.size = 8;
  const RilLockResult lock = insert_ril_blocks(locked, 1, config, 3);
  (void)lock;
  // 8 gates removed, 12 switch boxes (24 MUX) + 8 LUTs (24 MUX) added.
  EXPECT_EQ(locked.gate_count(), before - 8 + 48);
}

TEST(RilBlock, GateCostModel) {
  RilBlockConfig c2;
  c2.size = 2;
  EXPECT_EQ(ril_block_gate_cost(c2), 2u + 6u);
  RilBlockConfig c888;
  c888.size = 8;
  c888.output_network = true;
  EXPECT_EQ(ril_block_gate_cost(c888), 24u + 24u + 24u);
  // The paper's claim: 3 blocks of 8x8x8 cost ~3x less than 75 of 2x2.
  EXPECT_LT(3 * ril_block_gate_cost(c888), 75 * ril_block_gate_cost(c2) / 2);
}

TEST(RilBlock, ManyBlocksStillFunctionallyCorrect) {
  const Netlist host = host_circuit(7);
  Netlist locked = host;
  RilBlockConfig config;
  config.size = 2;
  const RilLockResult lock = insert_ril_blocks(locked, 10, config, 21);
  EXPECT_EQ(lock.blocks_inserted, 10u);
  const auto eq =
      cnf::check_equivalence(locked, host, lock.functional_key, {});
  EXPECT_TRUE(eq.equivalent());
}

TEST(RilBlock, RejectsDegenerateRequests) {
  Netlist locked = host_circuit(8);
  RilBlockConfig config;
  config.size = 8;
  EXPECT_THROW(insert_ril_blocks(locked, 0, config, 1),
               std::invalid_argument);
  Netlist tiny("tiny");
  const auto a = tiny.add_input("a");
  const auto b = tiny.add_input("b");
  tiny.mark_output(tiny.add_gate(netlist::GateType::kAnd, {a, b}));
  EXPECT_THROW(insert_ril_blocks(tiny, 1, config, 1), std::invalid_argument);
}

TEST(RilBlock, LabelFormat) {
  RilBlockConfig config;
  config.size = 8;
  EXPECT_EQ(config.label(), "8x8");
  config.output_network = true;
  EXPECT_EQ(config.label(), "8x8x8");
}

}  // namespace
}  // namespace ril::core
