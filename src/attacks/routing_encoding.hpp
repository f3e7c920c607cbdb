// One-layer (one-hot) re-encoding of routing obfuscation -- the attack
// preprocessing of Section IV-B.
//
// A multistage network of key-controlled 2-MUX switch boxes only ever
// *routes*: every internal wire carries some network input. The attacker
// can therefore replace the network's sub-CNF with a single layer of
// N-to-1 MUXes per output, controlled by one-hot selector variables with
// permutation side constraints (each output picks exactly one input, each
// input feeds at most one output). This is the "one-layer linear encoding"
// the paper applies before attacking routing-obfuscated circuits (the BVA
// step in [11] compresses the same structure; our encoder emits the
// compact form directly). The relaxation admits all N! permutations --
// a superset of what the banyan realizes -- which is sound: the DIP loop
// still converges to the oracle's function.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "attacks/oracle.hpp"
#include "attacks/sat_attack.hpp"
#include "netlist/netlist.hpp"

namespace ril::attacks {

/// A detected key-routed switch network.
struct RoutingComponent {
  /// External input ports in deterministic order; duplicates allowed (two
  /// ports may carry the same signal).
  std::vector<netlist::NodeId> inputs;
  std::vector<netlist::NodeId> outputs;      ///< member MUXes seen outside
  std::vector<netlist::NodeId> members;      ///< all member MUX nodes
  std::vector<netlist::NodeId> key_inputs;   ///< switch keys consumed
  /// True when no output feeds another member MUX; permutation (injective
  /// port) side constraints are only sound for terminal networks.
  bool terminal = false;
};

/// Structurally detects switch-box networks: pairs of MUXes sharing a
/// key-input select with crossed data operands, grouped by connectivity.
/// Components that are not clean N-in/N-out permutation networks (or whose
/// internal wires escape) are dropped.
std::vector<RoutingComponent> find_routing_networks(
    const netlist::Netlist& locked);

/// The shared DIP-loop statistics (certificate, solve log, conflicts, ...)
/// plus what the one-hot view recovered.
struct OnehotAttackResult : DipLoopStats {
  SatAttackStatus status = SatAttackStatus::kTimeout;
  std::size_t components = 0;
  std::size_t routing_key_bits_replaced = 0;
  std::size_t selector_bits = 0;
  /// Key bits recovered for the non-routing key inputs, aligned with
  /// `plain_key_inputs`.
  std::vector<bool> plain_key;
  std::vector<netlist::NodeId> plain_key_inputs;
  /// Per component: selected input index for each output.
  std::vector<std::vector<std::size_t>> routing_choice;
  /// Attacker's reconstruction: routing hardwired per routing_choice,
  /// remaining keys fixed to plain_key (no key inputs left). Valid iff
  /// status == kKeyFound.
  netlist::Netlist reconstructed;
};

/// SAT attack with the routing networks re-encoded one-hot: the SAT
/// attack's engine::DipLoop over a one-hot encoding, so every
/// SatAttackOptions field applies. The recovered key bundle is
/// canonicalized like the SAT attack's key.
OnehotAttackResult run_sat_attack_onehot(const netlist::Netlist& locked,
                                         QueryOracle& oracle,
                                         const SatAttackOptions& options = {});

}  // namespace ril::attacks
