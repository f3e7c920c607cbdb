#include "locking/schemes.hpp"

#include <algorithm>
#include <array>
#include <random>
#include <stdexcept>
#include <unordered_set>

#include "core/banyan.hpp"
#include "core/lut2.hpp"
#include "core/polymorphic.hpp"

namespace ril::locking {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

namespace {

/// All non-input, non-const nodes (wires an attacker could see).
std::vector<NodeId> wire_candidates(const Netlist& netlist) {
  std::vector<NodeId> wires;
  for (NodeId id = 0; id < netlist.node_count(); ++id) {
    switch (netlist.node(id).type) {
      case GateType::kInput:
      case GateType::kConst0:
      case GateType::kConst1:
      case GateType::kDff:
        break;
      default:
        wires.push_back(id);
    }
  }
  return wires;
}

/// Transitive fanin cone (including `root`).
std::vector<bool> fanin_cone(const Netlist& netlist, NodeId root) {
  std::vector<bool> cone(netlist.node_count(), false);
  std::vector<NodeId> stack = {root};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (cone[id]) continue;
    cone[id] = true;
    for (NodeId f : netlist.node(id).fanins) {
      if (!cone[f]) stack.push_back(f);
    }
  }
  return cone;
}

/// Equality comparator between a data slice and either key inputs or a
/// constant pattern; returns the AND-tree output node.
NodeId build_equality(Netlist& netlist, const std::vector<NodeId>& xs,
                      const std::vector<NodeId>& ys,
                      const std::string& prefix) {
  std::vector<NodeId> terms;
  terms.reserve(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    terms.push_back(netlist.add_gate(GateType::kXnor, {xs[i], ys[i]},
                                     prefix + "_eq" + std::to_string(i)));
  }
  // Balanced AND tree.
  std::size_t level = 0;
  while (terms.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
      next.push_back(netlist.add_gate(
          GateType::kAnd, {terms[i], terms[i + 1]},
          prefix + "_and" + std::to_string(level) + "_" +
              std::to_string(i / 2)));
    }
    if (terms.size() % 2 == 1) next.push_back(terms.back());
    terms = next;
    ++level;
  }
  return terms[0];
}

/// XORs `flip` into output `index` of the netlist.
void corrupt_output(Netlist& netlist, std::size_t index, NodeId flip,
                    const std::string& name) {
  const NodeId out = netlist.outputs().at(index);
  const NodeId fixed = netlist.add_gate(GateType::kXor, {out, flip}, name);
  auto outputs = netlist.outputs();
  outputs[index] = fixed;
  netlist.set_outputs(std::move(outputs));
}

std::vector<NodeId> constant_pattern(Netlist& netlist,
                                     const std::vector<bool>& bits,
                                     const std::string& prefix) {
  std::vector<NodeId> nodes;
  nodes.reserve(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const NodeId c = netlist.add_const(bits[i]);
    netlist.rename(c, prefix + std::to_string(i));
    nodes.push_back(c);
  }
  return nodes;
}

}  // namespace

LockedCircuit lock_xor(const Netlist& host, std::size_t key_bits,
                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  LockedCircuit result{host, {}, "xor"};
  Netlist& nl = result.netlist;
  nl.set_structural_hashing(true);
  auto wires = wire_candidates(nl);
  if (wires.size() < key_bits) {
    throw std::invalid_argument("lock_xor: not enough wires");
  }
  std::shuffle(wires.begin(), wires.end(), rng);
  std::size_t key_counter = nl.key_inputs().size();
  for (std::size_t i = 0; i < key_bits; ++i) {
    const NodeId wire = wires[i];
    const bool use_xnor = rng() & 1;
    const NodeId key = nl.add_key_input(
        "keyinput" + std::to_string(key_counter++));
    const NodeId gate = nl.add_gate(
        use_xnor ? GateType::kXnor : GateType::kXor, {wire, key},
        "xorlock_" + std::to_string(i));
    const std::array<NodeId, 1> except = {gate};
    nl.replace_uses_except(wire, gate, except);
    // XOR passes with key 0, XNOR passes with key 1.
    result.key.push_back(use_xnor);
  }
  return result;
}

LockedCircuit lock_sarlock(const Netlist& host, std::size_t key_width,
                           std::uint64_t seed) {
  LockedCircuit result{host, {}, "sarlock"};
  Netlist& nl = result.netlist;
  nl.set_structural_hashing(true);
  const auto data = nl.data_inputs();
  if (key_width == 0 || key_width > data.size() || nl.outputs().empty()) {
    throw std::invalid_argument("lock_sarlock: bad key width");
  }
  std::vector<NodeId> xs(data.begin(), data.begin() + key_width);
  std::size_t key_counter = nl.key_inputs().size();
  std::vector<NodeId> keys;
  for (std::size_t i = 0; i < key_width; ++i) {
    keys.push_back(nl.add_key_input("keyinput" +
                                    std::to_string(key_counter++)));
  }
  result.key = random_key(key_width, seed ^ 0x5a5a5a5a);
  const auto secret_nodes = constant_pattern(nl, result.key, "sar_secret");

  const NodeId x_eq_k = build_equality(nl, xs, keys, "sar_xk");
  const NodeId k_eq_secret = build_equality(nl, keys, secret_nodes, "sar_ks");
  const NodeId k_wrong =
      nl.add_gate(GateType::kNot, {k_eq_secret}, "sar_kwrong");
  const NodeId flip =
      nl.add_gate(GateType::kAnd, {x_eq_k, k_wrong}, "sar_flip");
  corrupt_output(nl, 0, flip, "sar_out0");
  return result;
}

LockedCircuit lock_antisat(const Netlist& host, std::size_t n,
                           std::uint64_t seed) {
  LockedCircuit result{host, {}, "antisat"};
  Netlist& nl = result.netlist;
  nl.set_structural_hashing(true);
  const auto data = nl.data_inputs();
  if (n == 0 || n > data.size() || nl.outputs().empty()) {
    throw std::invalid_argument("lock_antisat: bad block width");
  }
  std::vector<NodeId> xs(data.begin(), data.begin() + n);
  std::size_t key_counter = nl.key_inputs().size();
  std::vector<NodeId> ka;
  std::vector<NodeId> kb;
  for (std::size_t i = 0; i < n; ++i) {
    ka.push_back(nl.add_key_input("keyinput" +
                                  std::to_string(key_counter++)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    kb.push_back(nl.add_key_input("keyinput" +
                                  std::to_string(key_counter++)));
  }
  // Correct key: ka == kb == r (any r). Pick a random r.
  const auto r = random_key(n, seed ^ 0xa5a5a5a5);
  result.key = r;
  result.key.insert(result.key.end(), r.begin(), r.end());

  auto xor_layer = [&](const std::vector<NodeId>& keys,
                       const std::string& prefix) {
    std::vector<NodeId> out;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(nl.add_gate(GateType::kXor, {xs[i], keys[i]},
                                prefix + std::to_string(i)));
    }
    return out;
  };
  const auto la = xor_layer(ka, "as_a");
  const auto lb = xor_layer(kb, "as_b");
  const NodeId g = la.size() == 1
                       ? la[0]
                       : nl.add_gate(GateType::kAnd,
                                     std::vector<NodeId>(la.begin(), la.end()),
                                     "as_g");
  const NodeId gn = lb.size() == 1
                        ? nl.add_gate(GateType::kNot, {lb[0]}, "as_gn")
                        : nl.add_gate(GateType::kNand,
                                      std::vector<NodeId>(lb.begin(),
                                                          lb.end()),
                                      "as_gn");
  const NodeId y = nl.add_gate(GateType::kAnd, {g, gn}, "as_y");
  corrupt_output(nl, 0, y, "as_out0");
  return result;
}

LockedCircuit lock_sfll_hd0(const Netlist& host, std::size_t cube_width,
                            std::uint64_t seed) {
  LockedCircuit result{host, {}, "sfll-hd0"};
  Netlist& nl = result.netlist;
  nl.set_structural_hashing(true);
  const auto data = nl.data_inputs();
  if (cube_width == 0 || cube_width > data.size() || nl.outputs().empty()) {
    throw std::invalid_argument("lock_sfll_hd0: bad cube width");
  }
  std::vector<NodeId> xs(data.begin(), data.begin() + cube_width);
  result.key = random_key(cube_width, seed ^ 0x0f0f0f0f);
  // Strip: flip output 0 on the protected cube (hardwired comparator, the
  // part visible to removal attacks).
  const auto cube_nodes = constant_pattern(nl, result.key, "sfll_cube");
  const NodeId strip = build_equality(nl, xs, cube_nodes, "sfll_strip");
  corrupt_output(nl, 0, strip, "sfll_stripped0");
  // Restore: key comparator re-flips when x matches the key.
  std::size_t key_counter = nl.key_inputs().size();
  std::vector<NodeId> keys;
  for (std::size_t i = 0; i < cube_width; ++i) {
    keys.push_back(nl.add_key_input("keyinput" +
                                    std::to_string(key_counter++)));
  }
  const NodeId restore = build_equality(nl, xs, keys, "sfll_restore");
  corrupt_output(nl, 0, restore, "sfll_out0");
  return result;
}

LockedCircuit lock_lut(const Netlist& host, std::size_t num_luts,
                       std::uint64_t seed) {
  LockedCircuit result{host, {}, "lut"};
  const auto lock = core::insert_polymorphic_gates(
      result.netlist, num_luts, core::PolymorphicEncoding::kLut2Style, seed);
  result.key = lock.key;
  return result;
}

namespace {

/// Shared wire-routing lock: selects pairwise-incomparable wires, scrambles
/// them through a banyan (plain 2-MUX or FullLock-style switch boxes), and
/// redirects the original consumers to the network outputs.
LockedCircuit lock_routing_impl(const Netlist& host,
                                std::size_t network_size, std::uint64_t seed,
                                bool fulllock_style, const char* scheme) {
  std::mt19937_64 rng(seed);
  LockedCircuit result{host, {}, scheme};
  Netlist& nl = result.netlist;
  nl.set_structural_hashing(true);
  auto wires = wire_candidates(nl);
  if (wires.size() < network_size) {
    throw std::invalid_argument("lock_routing: not enough wires");
  }
  // Pairwise topologically incomparable wires (see DESIGN.md): reject a
  // candidate inside any chosen cone or whose cone contains a chosen wire.
  // The greedy pass is order-dependent, so retry a few shuffles.
  std::vector<NodeId> chosen;
  for (int attempt = 0; attempt < 20 && chosen.size() < network_size;
       ++attempt) {
    std::shuffle(wires.begin(), wires.end(), rng);
    chosen.clear();
    std::vector<bool> union_cone(nl.node_count(), false);
    for (NodeId w : wires) {
      if (chosen.size() == network_size) break;
      if (union_cone[w]) continue;
      const auto cone = fanin_cone(nl, w);
      bool clash = false;
      for (NodeId c : chosen) {
        if (cone[c]) {
          clash = true;
          break;
        }
      }
      if (clash) continue;
      chosen.push_back(w);
      for (std::size_t i = 0; i < cone.size(); ++i) {
        if (cone[i]) union_cone[i] = true;
      }
    }
  }
  if (chosen.size() < network_size) {
    throw std::invalid_argument(
        "lock_routing: could not find incomparable wires");
  }

  const std::size_t switches = core::banyan_switch_count(network_size);
  std::vector<bool> swap_keys(switches);
  for (auto&& k : swap_keys) k = static_cast<bool>(rng() & 1);
  const auto perm = core::banyan_permutation(swap_keys, network_size);
  std::vector<NodeId> net_inputs(network_size);
  for (std::size_t p = 0; p < network_size; ++p) {
    net_inputs[p] = chosen[perm[p]];
  }
  std::size_t key_counter = nl.key_inputs().size();
  const auto net =
      fulllock_style
          ? core::build_banyan_fulllock(nl, net_inputs, key_counter, "fl")
          : core::build_banyan(nl, net_inputs, key_counter, "rt");
  result.key = fulllock_style ? core::fulllock_keys_from_banyan(swap_keys)
                              : swap_keys;
  // Redirect consumers of each chosen wire to network output i, leaving the
  // network's own input references untouched.
  std::unordered_set<NodeId> block_nodes;
  for (NodeId id = host.node_count(); id < nl.node_count(); ++id) {
    block_nodes.insert(id);
  }
  std::vector<NodeId> except(block_nodes.begin(), block_nodes.end());
  for (std::size_t i = 0; i < network_size; ++i) {
    nl.replace_uses_except(chosen[i], net.outputs[i], except);
  }
  return result;
}

}  // namespace

LockedCircuit lock_fulllock(const Netlist& host, std::size_t network_size,
                            std::uint64_t seed) {
  return lock_routing_impl(host, network_size, seed, /*fulllock_style=*/true,
                           "fulllock");
}

LockedCircuit lock_banyan_routing(const Netlist& host,
                                  std::size_t network_size,
                                  std::uint64_t seed) {
  return lock_routing_impl(host, network_size, seed,
                           /*fulllock_style=*/false, "banyan-routing");
}

RilLocked lock_ril(const Netlist& host, std::size_t num_blocks,
                   const core::RilBlockConfig& config, std::uint64_t seed) {
  RilLocked result;
  result.locked.netlist = host;
  result.locked.scheme = "ril-" + config.label();
  result.info = core::insert_ril_blocks(result.locked.netlist, num_blocks,
                                        config, seed);
  result.locked.key = result.info.functional_key;
  return result;
}

std::optional<RilLocked> lock_by_name(const std::string& scheme,
                                      const Netlist& host,
                                      const LockParams& params) {
  const std::uint64_t seed = params.seed;
  RilLocked result;
  if (scheme == "ril") {
    core::RilBlockConfig config;
    config.size = params.size;
    config.lut_inputs = params.lut_inputs;
    config.output_network = params.output_network;
    config.scan_obfuscation = params.scan_obfuscation;
    return lock_ril(host, params.blocks, config, seed);
  }
  if (scheme == "xor") result.locked = lock_xor(host, params.bits, seed);
  else if (scheme == "sarlock") result.locked = lock_sarlock(host, params.bits, seed);
  else if (scheme == "antisat") result.locked = lock_antisat(host, params.bits, seed);
  else if (scheme == "sfll") result.locked = lock_sfll_hd0(host, params.bits, seed);
  else if (scheme == "lut") result.locked = lock_lut(host, params.bits, seed);
  else if (scheme == "fulllock") result.locked = lock_fulllock(host, params.size, seed);
  else if (scheme == "routing") result.locked = lock_banyan_routing(host, params.size, seed);
  else return std::nullopt;
  return result;
}

}  // namespace ril::locking
