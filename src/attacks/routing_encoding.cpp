#include "attacks/routing_encoding.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>

#include "cnf/tseitin.hpp"
#include "sat/solver.hpp"
#include "locking/locked.hpp"
#include "netlist/simplify.hpp"

namespace ril::attacks {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;
using sat::Lit;
using sat::Solver;
using sat::Var;

namespace {

struct SwitchBox {
  NodeId key = netlist::kNoNode;
  NodeId mux_lo = netlist::kNoNode;
  NodeId mux_hi = netlist::kNoNode;
  NodeId in_a = netlist::kNoNode;
  NodeId in_b = netlist::kNoNode;
};

/// Union-find.
struct Dsu {
  std::vector<std::size_t> parent;
  explicit Dsu(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent[find(a)] = find(b); }
};

std::vector<SwitchBox> detect_switches(const Netlist& locked) {
  // key input -> muxes selected by it.
  std::unordered_map<NodeId, std::vector<NodeId>> by_key;
  for (NodeId id = 0; id < locked.node_count(); ++id) {
    const auto& node = locked.node(id);
    if (node.type != GateType::kMux) continue;
    const NodeId sel = node.fanins[0];
    if (locked.is_key_input(sel)) by_key[sel].push_back(id);
  }
  std::vector<SwitchBox> switches;
  for (const auto& [key, muxes] : by_key) {
    if (muxes.size() != 2) continue;
    const auto& m0 = locked.node(muxes[0]);
    const auto& m1 = locked.node(muxes[1]);
    // Crossed pair: m0 = MUX(k, a, b), m1 = MUX(k, b, a).
    if (m0.fanins[1] == m1.fanins[2] && m0.fanins[2] == m1.fanins[1]) {
      switches.push_back(SwitchBox{key, muxes[0], muxes[1], m0.fanins[1],
                                   m0.fanins[2]});
    }
  }
  return switches;
}

}  // namespace

std::vector<RoutingComponent> find_routing_networks(const Netlist& locked) {
  const auto switches = detect_switches(locked);
  if (switches.empty()) return {};

  std::unordered_map<NodeId, std::size_t> switch_of_mux;
  for (std::size_t s = 0; s < switches.size(); ++s) {
    switch_of_mux[switches[s].mux_lo] = s;
    switch_of_mux[switches[s].mux_hi] = s;
  }
  Dsu dsu(switches.size());
  for (std::size_t s = 0; s < switches.size(); ++s) {
    for (NodeId in : {switches[s].in_a, switches[s].in_b}) {
      auto it = switch_of_mux.find(in);
      if (it != switch_of_mux.end()) dsu.unite(s, it->second);
    }
  }

  std::unordered_map<std::size_t, std::vector<std::size_t>> groups;
  for (std::size_t s = 0; s < switches.size(); ++s) {
    groups[dsu.find(s)].push_back(s);
  }

  const auto fanouts = locked.fanouts();
  std::unordered_set<NodeId> output_set(locked.outputs().begin(),
                                        locked.outputs().end());

  std::vector<RoutingComponent> components;
  for (const auto& [root, members] : groups) {
    RoutingComponent component;
    std::unordered_set<NodeId> member_muxes;
    for (std::size_t s : members) {
      member_muxes.insert(switches[s].mux_lo);
      member_muxes.insert(switches[s].mux_hi);
      component.members.push_back(switches[s].mux_lo);
      component.members.push_back(switches[s].mux_hi);
      component.key_inputs.push_back(switches[s].key);
    }
    // External input *ports* (kept as positions, duplicates allowed: the
    // permutation side constraints speak about ports, not signals).
    std::vector<std::size_t> ordered_members = members;
    std::sort(ordered_members.begin(), ordered_members.end(),
              [&](std::size_t a, std::size_t b) {
                return switches[a].mux_lo < switches[b].mux_lo;
              });
    std::vector<NodeId> inputs;
    for (std::size_t s : ordered_members) {
      for (NodeId in : {switches[s].in_a, switches[s].in_b}) {
        if (!member_muxes.contains(in)) inputs.push_back(in);
      }
    }
    component.inputs = std::move(inputs);
    // Outputs: member muxes consumed outside the component (or POs).
    component.terminal = true;
    for (NodeId mux : component.members) {
      bool outside = output_set.contains(mux);
      bool inside = false;
      for (NodeId user : fanouts[mux]) {
        if (member_muxes.contains(user)) {
          inside = true;
        } else {
          outside = true;
        }
      }
      if (outside) {
        component.outputs.push_back(mux);
        if (inside) component.terminal = false;
      }
    }
    std::sort(component.outputs.begin(), component.outputs.end());
    std::sort(component.members.begin(), component.members.end());
    std::sort(component.key_inputs.begin(), component.key_inputs.end());
    // A routing key must not be used anywhere outside its switch MUXes,
    // otherwise dropping it from the key set would change the circuit.
    bool clean = true;
    for (NodeId key : component.key_inputs) {
      for (NodeId user : fanouts[key]) {
        if (!member_muxes.contains(user)) clean = false;
      }
    }
    if (clean && !component.outputs.empty() &&
        component.inputs.size() >= 2) {
      components.push_back(std::move(component));
    }
  }
  // Deterministic order.
  std::sort(components.begin(), components.end(),
            [](const RoutingComponent& a, const RoutingComponent& b) {
              return a.members.front() < b.members.front();
            });
  return components;
}

namespace {

/// Per-solver variable bundle playing the role of the key.
struct OnehotKeys {
  std::vector<Var> plain;  // aligned with plain_key_inputs
  /// selectors[c][o * inputs + i]
  std::vector<std::vector<Var>> selectors;
};

/// Sequential (ladder) at-most-one over `lits` -- the auxiliary-variable
/// compressed form BVA would produce from the pairwise encoding: linear
/// clause count and strong unit propagation.
void add_at_most_one(Solver& solver, const std::vector<Lit>& lits) {
  if (lits.size() <= 1) return;
  if (lits.size() == 2) {
    solver.add_clause({~lits[0], ~lits[1]});
    return;
  }
  Var prev = solver.new_var();  // s_0 <- x_0
  solver.add_clause({~lits[0], Lit::make(prev)});
  for (std::size_t i = 1; i < lits.size(); ++i) {
    if (i + 1 < lits.size()) {
      const Var next = solver.new_var();
      solver.add_clause({~lits[i], Lit::make(next)});
      solver.add_clause({Lit::make(prev, true), Lit::make(next)});
      solver.add_clause({~lits[i], Lit::make(prev, true)});
      prev = next;
    } else {
      solver.add_clause({~lits[i], Lit::make(prev, true)});
    }
  }
}

OnehotKeys make_onehot_keys(Solver& solver, std::size_t plain_count,
                            const std::vector<RoutingComponent>& components) {
  OnehotKeys keys;
  for (std::size_t i = 0; i < plain_count; ++i) {
    keys.plain.push_back(solver.new_var());
  }
  for (const RoutingComponent& component : components) {
    const std::size_t n_in = component.inputs.size();
    const std::size_t n_out = component.outputs.size();
    std::vector<Var> sel;
    sel.reserve(n_in * n_out);
    for (std::size_t i = 0; i < n_in * n_out; ++i) {
      sel.push_back(solver.new_var());
    }
    // Exactly-one selector per output row.
    for (std::size_t o = 0; o < n_out; ++o) {
      sat::Clause at_least;
      std::vector<Lit> row;
      for (std::size_t i = 0; i < n_in; ++i) {
        at_least.push_back(Lit::make(sel[o * n_in + i]));
        row.push_back(Lit::make(sel[o * n_in + i]));
      }
      solver.add_clause(at_least);
      add_at_most_one(solver, row);
    }
    // Permutation side constraint (at most one output per input port).
    // Only sound for terminal networks: in chained components an upstream
    // output and a downstream output can legitimately carry the same port.
    if (component.terminal && n_in == n_out) {
      for (std::size_t i = 0; i < n_in; ++i) {
        std::vector<Lit> column;
        for (std::size_t o = 0; o < n_out; ++o) {
          column.push_back(Lit::make(sel[o * n_in + i]));
        }
        add_at_most_one(solver, column);
      }
    }
    keys.selectors.push_back(std::move(sel));
  }
  return keys;
}

/// Encodes one circuit copy with the routing components replaced by the
/// one-hot layer. Returns node -> var.
std::vector<Var> encode_onehot_copy(
    Solver& solver, const Netlist& locked,
    const std::vector<RoutingComponent>& components,
    const std::vector<NodeId>& plain_key_inputs,
    const std::unordered_map<NodeId, Var>& bound, const OnehotKeys& keys) {
  // Classify nodes.
  enum class Role : std::uint8_t { kNormal, kInternal, kOutput };
  std::vector<Role> role(locked.node_count(), Role::kNormal);
  // For outputs: which component and row.
  std::vector<std::pair<std::size_t, std::size_t>> out_pos(
      locked.node_count(), {0, 0});
  for (std::size_t c = 0; c < components.size(); ++c) {
    for (NodeId mux : components[c].members) role[mux] = Role::kInternal;
    for (std::size_t o = 0; o < components[c].outputs.size(); ++o) {
      role[components[c].outputs[o]] = Role::kOutput;
      out_pos[components[c].outputs[o]] = {c, o};
    }
  }

  std::vector<Var> node_var(locked.node_count(), sat::kNoVar);
  for (const auto& [node, var] : bound) node_var[node] = var;
  for (std::size_t i = 0; i < plain_key_inputs.size(); ++i) {
    node_var[plain_key_inputs[i]] = keys.plain[i];
  }

  for (NodeId id : locked.topological_order()) {
    if (role[id] == Role::kInternal) continue;  // replaced wholesale
    if (node_var[id] == sat::kNoVar) node_var[id] = solver.new_var();
    if (role[id] == Role::kNormal) {
      // Routing key inputs are plain inputs here but unconstrained/unused.
      cnf::encode_node(solver, locked, id, node_var);
      continue;
    }
    // One-hot output: y = in_i when sel[o][i].
    const auto [c, o] = out_pos[id];
    const RoutingComponent& component = components[c];
    const std::size_t n_in = component.inputs.size();
    const Var y = node_var[id];
    for (std::size_t i = 0; i < n_in; ++i) {
      const Var sel = keys.selectors[c][o * n_in + i];
      // The one-hot layer lets any output select any input, including an
      // input the topological walk has not reached yet (in a chained
      // network it can depend on another output). Create its variable
      // now; its gate is encoded when the walk reaches it.
      Var& in = node_var[component.inputs[i]];
      if (in == sat::kNoVar) in = solver.new_var();
      solver.add_clause(
          {Lit::make(sel, true), Lit::make(in, true), Lit::make(y)});
      solver.add_clause(
          {Lit::make(sel, true), Lit::make(in), Lit::make(y, true)});
    }
  }
  return node_var;
}

void add_io_constraint_onehot(
    Solver& solver, const Netlist& locked,
    const std::vector<RoutingComponent>& components,
    const std::vector<NodeId>& plain_key_inputs,
    const std::vector<NodeId>& data_inputs, const OnehotKeys& keys,
    const std::vector<bool>& dip, const std::vector<bool>& response) {
  const auto node_var =
      encode_onehot_copy(solver, locked, components, plain_key_inputs, {},
                         keys);
  for (std::size_t i = 0; i < data_inputs.size(); ++i) {
    solver.add_clause({Lit::make(node_var[data_inputs[i]], !dip[i])});
  }
  const auto& outputs = locked.outputs();
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    solver.add_clause({Lit::make(node_var[outputs[i]], !response[i])});
  }
}

}  // namespace

OnehotAttackResult run_sat_attack_onehot(const Netlist& locked,
                                         QueryOracle& oracle,
                                         const SatAttackOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  OnehotAttackResult result;
  const auto components = find_routing_networks(locked);
  result.components = components.size();
  std::unordered_set<NodeId> routing_keys;
  for (const auto& component : components) {
    routing_keys.insert(component.key_inputs.begin(),
                        component.key_inputs.end());
    result.selector_bits +=
        component.inputs.size() * component.outputs.size();
  }
  result.routing_key_bits_replaced = routing_keys.size();
  for (NodeId key : locked.key_inputs()) {
    if (!routing_keys.contains(key)) {
      result.plain_key_inputs.push_back(key);
    }
  }
  const auto data_inputs = locked.data_inputs();

  // Miter solver with two one-hot key bundles sharing X.
  Solver miter;
  std::vector<Var> x_vars;
  for (std::size_t i = 0; i < data_inputs.size(); ++i) {
    x_vars.push_back(miter.new_var());
  }
  std::unordered_map<NodeId, Var> bound_x;
  for (std::size_t i = 0; i < data_inputs.size(); ++i) {
    bound_x.emplace(data_inputs[i], x_vars[i]);
  }
  const OnehotKeys keys1 =
      make_onehot_keys(miter, result.plain_key_inputs.size(), components);
  const OnehotKeys keys2 =
      make_onehot_keys(miter, result.plain_key_inputs.size(), components);
  const auto vars1 = encode_onehot_copy(miter, locked, components,
                                        result.plain_key_inputs, bound_x,
                                        keys1);
  const auto vars2 = encode_onehot_copy(miter, locked, components,
                                        result.plain_key_inputs, bound_x,
                                        keys2);
  std::vector<Var> out1;
  std::vector<Var> out2;
  for (NodeId id : locked.outputs()) {
    out1.push_back(vars1[id]);
    out2.push_back(vars2[id]);
  }
  cnf::encode_miter(miter, out1, out2);

  Solver key_solver;
  const OnehotKeys key_keys = make_onehot_keys(
      key_solver, result.plain_key_inputs.size(), components);

  while (true) {
    if (options.max_iterations != 0 &&
        result.iterations >= options.max_iterations) {
      result.status = SatAttackStatus::kIterationLimit;
      break;
    }
    if (options.time_limit_seconds > 0) {
      const double remaining = options.time_limit_seconds - elapsed();
      if (remaining <= 0) {
        result.status = SatAttackStatus::kTimeout;
        break;
      }
      miter.set_limits({.time_limit_seconds = remaining});
    }
    const sat::Result r = miter.solve();
    if (r == sat::Result::kUnknown) {
      result.status = SatAttackStatus::kTimeout;
      break;
    }
    if (r == sat::Result::kUnsat) {
      if (options.time_limit_seconds > 0) {
        key_solver.set_limits(
            {.time_limit_seconds = options.time_limit_seconds - elapsed()});
      }
      const sat::Result kr = key_solver.solve();
      if (kr == sat::Result::kSat) {
        for (Var v : key_keys.plain) {
          result.plain_key.push_back(key_solver.model_bool(v));
        }
        for (std::size_t c = 0; c < components.size(); ++c) {
          const std::size_t n_in = components[c].inputs.size();
          std::vector<std::size_t> choice(components[c].outputs.size(), 0);
          for (std::size_t o = 0; o < choice.size(); ++o) {
            for (std::size_t i = 0; i < n_in; ++i) {
              if (key_solver.model_bool(key_keys.selectors[c][o * n_in + i])) {
                choice[o] = i;
              }
            }
          }
          result.routing_choice.push_back(std::move(choice));
        }
        result.status = SatAttackStatus::kKeyFound;
      } else if (kr == sat::Result::kUnsat) {
        result.status = SatAttackStatus::kInconsistent;
      } else {
        result.status = SatAttackStatus::kTimeout;
      }
      break;
    }

    std::vector<bool> dip;
    for (Var v : x_vars) dip.push_back(miter.model_bool(v));
    const auto response = oracle.query(dip);
    add_io_constraint_onehot(miter, locked, components,
                             result.plain_key_inputs, data_inputs, keys1,
                             dip, response);
    add_io_constraint_onehot(miter, locked, components,
                             result.plain_key_inputs, data_inputs, keys2,
                             dip, response);
    add_io_constraint_onehot(key_solver, locked, components,
                             result.plain_key_inputs, data_inputs, key_keys,
                             dip, response);
    ++result.iterations;
  }

  result.seconds = elapsed();
  result.conflicts = miter.stats().conflicts;

  if (result.status == SatAttackStatus::kKeyFound) {
    // Reconstruct: hardwire the recovered routing, fix the plain keys.
    Netlist rebuilt = locked;
    for (std::size_t c = 0; c < components.size(); ++c) {
      for (std::size_t o = 0; o < components[c].outputs.size(); ++o) {
        rebuilt.rewrite_as_buf(
            components[c].outputs[o],
            components[c].inputs[result.routing_choice[c][o]]);
      }
    }
    std::vector<bool> full_key(rebuilt.key_inputs().size(), false);
    std::unordered_map<NodeId, std::size_t> key_pos;
    for (std::size_t i = 0; i < rebuilt.key_inputs().size(); ++i) {
      key_pos[rebuilt.key_inputs()[i]] = i;
    }
    for (std::size_t i = 0; i < result.plain_key_inputs.size(); ++i) {
      full_key[key_pos.at(result.plain_key_inputs[i])] = result.plain_key[i];
    }
    result.reconstructed = locking::specialize_keys(rebuilt, full_key);
    netlist::simplify(result.reconstructed);
  }
  return result;
}

}  // namespace ril::attacks
