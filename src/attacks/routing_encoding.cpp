#include "attacks/routing_encoding.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "attacks/engine/dip_loop.hpp"
#include "attacks/engine/miter_context.hpp"
#include "cnf/tseitin.hpp"
#include "locking/locked.hpp"
#include "netlist/simplify.hpp"

namespace ril::attacks {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;
using sat::ClauseSink;
using sat::Lit;
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

/// Sequential (ladder) at-most-one over `lits` -- the auxiliary-variable
/// compressed form BVA would produce from the pairwise encoding: linear
/// clause count and strong unit propagation.
void add_at_most_one(ClauseSink& sink, const std::vector<Lit>& lits) {
  if (lits.size() <= 1) return;
  if (lits.size() == 2) {
    sink.add_clause({~lits[0], ~lits[1]});
    return;
  }
  Var prev = sink.new_var();  // s_0 <- x_0
  sink.add_clause({~lits[0], Lit::make(prev)});
  for (std::size_t i = 1; i < lits.size(); ++i) {
    if (i + 1 < lits.size()) {
      const Var next = sink.new_var();
      sink.add_clause({~lits[i], Lit::make(next)});
      sink.add_clause({Lit::make(prev, true), Lit::make(next)});
      sink.add_clause({~lits[i], Lit::make(prev, true)});
      prev = next;
    } else {
      sink.add_clause({~lits[i], Lit::make(prev, true)});
    }
  }
}

/// The attacker's view of `locked` with every routing component replaced
/// by one layer of one-hot-selected MUXes. A key bundle is the plain key
/// variables (aligned with plain_key_inputs) followed by each component's
/// selector matrix, row-major: selector (c, o, i) picks input i for
/// output o of component c.
class OnehotEncoding final : public engine::DipEncoding {
 public:
  /// `locked` and `components` must outlive the encoding.
  OnehotEncoding(const Netlist& locked,
                 const std::vector<RoutingComponent>& components,
                 std::vector<NodeId> plain_key_inputs)
      : locked_(locked),
        components_(components),
        plain_key_inputs_(std::move(plain_key_inputs)),
        data_inputs_(locked.data_inputs()),
        role_(locked.node_count(), Role::kNormal),
        out_pos_(locked.node_count(), {0, 0}) {
    std::size_t offset = plain_key_inputs_.size();
    for (std::size_t c = 0; c < components.size(); ++c) {
      for (NodeId mux : components[c].members) role_[mux] = Role::kInternal;
      for (std::size_t o = 0; o < components[c].outputs.size(); ++o) {
        role_[components[c].outputs[o]] = Role::kOutput;
        out_pos_[components[c].outputs[o]] = {c, o};
      }
      offset_.push_back(offset);
      offset += components[c].inputs.size() * components[c].outputs.size();
    }
  }

  engine::MiterVars encode_miter(ClauseSink& sink) override {
    engine::MiterVars vars;
    vars.inputs = engine::make_vars(sink, data_inputs_.size());
    std::unordered_map<NodeId, Var> bound_x;
    for (std::size_t i = 0; i < data_inputs_.size(); ++i) {
      bound_x.emplace(data_inputs_[i], vars.inputs[i]);
    }
    vars.keys[0] = make_key(sink);
    vars.keys[1] = make_key(sink);
    const auto vars1 = encode_copy(sink, bound_x, vars.keys[0]);
    const auto vars2 = encode_copy(sink, bound_x, vars.keys[1]);
    std::vector<Var> out1;
    std::vector<Var> out2;
    for (NodeId id : locked_.outputs()) {
      out1.push_back(vars1[id]);
      out2.push_back(vars2[id]);
    }
    cnf::encode_miter(sink, out1, out2);
    return vars;
  }

  std::vector<Var> make_key(ClauseSink& sink) override {
    std::vector<Var> key = engine::make_vars(sink, plain_key_inputs_.size());
    for (const RoutingComponent& component : components_) {
      const std::size_t n_in = component.inputs.size();
      const std::size_t n_out = component.outputs.size();
      const std::vector<Var> sel = engine::make_vars(sink, n_in * n_out);
      // Exactly-one selector per output row.
      for (std::size_t o = 0; o < n_out; ++o) {
        std::vector<Lit> row;
        for (std::size_t i = 0; i < n_in; ++i) {
          row.push_back(Lit::make(sel[o * n_in + i]));
        }
        sink.add_clause(row);
        add_at_most_one(sink, row);
      }
      // Permutation side constraint (at most one output per input port).
      // Only sound for terminal networks: in chained components an
      // upstream output and a downstream output can legitimately carry
      // the same port.
      if (component.terminal && n_in == n_out) {
        for (std::size_t i = 0; i < n_in; ++i) {
          std::vector<Lit> column;
          for (std::size_t o = 0; o < n_out; ++o) {
            column.push_back(Lit::make(sel[o * n_in + i]));
          }
          add_at_most_one(sink, column);
        }
      }
      key.insert(key.end(), sel.begin(), sel.end());
    }
    return key;
  }

  std::size_t add_constraint(ClauseSink& sink, const std::vector<Var>& key,
                             const std::vector<bool>& dip,
                             const std::vector<bool>& response) override {
    sat::CountingSink counting(&sink);
    const auto node_var = encode_copy(counting, {}, key);
    for (std::size_t i = 0; i < data_inputs_.size(); ++i) {
      counting.add_clause({Lit::make(node_var[data_inputs_[i]], !dip[i])});
    }
    const auto& outputs = locked_.outputs();
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      counting.add_clause({Lit::make(node_var[outputs[i]], !response[i])});
    }
    return counting.clauses();
  }

  /// Decodes a key bundle's values: the plain key bits and, per
  /// component, the input each output selects.
  void decode(const std::vector<bool>& key, OnehotAttackResult& result) const {
    result.plain_key.assign(key.begin(),
                            key.begin() + plain_key_inputs_.size());
    for (std::size_t c = 0; c < components_.size(); ++c) {
      const std::size_t n_in = components_[c].inputs.size();
      std::vector<std::size_t> choice(components_[c].outputs.size(), 0);
      for (std::size_t o = 0; o < choice.size(); ++o) {
        for (std::size_t i = 0; i < n_in; ++i) {
          if (key[offset_[c] + o * n_in + i]) choice[o] = i;
        }
      }
      result.routing_choice.push_back(std::move(choice));
    }
  }

 private:
  enum class Role : std::uint8_t { kNormal, kInternal, kOutput };

  /// Encodes one circuit copy with the routing components replaced by the
  /// one-hot layer. Returns node -> var.
  std::vector<Var> encode_copy(ClauseSink& sink,
                               const std::unordered_map<NodeId, Var>& bound,
                               const std::vector<Var>& key) const {
    std::vector<Var> node_var(locked_.node_count(), sat::kNoVar);
    for (const auto& [node, var] : bound) node_var[node] = var;
    for (std::size_t i = 0; i < plain_key_inputs_.size(); ++i) {
      node_var[plain_key_inputs_[i]] = key[i];
    }

    for (NodeId id : locked_.topological_order()) {
      if (role_[id] == Role::kInternal) continue;  // replaced wholesale
      if (node_var[id] == sat::kNoVar) node_var[id] = sink.new_var();
      if (role_[id] == Role::kNormal) {
        // Routing key inputs are plain inputs here but unconstrained/unused.
        cnf::encode_node(sink, locked_, id, node_var);
        continue;
      }
      // One-hot output: y = in_i when sel[o][i].
      const auto [c, o] = out_pos_[id];
      const RoutingComponent& component = components_[c];
      const std::size_t n_in = component.inputs.size();
      const Var y = node_var[id];
      for (std::size_t i = 0; i < n_in; ++i) {
        const Var sel = key[offset_[c] + o * n_in + i];
        // The one-hot layer lets any output select any input, including an
        // input the topological walk has not reached yet (in a chained
        // network it can depend on another output). Create its variable
        // now; its gate is encoded when the walk reaches it.
        Var& in = node_var[component.inputs[i]];
        if (in == sat::kNoVar) in = sink.new_var();
        sink.add_clause(
            {Lit::make(sel, true), Lit::make(in, true), Lit::make(y)});
        sink.add_clause(
            {Lit::make(sel, true), Lit::make(in), Lit::make(y, true)});
      }
    }
    return node_var;
  }

  const Netlist& locked_;
  const std::vector<RoutingComponent>& components_;
  std::vector<NodeId> plain_key_inputs_;
  std::vector<NodeId> data_inputs_;
  std::vector<Role> role_;
  /// For one-hot outputs: component and row.
  std::vector<std::pair<std::size_t, std::size_t>> out_pos_;
  /// Per component: where its selector matrix starts in a key bundle.
  std::vector<std::size_t> offset_;
};

}  // namespace

OnehotAttackResult run_sat_attack_onehot(const Netlist& locked,
                                         QueryOracle& oracle,
                                         const SatAttackOptions& options) {
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

  OnehotEncoding encoding(locked, components, result.plain_key_inputs);
  engine::DipLoop loop(locked, oracle, options, encoding);
  result.status = loop.run();
  loop.finish(result);

  if (result.status == SatAttackStatus::kKeyFound) {
    encoding.decode(loop.key(), result);
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
