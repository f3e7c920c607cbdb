#include "attacks/engine/miter_context.hpp"

#include <stdexcept>
#include <unordered_map>

namespace ril::attacks::engine {

using netlist::Netlist;
using netlist::NodeId;
using sat::ClauseSink;
using sat::Lit;
using sat::Var;

std::vector<Var> make_vars(ClauseSink& sink, std::size_t count) {
  std::vector<Var> vars;
  vars.reserve(count);
  for (std::size_t i = 0; i < count; ++i) vars.push_back(sink.new_var());
  return vars;
}

std::vector<Var> make_fixed_vars(ClauseSink& sink,
                                 const std::vector<bool>& values) {
  std::vector<Var> vars;
  vars.reserve(values.size());
  for (bool value : values) {
    const Var v = sink.new_var();
    sink.add_clause({Lit::make(v, !value)});
    vars.push_back(v);
  }
  return vars;
}

void fix_vars(ClauseSink& sink, const std::vector<Var>& vars,
              const std::vector<bool>& values) {
  if (vars.size() != values.size()) {
    throw std::invalid_argument("fix_vars: size mismatch");
  }
  for (std::size_t i = 0; i < vars.size(); ++i) {
    sink.add_clause({Lit::make(vars[i], !values[i])});
  }
}

CircuitCopy encode_copy(const Netlist& locked, ClauseSink& sink,
                        const std::vector<Var>& input_vars,
                        const std::vector<Var>* key_vars) {
  const auto data_inputs = locked.data_inputs();
  const auto& key_inputs = locked.key_inputs();
  if (input_vars.size() != data_inputs.size()) {
    throw std::invalid_argument("encode_copy: input width mismatch");
  }
  if (key_vars && key_vars->size() != key_inputs.size()) {
    throw std::invalid_argument("encode_copy: key width mismatch");
  }
  std::unordered_map<NodeId, Var> bound;
  bound.reserve(data_inputs.size() + key_inputs.size());
  for (std::size_t i = 0; i < data_inputs.size(); ++i) {
    bound.emplace(data_inputs[i], input_vars[i]);
  }
  if (key_vars) {
    for (std::size_t i = 0; i < key_inputs.size(); ++i) {
      bound.emplace(key_inputs[i], (*key_vars)[i]);
    }
  }
  CircuitCopy copy;
  copy.enc = cnf::encode_circuit(locked, sink, bound);
  copy.key_vars.reserve(key_inputs.size());
  for (NodeId id : key_inputs) copy.key_vars.push_back(copy.enc.var_of(id));
  copy.output_vars.reserve(locked.outputs().size());
  for (NodeId id : locked.outputs()) {
    copy.output_vars.push_back(copy.enc.var_of(id));
  }
  return copy;
}

MiterContext::MiterContext(const Netlist& locked, ClauseSink& sink)
    : locked_(&locked) {
  // Historical layout: X first, then both key vectors, then the copies.
  x_vars_ = make_vars(sink, locked.data_inputs().size());
  const std::vector<Var> k1 = make_vars(sink, locked.key_inputs().size());
  const std::vector<Var> k2 = make_vars(sink, locked.key_inputs().size());
  copies_[0] = encode_copy(locked, sink, x_vars_, &k1);
  copies_[1] = encode_copy(locked, sink, x_vars_, &k2);
  diff_vars_ =
      cnf::encode_miter(sink, copies_[0].output_vars, copies_[1].output_vars);
}

MiterContext::MiterContext(const Netlist& locked, ClauseSink& sink,
                           const std::vector<bool>& key_a,
                           const std::vector<bool>& key_b)
    : locked_(&locked) {
  x_vars_ = make_vars(sink, locked.data_inputs().size());
  copies_[0] = encode_copy(locked, sink, x_vars_);
  fix_vars(sink, copies_[0].key_vars, key_a);
  copies_[1] = encode_copy(locked, sink, x_vars_);
  fix_vars(sink, copies_[1].key_vars, key_b);
  diff_vars_ =
      cnf::encode_miter(sink, copies_[0].output_vars, copies_[1].output_vars);
}

std::vector<bool> MiterContext::extract_dip(
    const std::function<bool(Var)>& model) const {
  std::vector<bool> dip;
  dip.reserve(x_vars_.size());
  for (Var v : x_vars_) dip.push_back(model(v));
  return dip;
}

}  // namespace ril::attacks::engine
