#include "attacks/engine/dip_encoder.hpp"

#include <stdexcept>

#include "cnf/tseitin.hpp"
#include "netlist/simplify.hpp"
#include "netlist/specialize.hpp"

namespace ril::attacks::engine {

using netlist::Netlist;
using sat::ClauseSink;
using sat::CountingSink;
using sat::Lit;
using sat::Var;

PlainEncoding::PlainEncoding(const Netlist& locked,
                             const MiterSkeleton* replay,
                             MiterSkeleton* capture)
    : locked_(&locked),
      replay_(replay),
      capture_(capture),
      data_inputs_(locked.data_inputs()) {}

MiterVars PlainEncoding::encode_miter(ClauseSink& sink) {
  const MiterContext ctx = replay_ != nullptr
                               ? MiterContext(*locked_, *replay_, sink)
                               : MiterContext(*locked_, sink, capture_);
  return {ctx.input_vars(), {ctx.copy(0).key_vars, ctx.copy(1).key_vars}};
}

std::vector<Var> PlainEncoding::make_key(ClauseSink& sink) {
  return make_vars(sink, locked_->key_inputs().size());
}

std::size_t PlainEncoding::add_constraint(ClauseSink& sink,
                                          const std::vector<Var>& key,
                                          const std::vector<bool>& dip,
                                          const std::vector<bool>& response) {
  if (key.size() != locked_->key_inputs().size() ||
      dip.size() != data_inputs_.size() ||
      response.size() != locked_->outputs().size()) {
    throw std::invalid_argument("add_constraint: width mismatch");
  }
  if (!cone_ || cone_dip_ != dip) {
    cone_ = netlist::specialize_inputs(*locked_, data_inputs_, dip);
    netlist::simplify(*cone_);
    cone_dip_ = dip;
  }
  CountingSink counting(&sink);
  const cnf::SpecializedEncoding spec =
      cnf::encode_specialized(*cone_, counting, key);
  for (std::size_t i = 0; i < spec.outputs.size(); ++i) {
    counting.add_clause({Lit::make(spec.outputs[i], !response[i])});
  }
  return counting.clauses();
}

}  // namespace ril::attacks::engine
