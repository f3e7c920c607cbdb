// The plain DIP encoding: the locked circuit as it is, keys bound
// positionally to key_inputs().
//
// The miter is MiterContext's free-key miter (optionally replayed from or
// captured into a MiterSkeleton). An I/O constraint pins the circuit to one
// fixed input pattern, so most of the circuit is constant under it:
// instead of re-encoding the whole netlist per constraint, the encoding
// cofactors the netlist on the DIP (netlist::specialize_inputs) and
// constant-propagates it down to the key-dependent cone (netlist::simplify)
// before encoding -- typically an order of magnitude fewer clauses per
// constraint. The cofactor is cached across the three per-DIP call sites
// (miter copy 1 / copy 2 / key solver).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "attacks/engine/dip_loop.hpp"
#include "attacks/engine/miter_context.hpp"
#include "netlist/netlist.hpp"
#include "sat/clause_sink.hpp"

namespace ril::attacks::engine {

class PlainEncoding final : public DipEncoding {
 public:
  /// `locked` (and a given skeleton) must outlive the encoding. With
  /// `replay` set the miter is replayed from it; otherwise it is encoded
  /// and, with `capture` set, recorded into it.
  explicit PlainEncoding(const netlist::Netlist& locked,
                         const MiterSkeleton* replay = nullptr,
                         MiterSkeleton* capture = nullptr);

  MiterVars encode_miter(sat::ClauseSink& sink) override;
  /// One variable per key input, in key_inputs() order.
  std::vector<sat::Var> make_key(sat::ClauseSink& sink) override;
  std::size_t add_constraint(sat::ClauseSink& sink,
                             const std::vector<sat::Var>& key,
                             const std::vector<bool>& dip,
                             const std::vector<bool>& response) override;

 private:
  const netlist::Netlist* locked_ = nullptr;
  const MiterSkeleton* replay_ = nullptr;
  MiterSkeleton* capture_ = nullptr;
  std::vector<netlist::NodeId> data_inputs_;
  // Cofactor cache: constraints arrive in same-DIP bursts (both miter
  // copies plus the key solver), so the last cone is almost always a hit.
  std::optional<netlist::Netlist> cone_;
  std::vector<bool> cone_dip_;
};

}  // namespace ril::attacks::engine
