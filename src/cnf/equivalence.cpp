#include "cnf/equivalence.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "cnf/tseitin.hpp"
#include "sat/solver.hpp"

namespace ril::cnf {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;
using sat::Solver;
using sat::Var;

namespace {

/// Truth table over `k` variables whose row r is row `old_row(r)` of `mask`.
template <typename OldRow>
std::uint64_t remap_rows(std::uint64_t mask, std::size_t k, OldRow old_row) {
  std::uint64_t out = 0;
  for (std::uint64_t r = 0; r < (std::uint64_t{1} << k); ++r) {
    out |= ((mask >> old_row(r)) & 1) << r;
  }
  return out;
}

/// Inserts `bit` at position `pos` of `r`, shifting the higher bits up.
std::uint64_t insert_bit(std::uint64_t r, std::size_t pos, bool bit) {
  const std::uint64_t low = r & ((std::uint64_t{1} << pos) - 1);
  return ((r >> pos) << (pos + 1)) | (std::uint64_t{bit} << pos) | low;
}

/// Copies circuits into one structurally hashed netlist, folding constants
/// and rewriting every gate into a small canonical vocabulary: NOT, AND,
/// XOR, MUX and LUT (3+ inputs). OR/NAND/NOR/XNOR become inverted ANDs and
/// XORs, inversions are pushed out of XOR and LUT fanins, MUX selects and
/// MUX d0 inputs, and a LUT that is an AND, OR or XOR of its inputs becomes
/// that gate. Two copies of the same function built from different gate mixes
/// (a host NAND versus the key-folded MUX tree that replaced it) thereby
/// land on the same node. NOT nodes are only ever created by not_(), so a
/// NOT never feeds another NOT and never wraps a constant.
class FoldingCopier {
 public:
  explicit FoldingCopier(Netlist& m) : m_(m) {}

  /// Copies `c` with its data inputs bound positionally to `data` and its
  /// key inputs replaced by the constants `key`; returns its outputs.
  std::vector<NodeId> copy(const Netlist& c, const std::vector<NodeId>& data,
                           const std::vector<bool>& key) {
    std::vector<NodeId> remap(c.node_count(), netlist::kNoNode);
    const auto data_in = c.data_inputs();
    for (std::size_t i = 0; i < data_in.size(); ++i) {
      remap[data_in[i]] = data[i];
    }
    for (std::size_t i = 0; i < key.size(); ++i) {
      remap[c.key_inputs()[i]] = constant(key[i]);
    }
    std::vector<NodeId> fanins;
    for (NodeId id : c.topological_order()) {
      if (remap[id] != netlist::kNoNode) continue;
      fanins.clear();
      for (NodeId f : c.fanins(id)) fanins.push_back(remap[f]);
      remap[id] = gate(c.type(id), fanins, c.lut_mask(id));
    }
    std::vector<NodeId> outputs;
    outputs.reserve(c.outputs().size());
    for (NodeId id : c.outputs()) outputs.push_back(remap[id]);
    return outputs;
  }

 private:
  NodeId gate(GateType type, std::vector<NodeId> f, std::uint64_t mask) {
    switch (type) {
      case GateType::kConst0:
        return constant(false);
      case GateType::kConst1:
        return constant(true);
      case GateType::kBuf:
        return f[0];
      case GateType::kNot:
        return not_(f[0]);
      case GateType::kAnd:
        return and_(std::move(f));
      case GateType::kNand:
        return not_(and_(std::move(f)));
      case GateType::kOr:
        return or_(std::move(f));
      case GateType::kNor:
        return not_(or_(std::move(f)));
      case GateType::kXor:
        return xor_(std::move(f));
      case GateType::kXnor:
        return not_(xor_(std::move(f)));
      case GateType::kMux:
        return mux(f[0], f[1], f[2]);
      case GateType::kLut:
        return lut(std::move(f), mask);
      case GateType::kInput:
      case GateType::kDff:
        break;
    }
    throw std::invalid_argument("check_equivalence: unexpected node type");
  }

  /// 0/1 for constant nodes, -1 otherwise.
  int const_of(NodeId x) const {
    const GateType t = m_.type(x);
    return t == GateType::kConst0 ? 0 : t == GateType::kConst1 ? 1 : -1;
  }
  bool is_not(NodeId x) const { return m_.type(x) == GateType::kNot; }
  bool complementary(NodeId x, NodeId y) const {
    return (is_not(x) && m_.fanin(x, 0) == y) ||
           (is_not(y) && m_.fanin(y, 0) == x);
  }

  NodeId constant(bool value) { return m_.add_const(value); }

  NodeId not_(NodeId x) {
    if (const int c = const_of(x); c >= 0) return constant(c == 0);
    if (is_not(x)) return m_.fanin(x, 0);
    return m_.add_gate(GateType::kNot, {x});
  }

  NodeId and_(std::vector<NodeId> f) {
    std::erase_if(f, [&](NodeId x) { return const_of(x) == 1; });
    if (std::any_of(f.begin(), f.end(),
                    [&](NodeId x) { return const_of(x) == 0; })) {
      return constant(false);
    }
    std::sort(f.begin(), f.end());
    f.erase(std::unique(f.begin(), f.end()), f.end());
    for (NodeId x : f) {
      if (is_not(x) && std::binary_search(f.begin(), f.end(), m_.fanin(x, 0))) {
        return constant(false);
      }
    }
    if (f.empty()) return constant(true);
    if (f.size() == 1) return f[0];
    return m_.add_gate(GateType::kAnd, std::span<const NodeId>(f));
  }

  NodeId or_(std::vector<NodeId> f) {
    for (NodeId& x : f) x = not_(x);
    return not_(and_(std::move(f)));
  }

  NodeId xor_(std::vector<NodeId> f) {
    bool parity = false;
    std::vector<NodeId> vars;
    for (NodeId x : f) {
      if (const int c = const_of(x); c >= 0) {
        parity ^= (c == 1);
        continue;
      }
      if (is_not(x)) {
        parity = !parity;
        x = m_.fanin(x, 0);
      }
      vars.push_back(x);
    }
    std::sort(vars.begin(), vars.end());
    std::vector<NodeId> odd;  // x XOR x cancels
    for (std::size_t i = 0; i < vars.size(); ++i) {
      if (i + 1 < vars.size() && vars[i] == vars[i + 1]) {
        ++i;
      } else {
        odd.push_back(vars[i]);
      }
    }
    NodeId y;
    if (odd.empty()) {
      y = constant(false);
    } else if (odd.size() == 1) {
      y = odd[0];
    } else {
      y = m_.add_gate(GateType::kXor, std::span<const NodeId>(odd));
    }
    return parity ? not_(y) : y;
  }

  NodeId mux(NodeId s, NodeId d0, NodeId d1) {
    if (const int c = const_of(s); c >= 0) return c == 1 ? d1 : d0;
    if (is_not(s)) {
      s = m_.fanin(s, 0);
      std::swap(d0, d1);
    }
    if (d0 == d1) return d0;
    const int c0 = const_of(d0);
    const int c1 = const_of(d1);
    if (c0 >= 0 && c1 >= 0) return c0 == 0 ? s : not_(s);
    if (c0 == 0 || d0 == s) return and_({s, d1});
    if (c1 == 0) return and_({not_(s), d0});
    if (c0 == 1) return or_({not_(s), d1});
    if (c1 == 1 || d1 == s) return or_({s, d0});
    if (complementary(d0, d1)) return xor_({s, d0});
    if (is_not(d0)) return not_(mux(s, m_.fanin(d0, 0), not_(d1)));
    return m_.add_mux(s, d0, d1);
  }

  NodeId lut(std::vector<NodeId> f, std::uint64_t mask) {
    // Constants cofactor away; inverted fanins flip their variable.
    for (std::size_t i = 0; i < f.size();) {
      if (const int c = const_of(f[i]); c >= 0) {
        mask = remap_rows(mask, f.size() - 1,
                          [&](std::uint64_t r) { return insert_bit(r, i, c); });
        f.erase(f.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      if (is_not(f[i])) {
        f[i] = m_.fanin(f[i], 0);
        mask = remap_rows(mask, f.size(),
                          [&](std::uint64_t r) { return r ^ (1ull << i); });
      }
      ++i;
    }
    // Repeated fanins merge into their first occurrence.
    for (std::size_t j = 1; j < f.size();) {
      const auto first = std::find(f.begin(), f.begin() + j, f[j]);
      if (first == f.begin() + j) {
        ++j;
        continue;
      }
      const std::size_t i = static_cast<std::size_t>(first - f.begin());
      mask = remap_rows(mask, f.size() - 1, [&](std::uint64_t r) {
        return insert_bit(r, j, (r >> i) & 1);
      });
      f.erase(f.begin() + static_cast<std::ptrdiff_t>(j));
    }
    // Variables the table ignores drop out.
    for (std::size_t j = 0; j < f.size();) {
      const auto cofactor = [&](bool v) {
        return remap_rows(mask, f.size() - 1, [&](std::uint64_t r) {
          return insert_bit(r, j, v);
        });
      };
      const std::uint64_t lo = cofactor(false);
      if (lo != cofactor(true)) {
        ++j;
        continue;
      }
      mask = lo;
      f.erase(f.begin() + static_cast<std::ptrdiff_t>(j));
    }
    // Canonical form: fanins ascending, row 0 of the table clear.
    std::vector<std::size_t> order(f.size());
    for (std::size_t q = 0; q < order.size(); ++q) order[q] = q;
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) { return f[x] < f[y]; });
    mask = remap_rows(mask, f.size(), [&](std::uint64_t r) {
      std::uint64_t old = 0;
      for (std::size_t q = 0; q < order.size(); ++q) {
        old |= ((r >> q) & 1) << order[q];
      }
      return old;
    });
    std::sort(f.begin(), f.end());
    const std::uint64_t rows = std::uint64_t{1} << f.size();
    const std::uint64_t full = rows == 64 ? ~0ull : (1ull << rows) - 1;
    const bool invert = mask & 1;
    if (invert) mask = ~mask & full;
    return invert ? not_(lut_shape(std::move(f), mask))
                  : lut_shape(std::move(f), mask);
  }

  /// Emits a reduced, canonical LUT (row 0 clear, every fanin relevant),
  /// recognizing AND/OR/XOR shapes.
  NodeId lut_shape(std::vector<NodeId> f, std::uint64_t mask) {
    if (f.empty()) return constant(false);
    const std::uint64_t rows = std::uint64_t{1} << f.size();
    std::uint64_t parity = 0;
    for (std::uint64_t r = 0; r < rows; ++r) {
      parity |= std::uint64_t(std::popcount(r) & 1) << r;
    }
    if (mask == parity) return xor_(std::move(f));
    if (std::popcount(mask) == 1) {  // one true row: AND of literals
      const int row = std::countr_zero(mask);
      for (std::size_t q = 0; q < f.size(); ++q) {
        if (!((row >> q) & 1)) f[q] = not_(f[q]);
      }
      return and_(std::move(f));
    }
    if (static_cast<std::uint64_t>(std::popcount(mask)) == rows - 1) {
      return or_(std::move(f));  // only row 0 false
    }
    return m_.add_lut(std::span<const NodeId>(f), mask);
  }

  Netlist& m_;
};

}  // namespace

EquivalenceResult check_equivalence(const Netlist& a, const Netlist& b,
                                    const std::vector<bool>& key_a,
                                    const std::vector<bool>& key_b,
                                    const sat::SolverLimits& limits) {
  const std::size_t num_data = a.data_inputs().size();
  if (num_data != b.data_inputs().size()) {
    throw std::invalid_argument("check_equivalence: data input mismatch");
  }
  if (a.outputs().size() != b.outputs().size()) {
    throw std::invalid_argument("check_equivalence: output mismatch");
  }
  if (key_a.size() != a.key_inputs().size() ||
      key_b.size() != b.key_inputs().size()) {
    throw std::invalid_argument("check_equivalence: key width mismatch");
  }
  if (a.dff_count() != 0 || b.dff_count() != 0) {
    throw std::invalid_argument(
        "check_equivalence: sequential netlist; call combinational_core() "
        "first");
  }

  // Both circuits, keys folded in, share one strashed netlist and its
  // data inputs. Every node is added unnamed so strash can dedupe it.
  Netlist miter("cec_miter");
  miter.set_structural_hashing(true);
  miter.reserve(a.node_count() + b.node_count(),
                a.fanin_pool_size() + b.fanin_pool_size());
  std::vector<NodeId> x;
  x.reserve(num_data);
  for (std::size_t i = 0; i < num_data; ++i) {
    x.push_back(miter.add_input(std::string("x").append(std::to_string(i))));
  }
  FoldingCopier copier(miter);
  const std::vector<NodeId> out_a = copier.copy(a, x, key_a);
  const std::vector<NodeId> out_b = copier.copy(b, x, key_b);

  // Pairs that landed on one node are proven equal; only the rest reach SAT.
  std::vector<NodeId> open;
  std::vector<NodeId> open_b;
  for (std::size_t i = 0; i < out_a.size(); ++i) {
    if (out_a[i] != out_b[i]) {
      open.push_back(out_a[i]);
      open_b.push_back(out_b[i]);
    }
  }
  const std::size_t pairs = open.size();
  EquivalenceResult result;
  if (pairs == 0) {
    result.status = sat::Result::kUnsat;
    return result;
  }

  // Encode only the residual pairs' fan-in cones.
  open.insert(open.end(), open_b.begin(), open_b.end());
  miter.set_outputs(std::move(open));
  const std::vector<NodeId> remap = miter.sweep_dead();
  Solver solver;
  solver.set_limits(limits);
  const CircuitEncoding enc = encode_circuit(miter, solver);
  std::vector<Var> lhs;
  std::vector<Var> rhs;
  for (std::size_t i = 0; i < pairs; ++i) {
    lhs.push_back(enc.var_of(miter.outputs()[i]));
    rhs.push_back(enc.var_of(miter.outputs()[pairs + i]));
  }
  encode_miter(solver, lhs, rhs);

  result.status = solver.solve();
  if (result.status == sat::Result::kSat) {
    result.counterexample.reserve(num_data);
    for (NodeId xi : x) {
      result.counterexample.push_back(solver.model_bool(enc.var_of(remap[xi])));
    }
  }
  return result;
}

}  // namespace ril::cnf
