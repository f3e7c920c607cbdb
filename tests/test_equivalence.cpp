#include "cnf/equivalence.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <stdexcept>

#include "benchgen/arithmetic.hpp"
#include "locking/schemes.hpp"
#include "netlist/simulator.hpp"
#include "sat/solver.hpp"

namespace ril::cnf {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

TEST(Equivalence, IdenticalCircuits) {
  const Netlist a = benchgen::make_ripple_adder(8);
  const Netlist b = benchgen::make_ripple_adder(8);
  const auto result = check_equivalence(a, b);
  EXPECT_TRUE(result.equivalent());
}

TEST(Equivalence, RippleVsLookahead) {
  const Netlist a = benchgen::make_ripple_adder(12);
  const Netlist b = benchgen::make_cla_adder(12);
  EXPECT_TRUE(check_equivalence(a, b).equivalent());
}

TEST(Equivalence, DeMorgan) {
  Netlist a("demorgan_lhs");
  {
    const NodeId x = a.add_input("x");
    const NodeId y = a.add_input("y");
    a.mark_output(a.add_gate(GateType::kNand, {x, y}));
  }
  Netlist b("demorgan_rhs");
  {
    const NodeId x = b.add_input("x");
    const NodeId y = b.add_input("y");
    const NodeId nx = b.add_gate(GateType::kNot, {x});
    const NodeId ny = b.add_gate(GateType::kNot, {y});
    b.mark_output(b.add_gate(GateType::kOr, {nx, ny}));
  }
  EXPECT_TRUE(check_equivalence(a, b).equivalent());
}

TEST(Equivalence, CounterexampleIsReal) {
  Netlist a("and2");
  {
    const NodeId x = a.add_input("x");
    const NodeId y = a.add_input("y");
    a.mark_output(a.add_gate(GateType::kAnd, {x, y}));
  }
  Netlist b("or2");
  {
    const NodeId x = b.add_input("x");
    const NodeId y = b.add_input("y");
    b.mark_output(b.add_gate(GateType::kOr, {x, y}));
  }
  const auto result = check_equivalence(a, b);
  ASSERT_EQ(result.status, sat::Result::kSat);
  ASSERT_EQ(result.counterexample.size(), 2u);
  const auto ya = netlist::evaluate_once(a, result.counterexample);
  const auto yb = netlist::evaluate_once(b, result.counterexample);
  EXPECT_NE(ya, yb);
}

TEST(Equivalence, LockedWithCorrectKey) {
  const Netlist host = benchgen::make_ripple_adder(8);
  const auto locked = locking::lock_xor(host, 12, 42);
  const auto result =
      check_equivalence(locked.netlist, host, locked.key, {});
  EXPECT_TRUE(result.equivalent());
}

TEST(Equivalence, LockedWithWrongKey) {
  const Netlist host = benchgen::make_ripple_adder(8);
  auto locked = locking::lock_xor(host, 12, 42);
  auto wrong = locked.key;
  wrong[0] = !wrong[0];
  const auto result = check_equivalence(locked.netlist, host, wrong, {});
  EXPECT_EQ(result.status, sat::Result::kSat);
}

TEST(Equivalence, MismatchedInterfacesThrow) {
  const Netlist a = benchgen::make_ripple_adder(4);
  const Netlist b = benchgen::make_ripple_adder(5);
  EXPECT_THROW(check_equivalence(a, b), std::invalid_argument);
}

/// Copy of `c` whose primary inputs are added in `order` (indices into
/// c.inputs()), so position i of the copy's interface is input order[i].
Netlist permute_inputs(const Netlist& c,
                       const std::vector<std::size_t>& order) {
  Netlist out(c.name() + "_permuted");
  std::vector<NodeId> remap(c.node_count(), netlist::kNoNode);
  for (std::size_t i : order) {
    remap[c.inputs()[i]] = out.add_input(c.name_of(c.inputs()[i]));
  }
  std::vector<NodeId> fanins;
  for (NodeId id : c.topological_order()) {
    if (remap[id] != netlist::kNoNode) continue;
    fanins.clear();
    for (NodeId f : c.fanins(id)) fanins.push_back(remap[f]);
    const GateType type = c.type(id);
    if (type == GateType::kConst0 || type == GateType::kConst1) {
      remap[id] = out.add_const(type == GateType::kConst1);
    } else if (type == GateType::kLut) {
      remap[id] = out.add_lut(std::span<const NodeId>(fanins), c.lut_mask(id));
    } else {
      remap[id] = out.add_gate(type, std::span<const NodeId>(fanins));
    }
  }
  for (NodeId id : c.outputs()) out.mark_output(remap[id]);
  return out;
}

TEST(Equivalence, LimitReturnsUnknown) {
  // a*b against b*a: equal, but the partial products are summed in a
  // different order, so strash cannot merge the upper product bits and the
  // residual miter is a hard multiplier-commutativity proof.
  const std::size_t width = 12;
  const Netlist a = benchgen::make_array_multiplier(width);
  std::vector<std::size_t> swapped;
  for (std::size_t i = 0; i < width; ++i) swapped.push_back(width + i);
  for (std::size_t i = 0; i < width; ++i) swapped.push_back(i);
  const Netlist b = permute_inputs(a, swapped);
  sat::SolverLimits limits{.conflict_limit = 1000};
  const auto result = check_equivalence(a, b, {}, {}, limits);
  EXPECT_EQ(result.status, sat::Result::kUnknown);
  EXPECT_TRUE(result.counterexample.empty());
}

TEST(Equivalence, RaisedCancelFlagReturnsUnknown) {
  // The same residual multiplier miter as above: with the cancel token in
  // the limits already raised, the solve stops before it searches.
  const std::size_t width = 12;
  const Netlist a = benchgen::make_array_multiplier(width);
  std::vector<std::size_t> swapped;
  for (std::size_t i = 0; i < width; ++i) swapped.push_back(width + i);
  for (std::size_t i = 0; i < width; ++i) swapped.push_back(i);
  const Netlist b = permute_inputs(a, swapped);
  const std::atomic<bool> cancel{true};
  const auto result = check_equivalence(a, b, {}, {}, {.cancel = &cancel});
  EXPECT_EQ(result.status, sat::Result::kUnknown);
  EXPECT_TRUE(result.counterexample.empty());
}

/// Exhaustive verdict: do `a` (under key_a) and `b` (under key_b) agree on
/// every data-input vector? Both circuits have at most 6 data inputs, so
/// one 64-pattern simulator sweep covers all of them.
bool exhaustively_equal(const Netlist& a, const Netlist& b,
                        const std::vector<bool>& key_a,
                        const std::vector<bool>& key_b) {
  const std::size_t n = a.data_inputs().size();
  const std::uint64_t live =
      n == 6 ? ~std::uint64_t{0} : (std::uint64_t{1} << (1u << n)) - 1;
  const auto sweep = [&](const Netlist& c, const std::vector<bool>& key) {
    netlist::Simulator sim(c);
    const auto data = c.data_inputs();
    for (std::size_t j = 0; j < n; ++j) {
      std::uint64_t word = 0;
      for (std::uint64_t p = 0; p < 64; ++p) word |= ((p >> j) & 1) << p;
      sim.set_input(data[j], word);
    }
    for (std::size_t j = 0; j < key.size(); ++j) {
      sim.set_input_all(c.key_inputs()[j], key[j]);
    }
    sim.evaluate();
    auto words = sim.output_words();
    for (auto& w : words) w &= live;
    return words;
  };
  return sweep(a, key_a) == sweep(b, key_b);
}

/// Checks a kSat counterexample by replaying it on both circuits.
void expect_real_counterexample(const Netlist& a, const Netlist& b,
                                const std::vector<bool>& key_a,
                                const std::vector<bool>& key_b,
                                const EquivalenceResult& result) {
  ASSERT_EQ(result.status, sat::Result::kSat);
  ASSERT_EQ(result.counterexample.size(), a.data_inputs().size());
  EXPECT_NE(netlist::evaluate_with_key(a, result.counterexample, key_a),
            netlist::evaluate_with_key(b, result.counterexample, key_b));
}

/// Truth table of a non-LUT gate over its `k` fanins.
std::uint64_t gate_mask(GateType type, std::uint64_t lut_mask, std::size_t k) {
  std::uint64_t mask = 0;
  for (std::uint64_t r = 0; r < (std::uint64_t{1} << k); ++r) {
    bool v;
    if (type == GateType::kLut) {
      v = (lut_mask >> r) & 1;
    } else if (type == GateType::kMux) {
      v = (r & 1) ? (r >> 2) & 1 : (r >> 1) & 1;
    } else {
      std::uint64_t ops[6];
      for (std::size_t j = 0; j < k; ++j) ops[j] = ((r >> j) & 1) ? ~0ull : 0;
      v = netlist::eval_word(type, ops, k) & 1;
    }
    mask |= std::uint64_t{v} << r;
  }
  return mask;
}

struct Keyed {
  Netlist netlist;
  std::vector<bool> key;
};

constexpr GateType kRandomGates[] = {
    GateType::kAnd, GateType::kNand, GateType::kOr,  GateType::kNor,
    GateType::kXor, GateType::kXnor, GateType::kNot, GateType::kBuf,
    GateType::kMux, GateType::kLut};

/// Random keyed netlist: n_data + n_key <= 10 inputs (interleaved), gates
/// drawn from AND/OR/XOR families, NOT/BUF, MUX and 1..4-input LUTs over
/// any earlier node (repeats and constants included), random outputs
/// (inputs, constants and duplicates included).
Keyed random_keyed(std::mt19937_64& rng, std::size_t n_data,
                   std::size_t n_key, std::size_t n_gates) {
  Keyed out{Netlist("fuzz"), {}};
  Netlist& nl = out.netlist;
  std::vector<NodeId> nodes;
  for (std::size_t d = 0, k = 0; d + k < n_data + n_key;) {
    if (k < n_key && (d == n_data || rng() % 3 == 0)) {
      nodes.push_back(nl.add_key_input("keyinput" + std::to_string(k++)));
      out.key.push_back(rng() & 1);
    } else {
      nodes.push_back(nl.add_input("x" + std::to_string(d++)));
    }
  }
  if (rng() % 2) nodes.push_back(nl.add_const(rng() & 1));
  const auto pick = [&] { return nodes[rng() % nodes.size()]; };
  for (std::size_t g = 0; g < n_gates; ++g) {
    const GateType type = kRandomGates[rng() % std::size(kRandomGates)];
    std::vector<NodeId> fanins;
    if (type == GateType::kNot || type == GateType::kBuf) {
      fanins = {pick()};
    } else if (type == GateType::kMux) {
      fanins = {pick(), pick(), pick()};
    } else if (type == GateType::kLut) {
      const std::size_t k = 1 + rng() % 4;
      for (std::size_t j = 0; j < k; ++j) fanins.push_back(pick());
      const std::uint64_t rows = std::uint64_t{1} << k;
      nodes.push_back(nl.add_lut(std::span<const NodeId>(fanins),
                                 rng() & ((std::uint64_t{1} << rows) - 1)));
      continue;
    } else {
      const std::size_t k = 2 + rng() % 2;
      for (std::size_t j = 0; j < k; ++j) fanins.push_back(pick());
    }
    nodes.push_back(nl.add_gate(type, std::span<const NodeId>(fanins)));
  }
  const std::size_t n_out = 1 + rng() % 4;
  for (std::size_t o = 0; o < n_out; ++o) {
    // Bias towards late (deep) nodes, but let inputs/constants through.
    const std::size_t span = std::min<std::size_t>(nodes.size(), 6);
    nl.mark_output(rng() % 4 == 0 ? pick()
                                  : nodes[nodes.size() - 1 - rng() % span]);
  }
  return out;
}

/// Re-synthesizes `a` gate by gate with function-preserving rewrites (LUT
/// conversion with permuted fanins, De Morgan, MUX select inversion, double
/// inversion) and with fresh XOR/XNOR/MUX key gates whose correct values
/// are appended to the returned key. Data inputs come first, then keys, so
/// the interface order differs from `a` while data_inputs() still matches.
/// With `mutate`, one gate is changed in a way that may or may not alter
/// the circuit's function; the exhaustive sweep decides.
Keyed resynthesize(std::mt19937_64& rng, const Keyed& a, bool mutate) {
  const Netlist& c = a.netlist;
  Keyed out{Netlist("resynth"), {}};
  Netlist& nl = out.netlist;
  std::vector<NodeId> remap(c.node_count(), netlist::kNoNode);
  std::size_t key_count = 0;
  const auto new_key = [&](bool value) {
    out.key.push_back(value);
    return nl.add_key_input("keyinput" + std::to_string(key_count++));
  };
  for (NodeId id : c.data_inputs()) remap[id] = nl.add_input(c.name_of(id));
  for (std::size_t i = 0; i < c.key_inputs().size(); ++i) {
    remap[c.key_inputs()[i]] = new_key(a.key[i]);
  }
  const std::size_t gates = c.gate_count();
  const std::size_t victim = mutate ? rng() % std::max<std::size_t>(gates, 1)
                                    : static_cast<std::size_t>(-1);
  std::size_t gate_index = 0;
  const auto not_ = [&](NodeId x) { return nl.add_gate(GateType::kNot, {x}); };
  for (NodeId id : c.topological_order()) {
    if (remap[id] != netlist::kNoNode) continue;
    GateType type = c.type(id);
    if (type == GateType::kConst0 || type == GateType::kConst1) {
      remap[id] = nl.add_const(type == GateType::kConst1);
      continue;
    }
    std::vector<NodeId> f;
    for (NodeId x : c.fanins(id)) f.push_back(remap[x]);
    std::uint64_t mask = c.lut_mask(id);
    if (gate_index++ == victim) {
      if (type == GateType::kLut) {
        mask ^= std::uint64_t{1} << (rng() % (std::uint64_t{1} << f.size()));
      } else if (type == GateType::kMux) {
        std::swap(f[1], f[2]);
      } else if (f.size() == 1) {
        type = type == GateType::kNot ? GateType::kBuf : GateType::kNot;
      } else {
        type = type == GateType::kAnd ? GateType::kXor : GateType::kAnd;
      }
    }
    NodeId y;
    const bool demorgan_able = type == GateType::kAnd ||
                               type == GateType::kOr ||
                               type == GateType::kNand ||
                               type == GateType::kNor;
    switch (rng() % 5) {
      case 0: {  // as a LUT with a shuffled fanin order
        std::vector<std::size_t> perm(f.size());
        for (std::size_t q = 0; q < perm.size(); ++q) perm[q] = q;
        std::shuffle(perm.begin(), perm.end(), rng);
        const std::uint64_t table = gate_mask(type, mask, f.size());
        std::uint64_t shuffled = 0;
        std::vector<NodeId> pf(f.size());
        for (std::size_t q = 0; q < perm.size(); ++q) pf[q] = f[perm[q]];
        for (std::uint64_t r = 0; r < (std::uint64_t{1} << f.size()); ++r) {
          std::uint64_t old = 0;
          for (std::size_t q = 0; q < perm.size(); ++q) {
            old |= ((r >> q) & 1) << perm[q];
          }
          shuffled |= ((table >> old) & 1) << r;
        }
        y = nl.add_lut(std::span<const NodeId>(pf), shuffled);
        break;
      }
      case 1:
        if (demorgan_able) {  // AND(f) = NOR(!f), OR(f) = NAND(!f), ...
          for (NodeId& x : f) x = not_(x);
          const GateType dual = type == GateType::kAnd    ? GateType::kNor
                                : type == GateType::kOr   ? GateType::kNand
                                : type == GateType::kNand ? GateType::kOr
                                                          : GateType::kAnd;
          y = nl.add_gate(dual, std::span<const NodeId>(f));
          break;
        }
        if (type == GateType::kMux) {
          y = nl.add_mux(not_(f[0]), f[2], f[1]);
          break;
        }
        [[fallthrough]];
      case 2:
        y = type == GateType::kLut
                ? nl.add_lut(std::span<const NodeId>(f), mask)
                : nl.add_gate(type, std::span<const NodeId>(f));
        y = not_(not_(y));
        break;
      default:
        y = type == GateType::kLut
                ? nl.add_lut(std::span<const NodeId>(f), mask)
                : nl.add_gate(type, std::span<const NodeId>(f));
    }
    switch (rng() % 6) {  // lock the wire behind a fresh key gate
      case 0:
        y = nl.add_gate(GateType::kXor, {y, new_key(false)});
        break;
      case 1:
        y = nl.add_gate(GateType::kXnor, {y, new_key(true)});
        break;
      case 2: {
        const bool k = rng() & 1;
        const NodeId key = new_key(k);
        y = k ? nl.add_mux(key, not_(y), y) : nl.add_mux(key, y, not_(y));
        break;
      }
      default:
        break;
    }
    remap[id] = y;
  }
  for (NodeId id : c.outputs()) nl.mark_output(remap[id]);
  return out;
}

TEST(Equivalence, FuzzMatchesExhaustiveSimulation) {
  std::mt19937_64 rng(20210601);
  std::size_t equal = 0;
  std::size_t differ = 0;
  for (int round = 0; round < 400; ++round) {
    const std::size_t n_data = 1 + rng() % 6;
    const std::size_t n_key = rng() % 5;
    const Keyed a = random_keyed(rng, n_data, n_key, 2 + rng() % 24);
    const bool mutate = rng() % 3 == 0;
    Keyed b = resynthesize(rng, a, mutate);
    if (!b.key.empty() && rng() % 6 == 0) {
      const std::size_t bit = rng() % b.key.size();
      b.key[bit] = !b.key[bit];
    }
    const bool expected =
        exhaustively_equal(a.netlist, b.netlist, a.key, b.key);
    const auto result = check_equivalence(a.netlist, b.netlist, a.key, b.key);
    SCOPED_TRACE("round " + std::to_string(round));
    if (expected) {
      ++equal;
      EXPECT_EQ(result.status, sat::Result::kUnsat);
      EXPECT_TRUE(result.counterexample.empty());
    } else {
      ++differ;
      expect_real_counterexample(a.netlist, b.netlist, a.key, b.key, result);
    }
    // The check is symmetric.
    EXPECT_EQ(check_equivalence(b.netlist, a.netlist, b.key, a.key).status,
              result.status);
  }
  // Both verdicts must be well represented for the fuzz to mean anything.
  EXPECT_GT(equal, 100u);
  EXPECT_GT(differ, 50u);
}

TEST(Equivalence, OutputsFoldingToConstants) {
  Netlist a("consts");
  const NodeId x = a.add_input("x");
  const NodeId k = a.add_key_input("keyinput0");
  const NodeId nx = a.add_gate(GateType::kNot, {x});
  a.mark_output(a.add_gate(GateType::kAnd, {x, nx}));
  a.mark_output(a.add_gate(GateType::kOr, {x, k}));  // 1 under k = 1
  a.mark_output(a.add_gate(GateType::kXor, {x, x}));
  Netlist b("consts_ref");
  b.add_input("x");
  b.mark_output(b.add_const(false));
  b.mark_output(b.add_const(true));
  b.mark_output(b.add_const(false));
  EXPECT_TRUE(check_equivalence(a, b, {true}, {}).equivalent());

  // Under k = 0 output 1 is x, not constant 1: the only witness is x = 0.
  const auto result = check_equivalence(a, b, {false}, {});
  expect_real_counterexample(a, b, {false}, {}, result);
  EXPECT_EQ(result.counterexample, std::vector<bool>{false});

  // Both sides folding to different constants differ on every input.
  Netlist c("const1");
  c.add_input("x");
  c.mark_output(c.add_const(true));
  c.mark_output(c.add_const(true));
  c.mark_output(c.add_const(false));
  expect_real_counterexample(b, c, {}, {}, check_equivalence(b, c));
}

TEST(Equivalence, OutputWiredToPrimaryInput) {
  Netlist a("wire");
  {
    const NodeId x = a.add_input("x");
    a.add_input("y");
    a.mark_output(x);
  }
  Netlist b("routed");  // key-selected routing of x or y
  {
    const NodeId x = b.add_input("x");
    const NodeId y = b.add_input("y");
    const NodeId k = b.add_key_input("keyinput0");
    b.mark_output(b.add_mux(k, y, x));
  }
  EXPECT_TRUE(check_equivalence(a, b, {}, {true}).equivalent());
  expect_real_counterexample(a, b, {}, {false},
                             check_equivalence(a, b, {}, {false}));
}

TEST(Equivalence, DuplicatedOutputs) {
  Netlist a("dup");
  {
    const NodeId x = a.add_input("x");
    const NodeId y = a.add_input("y");
    const NodeId g = a.add_gate(GateType::kAnd, {x, y});
    a.mark_output(g);
    a.mark_output(g);
  }
  Netlist b("dup_ref");
  {
    const NodeId x = b.add_input("x");
    const NodeId y = b.add_input("y");
    const NodeId nx = b.add_gate(GateType::kNot, {x});
    const NodeId ny = b.add_gate(GateType::kNot, {y});
    b.mark_output(b.add_gate(GateType::kNor, {nx, ny}));
    b.mark_output(b.add_lut({y, x}, 0x8));
  }
  EXPECT_TRUE(check_equivalence(a, b).equivalent());
  Netlist c("dup_wrong");
  {
    const NodeId x = c.add_input("x");
    const NodeId y = c.add_input("y");
    const NodeId g = c.add_gate(GateType::kAnd, {x, y});
    c.mark_output(g);
    c.mark_output(c.add_gate(GateType::kOr, {x, y}));
  }
  expect_real_counterexample(a, c, {}, {}, check_equivalence(a, c));
}

TEST(Equivalence, KeyOnSecondCircuit) {
  const Netlist host = benchgen::make_ripple_adder(8);
  const auto locked = locking::lock_xor(host, 12, 7);
  EXPECT_TRUE(check_equivalence(host, locked.netlist, {}, locked.key)
                  .equivalent());
  // Both sides keyed.
  EXPECT_TRUE(check_equivalence(locked.netlist, locked.netlist, locked.key,
                                locked.key)
                  .equivalent());
  auto wrong = locked.key;
  wrong.back() = !wrong.back();
  expect_real_counterexample(
      host, locked.netlist, {}, wrong,
      check_equivalence(host, locked.netlist, {}, wrong));
  expect_real_counterexample(
      locked.netlist, locked.netlist, locked.key, wrong,
      check_equivalence(locked.netlist, locked.netlist, locked.key, wrong));
}

TEST(Equivalence, SequentialNetlistsAreRejected) {
  Netlist seq("seq");
  {
    const NodeId x = seq.add_input("x");
    const NodeId q = seq.add_gate(GateType::kDff, {x});
    seq.mark_output(seq.add_gate(GateType::kXor, {x, q}));
  }
  Netlist comb("comb");
  {
    const NodeId x = comb.add_input("x");
    comb.mark_output(comb.add_gate(GateType::kBuf, {x}));
  }
  EXPECT_THROW(check_equivalence(seq, comb), std::invalid_argument);
  EXPECT_THROW(check_equivalence(comb, seq), std::invalid_argument);
  // Cutting the DFFs first is the supported path (interfaces then differ).
  EXPECT_THROW(check_equivalence(seq.combinational_core(), comb),
               std::invalid_argument);
  EXPECT_NO_THROW(check_equivalence(seq.combinational_core(),
                                    seq.combinational_core()));
}

}  // namespace
}  // namespace ril::cnf
