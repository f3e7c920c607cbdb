// Migration coverage for the struct-of-arrays netlist IR, structural
// hashing, and the streaming Tseitin encoder: the old array-of-structs IR
// and the per-clause encoder are gone, so these tests pin the behaviors the
// rewrite promised to preserve -- topological orders, fanout maps,
// simulator semantics, bit-identical CNF streams -- against independent
// naive reference implementations, plus the CSR edge cases (replace_uses,
// set_fanins growth, sweep_dead compaction) and the million-gate host
// generators that ride on them.
#include <algorithm>
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "benchgen/crypto.hpp"
#include "benchgen/fabric.hpp"
#include "benchgen/random_dag.hpp"
#include "cnf/tseitin.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"
#include "runtime/portfolio.hpp"
#include "sat/clause_sink.hpp"
#include "sat/solver.hpp"

namespace {

using ril::benchgen::LutFabricParams;
using ril::benchgen::RandomDagParams;
using ril::netlist::GateType;
using ril::netlist::Netlist;
using ril::netlist::NodeId;
using ril::sat::ClauseBatch;
using ril::sat::ClauseSink;
using ril::sat::CountingSink;
using ril::sat::Lit;
using ril::sat::Var;

Netlist fuzz_dag(std::uint64_t seed, std::size_t gates = 300) {
  RandomDagParams params;
  params.name = "fuzz" + std::to_string(seed);
  params.num_inputs = 12;
  params.num_outputs = 8;
  params.num_gates = gates;
  params.seed = seed;
  return ril::benchgen::generate_random_dag(params);
}

// Naive single-bit evaluation straight off the Node views -- the reference
// the word-parallel Simulator must agree with.
bool eval_node(const Netlist& nl, const std::vector<bool>& value, NodeId id) {
  const auto node = nl.node(id);
  const auto in = [&](std::size_t i) { return value[node.fanins[i]]; };
  switch (node.type) {
    case GateType::kConst0: return false;
    case GateType::kConst1: return true;
    case GateType::kBuf: return in(0);
    case GateType::kNot: return !in(0);
    case GateType::kAnd: {
      for (std::size_t i = 0; i < node.fanins.size(); ++i)
        if (!in(i)) return false;
      return true;
    }
    case GateType::kOr: {
      for (std::size_t i = 0; i < node.fanins.size(); ++i)
        if (in(i)) return true;
      return false;
    }
    case GateType::kNand: {
      for (std::size_t i = 0; i < node.fanins.size(); ++i)
        if (!in(i)) return true;
      return false;
    }
    case GateType::kNor: {
      for (std::size_t i = 0; i < node.fanins.size(); ++i)
        if (in(i)) return false;
      return true;
    }
    case GateType::kXor: {
      bool v = false;
      for (std::size_t i = 0; i < node.fanins.size(); ++i) v ^= in(i);
      return v;
    }
    case GateType::kXnor: {
      bool v = true;
      for (std::size_t i = 0; i < node.fanins.size(); ++i) v ^= in(i);
      return v;
    }
    case GateType::kMux: return in(0) ? in(2) : in(1);
    case GateType::kLut: {
      std::uint64_t row = 0;
      for (std::size_t i = 0; i < node.fanins.size(); ++i)
        if (in(i)) row |= std::uint64_t{1} << i;
      return (node.lut_mask >> row) & 1;
    }
    default: ADD_FAILURE() << "unexpected node type"; return false;
  }
}

// ---- IR equivalence fuzz ---------------------------------------------------

TEST(SoaIr, TopologicalOrderCoversAllNodesFaninsFirst) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const Netlist nl = fuzz_dag(seed);
    const auto topo = nl.topological_order();
    ASSERT_EQ(topo.size(), nl.node_count());
    std::vector<std::size_t> position(nl.node_count());
    std::vector<char> seen(nl.node_count(), 0);
    for (std::size_t i = 0; i < topo.size(); ++i) {
      EXPECT_FALSE(seen[topo[i]]) << "node listed twice";
      seen[topo[i]] = 1;
      position[topo[i]] = i;
    }
    for (NodeId id = 0; id < nl.node_count(); ++id) {
      if (nl.type(id) == GateType::kDff) continue;
      for (NodeId fi : nl.fanins(id)) {
        EXPECT_LT(position[fi], position[id])
            << "fanin " << fi << " after its use " << id;
      }
    }
  }
}

TEST(SoaIr, FanoutMapMatchesNaiveScan) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const Netlist nl = fuzz_dag(seed);
    const auto fanouts = nl.fanouts();
    ASSERT_EQ(fanouts.size(), nl.node_count());
    std::vector<std::vector<NodeId>> naive(nl.node_count());
    for (NodeId id = 0; id < nl.node_count(); ++id) {
      for (NodeId fi : nl.fanins(id)) naive[fi].push_back(id);
    }
    for (NodeId id = 0; id < nl.node_count(); ++id) {
      const auto got = fanouts[id];
      ASSERT_EQ(got.size(), naive[id].size()) << "node " << id;
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
      EXPECT_TRUE(std::equal(got.begin(), got.end(), naive[id].begin()));
    }
  }
}

TEST(SoaIr, SimulatorMatchesNaiveSingleBitReference) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    const Netlist nl = fuzz_dag(seed);
    std::mt19937_64 rng(seed * 977);
    ril::netlist::Simulator sim(nl);
    std::vector<std::uint64_t> words(nl.node_count(), 0);
    for (NodeId in : nl.inputs()) {
      words[in] = rng();
      sim.set_input(in, words[in]);
    }
    sim.evaluate();
    const auto topo = nl.topological_order();
    // Check 8 of the 64 parallel patterns against the naive evaluator.
    for (int bit = 0; bit < 64; bit += 8) {
      std::vector<bool> value(nl.node_count(), false);
      for (NodeId id : topo) {
        value[id] = nl.type(id) == GateType::kInput
                        ? ((words[id] >> bit) & 1) != 0
                        : eval_node(nl, value, id);
      }
      for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
        const NodeId out = nl.outputs()[o];
        EXPECT_EQ((sim.value(out) >> bit) & 1, value[out] ? 1u : 0u)
            << "seed " << seed << " output " << o << " pattern " << bit;
      }
    }
  }
}

// ---- streaming Tseitin equivalence -----------------------------------------

// Records the exact variable-allocation and clause stream crossing the
// sink boundary, for bit-identical comparisons between encoder paths.
struct StreamLogSink final : ClauseSink {
  Var next = 0;
  std::vector<std::vector<int>> clauses;

  Var new_var() override { return next++; }
  void ensure_var(Var v) override { next = std::max(next, v + 1); }
  bool add_clause(ril::sat::Clause lits) override {
    std::vector<int> c;
    for (Lit l : lits) c.push_back(l.sign() ? -(int(l.var()) + 1)
                                            : int(l.var()) + 1);
    clauses.push_back(std::move(c));
    return true;
  }
  using ClauseSink::add_clause;
};

TEST(StreamingTseitin, BitIdenticalToPerNodeLegacyEncoding) {
  for (std::uint64_t seed : {31u, 32u, 33u, 34u}) {
    const Netlist nl = fuzz_dag(seed);

    StreamLogSink streamed;
    const auto enc = ril::cnf::encode_circuit(nl, streamed);

    // Reference: the historical interleaved walk -- allocate each node's
    // variable in topological order, emitting its clauses immediately
    // (encode_node allocates any XOR chain intermediates itself).
    StreamLogSink reference;
    std::vector<Var> node_var(nl.node_count(), ril::sat::kNoVar);
    for (NodeId id : nl.topological_order()) {
      node_var[id] = reference.new_var();
      ril::cnf::encode_node(reference, nl, id, node_var);
    }

    EXPECT_EQ(streamed.next, reference.next) << "variable counts differ";
    for (NodeId id = 0; id < nl.node_count(); ++id) {
      EXPECT_EQ(enc.var_of(id), node_var[id]) << "numbering differs at " << id;
    }
    ASSERT_EQ(streamed.clauses.size(), reference.clauses.size());
    EXPECT_EQ(streamed.clauses, reference.clauses)
        << "clause stream differs for seed " << seed;
  }
}

TEST(StreamingTseitin, CountingWrapperSeesSameStream) {
  const Netlist nl = fuzz_dag(41);
  StreamLogSink direct;
  ril::cnf::encode_circuit(nl, direct);

  StreamLogSink inner;
  CountingSink counting(&inner);
  ril::cnf::encode_circuit(nl, counting);

  EXPECT_EQ(counting.vars(), static_cast<std::size_t>(direct.next));
  EXPECT_EQ(counting.clauses(), direct.clauses.size());
  EXPECT_EQ(inner.clauses, direct.clauses);
}

TEST(StreamingTseitin, BoundInputsKeepHistoricalNumbering) {
  const Netlist nl = fuzz_dag(42);
  StreamLogSink sink;
  std::unordered_map<NodeId, Var> bound;
  for (std::size_t i = 0; i < nl.inputs().size(); i += 2) {
    bound[nl.inputs()[i]] = sink.new_var();
  }
  const auto enc = ril::cnf::encode_circuit(nl, sink, bound);
  for (const auto& [id, var] : bound) EXPECT_EQ(enc.var_of(id), var);
  // Every unbound node still got a distinct fresh variable.
  std::vector<char> used(sink.next, 0);
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const Var v = enc.var_of(id);
    ASSERT_LT(v, sink.next);
    if (!bound.count(id)) {
      EXPECT_FALSE(used[v]) << "variable reused at node " << id;
    }
    used[v] = 1;
  }
}

TEST(StreamingTseitin, RejectsSequentialCircuits) {
  Netlist nl("seq");
  const NodeId a = nl.add_input("a");
  const NodeId q = nl.add_gate(GateType::kDff, {a}, "q");
  nl.mark_output(q);
  StreamLogSink sink;
  EXPECT_THROW(ril::cnf::encode_circuit(nl, sink), std::invalid_argument);
}

// ---- ClauseBatch / bulk sink API -------------------------------------------

TEST(ClauseBatch, OffsetsSliceTheFlatBuffer) {
  ClauseBatch batch;
  batch.add({Lit::make(0), Lit::make(1, true)});
  batch.push(Lit::make(2));
  batch.seal();
  batch.add({Lit::make(3, true)});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.lit_count(), 4u);
  EXPECT_EQ(batch.clause(0).size(), 2u);
  EXPECT_EQ(batch.clause(1).size(), 1u);
  EXPECT_EQ(batch.clause(1)[0], Lit::make(2));
  EXPECT_EQ(batch.clause(2)[0], Lit::make(3, true));
  batch.clear();
  EXPECT_TRUE(batch.empty());
}

TEST(ClauseBatch, DefaultSinkForwardsClauseByClause) {
  ClauseBatch batch;
  batch.add({Lit::make(0), Lit::make(1)});
  batch.add({Lit::make(1, true)});
  StreamLogSink sink;
  sink.ensure_var(1);
  EXPECT_TRUE(sink.add_clauses(batch));
  ASSERT_EQ(sink.clauses.size(), 2u);
  EXPECT_EQ(sink.clauses[0], (std::vector<int>{1, 2}));
  EXPECT_EQ(sink.clauses[1], (std::vector<int>{-2}));
}

TEST(ClauseBatch, BulkNewVarsIsDenseAndConsecutive) {
  CountingSink dry;
  EXPECT_EQ(dry.new_vars(0), ril::sat::kNoVar);
  const Var first = dry.new_vars(5);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(dry.new_var(), 5);
  EXPECT_EQ(dry.new_vars(2), 6);
  EXPECT_EQ(dry.vars(), 8u);

  // Wrapped: numbers come from the inner sink, counts from the wrapper.
  ril::sat::Solver solver;
  CountingSink wrapped(&solver);
  EXPECT_EQ(wrapped.new_vars(3), 0);
  EXPECT_EQ(solver.num_vars(), 3u);
  EXPECT_EQ(wrapped.new_vars(1), 3);
  EXPECT_EQ(wrapped.vars(), 4u);
}

TEST(Portfolio, BatchAddMirrorsEveryMemberIdentically) {
  // Large enough to cross the chunk-parallel threshold (512 clauses).
  const Netlist nl = fuzz_dag(51, 800);
  ril::runtime::SolverPortfolio portfolio(3, /*base_seed=*/9);
  ril::cnf::encode_circuit(nl, portfolio);

  ril::sat::Solver reference;
  ril::cnf::encode_circuit(nl, reference);

  for (unsigned m = 0; m < portfolio.jobs(); ++m) {
    EXPECT_EQ(portfolio.member(m).num_vars(), reference.num_vars());
    EXPECT_EQ(portfolio.member(m).num_clauses(), reference.num_clauses());
  }
  EXPECT_EQ(portfolio.solve().result, ril::sat::Result::kSat);
}

TEST(Portfolio, BatchAndSingleClausePathsAgreeOnUnsat) {
  // x0 xor x1 miter over two copies of the same circuit must be UNSAT
  // whether the encoding arrived in batches (portfolio fan-out) or not.
  const Netlist nl = fuzz_dag(52, 600);
  ril::runtime::SolverPortfolio portfolio(2, /*base_seed=*/3);
  const auto a = ril::cnf::encode_circuit(nl, portfolio);
  std::unordered_map<NodeId, Var> bound;
  for (NodeId in : nl.inputs()) bound[in] = a.var_of(in);
  const auto b = ril::cnf::encode_circuit(nl, portfolio, bound);
  std::vector<Var> outs_a, outs_b;
  for (NodeId out : nl.outputs()) {
    outs_a.push_back(a.var_of(out));
    outs_b.push_back(b.var_of(out));
  }
  const auto diff = ril::cnf::encode_miter(portfolio, outs_a, outs_b);
  ASSERT_FALSE(diff.empty());
  EXPECT_EQ(portfolio.solve().result, ril::sat::Result::kUnsat);
}

// ---- structural hashing ----------------------------------------------------

TEST(Strash, DedupesUnnamedButNeverNamedNodes) {
  Netlist nl("strash");
  nl.set_structural_hashing(true);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g1 = nl.add_gate(GateType::kAnd, {a, b});
  const NodeId g2 = nl.add_gate(GateType::kAnd, {a, b});
  EXPECT_EQ(g1, g2);
  // Commutative canonicalization: swapped fanins still hit.
  EXPECT_EQ(nl.add_gate(GateType::kAnd, {b, a}), g1);
  EXPECT_EQ(nl.strash_hits(), 2u);
  // A named duplicate is a distinct node and never merges.
  const NodeId named = nl.add_gate(GateType::kAnd, {a, b}, "g_named");
  EXPECT_NE(named, g1);
  // Nor does the named node answer later unnamed adds.
  EXPECT_EQ(nl.add_gate(GateType::kAnd, {a, b}), g1);
  // Non-commutative ops keep fanin order significant.
  const NodeId m1 = nl.add_mux(a, b, g1);
  const NodeId m2 = nl.add_mux(a, g1, b);
  EXPECT_NE(m1, m2);
  EXPECT_EQ(nl.add_mux(a, b, g1), m1);
}

TEST(Strash, LutMaskDistinguishesAndConstsDedupe) {
  Netlist nl("strash_lut");
  nl.set_structural_hashing(true);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId l1 = nl.add_lut({a, b}, 0x6);
  EXPECT_EQ(nl.add_lut({a, b}, 0x6), l1);
  EXPECT_NE(nl.add_lut({a, b}, 0x8), l1);
  const NodeId c0 = nl.add_const(false);
  EXPECT_EQ(nl.add_const(false), c0);
  EXPECT_NE(nl.add_const(true), c0);
}

TEST(Strash, MutationInvalidatesAndRebuildLands) {
  Netlist nl("strash_dirty");
  nl.set_structural_hashing(true);
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId g = nl.add_gate(GateType::kAnd, {a, b});
  nl.set_fanin(g, 1, c);  // g is now and(a, c); the table is stale.
  // A fresh and(a, c) must dedupe onto the *mutated* node, and and(a, b)
  // must now create a new node instead of resurrecting the old shape.
  EXPECT_EQ(nl.add_gate(GateType::kAnd, {a, c}), g);
  EXPECT_NE(nl.add_gate(GateType::kAnd, {a, b}), g);
}

TEST(Strash, DisabledByDefaultOnBareNetlist) {
  Netlist nl("plain");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  EXPECT_FALSE(nl.structural_hashing());
  EXPECT_NE(nl.add_gate(GateType::kAnd, {a, b}),
            nl.add_gate(GateType::kAnd, {a, b}));
}

// ---- auto-name / fresh_name collision regression ---------------------------

TEST(Names, LazyAutoNamesSkipExplicitlyTakenNames) {
  Netlist nl("names");
  const NodeId a = nl.add_input("a");
  // Squat on the names the lazy materializer would otherwise hand out.
  const NodeId squat0 = nl.add_gate(GateType::kBuf, {a}, "__n_0");
  const NodeId squat1 = nl.add_gate(GateType::kNot, {a}, "__n_1");
  const NodeId g = nl.add_gate(GateType::kNot, {squat0});
  const std::string& materialized = nl.name_of(g);
  EXPECT_NE(materialized, "__n_0");
  EXPECT_NE(materialized, "__n_1");
  EXPECT_EQ(nl.find(materialized), g);
  EXPECT_EQ(nl.find("__n_0"), squat0);
  EXPECT_EQ(nl.find("__n_1"), squat1);
  EXPECT_TRUE(nl.validate().empty());
}

TEST(Names, AutoNamedNodesRoundTripThroughBench) {
  Netlist nl("auto_rt");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  NodeId g = nl.add_gate(GateType::kAnd, {a, b});
  for (int i = 0; i < 4; ++i) g = nl.add_gate(GateType::kNot, {g});
  nl.mark_output(g);
  const Netlist reread =
      ril::netlist::read_bench_string(ril::netlist::write_bench_string(nl));
  EXPECT_EQ(reread.node_count(), nl.node_count());
  EXPECT_EQ(reread.outputs().size(), 1u);
}

// ---- CSR mutation edge cases ----------------------------------------------

TEST(CsrMutation, SetFaninsGrowthRelocatesSlice) {
  Netlist nl("grow");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId d = nl.add_input("d");
  const NodeId g = nl.add_gate(GateType::kAnd, {a, b}, "g");
  const NodeId h = nl.add_gate(GateType::kOr, {g, c}, "h");
  nl.mark_output(h);
  const std::size_t pool_before = nl.fanin_pool_size();
  const std::vector<NodeId> grown = {a, b, c, d};
  nl.set_fanins(g, grown);
  EXPECT_GT(nl.fanin_pool_size(), pool_before);  // slice moved to the end
  ASSERT_EQ(nl.fanin_count(g), 4u);
  for (std::size_t i = 0; i < grown.size(); ++i) {
    EXPECT_EQ(nl.fanin(g, i), grown[i]);
  }
  // h still reads the same g through its (unmoved) slice.
  EXPECT_EQ(nl.fanin(h, 0), g);
  EXPECT_TRUE(nl.validate().empty());

  // Shrinking reuses the slice in place.
  const std::size_t pool_grown = nl.fanin_pool_size();
  const std::vector<NodeId> shrunk = {c, d};
  nl.set_fanins(g, shrunk);
  EXPECT_EQ(nl.fanin_pool_size(), pool_grown);
  EXPECT_EQ(nl.fanin_count(g), 2u);
}

TEST(CsrMutation, ReplaceUsesRewiresGatesAndOutputs) {
  Netlist nl("rewire");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId old_sig = nl.add_gate(GateType::kAnd, {a, b}, "old");
  const NodeId new_sig = nl.add_gate(GateType::kOr, {a, b}, "new");
  const NodeId u1 = nl.add_gate(GateType::kNot, {old_sig}, "u1");
  const NodeId u2 = nl.add_gate(GateType::kXor, {old_sig, a}, "u2");
  nl.mark_output(old_sig);
  nl.mark_output(u1);
  nl.replace_uses(old_sig, new_sig);
  EXPECT_EQ(nl.fanin(u1, 0), new_sig);
  EXPECT_EQ(nl.fanin(u2, 0), new_sig);
  EXPECT_EQ(nl.outputs()[0], new_sig);
  // u2's second slot was never old_sig and must be untouched.
  EXPECT_EQ(nl.fanin(u2, 1), a);
  EXPECT_TRUE(nl.validate().empty());
}

TEST(CsrMutation, SweepDeadCompactsPoolAndRemapsIds) {
  Netlist nl("sweep");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId live = nl.add_gate(GateType::kAnd, {a, b}, "live");
  const NodeId dead1 = nl.add_gate(GateType::kOr, {a, b}, "dead1");
  nl.add_gate(GateType::kXor, {dead1, live}, "dead2");
  const NodeId out = nl.add_gate(GateType::kNot, {live}, "out");
  nl.mark_output(out);
  // Orphan a pool slice first: grow then shrink a live node's fanins.
  nl.set_fanins(live, std::vector<NodeId>{a, b, a});
  nl.set_fanins(live, std::vector<NodeId>{a, b});
  const std::size_t pool_before = nl.sweep_dead().size();  // mapping size
  EXPECT_EQ(pool_before, 6u);  // old node count
  EXPECT_EQ(nl.node_count(), 4u);  // a, b, live, out
  EXPECT_EQ(nl.fanin_pool_size(), 3u);  // and(a,b) + not(live), compacted
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.name_of(nl.outputs()[0]), "out");
  EXPECT_TRUE(nl.validate().empty());
  EXPECT_TRUE(nl.find("dead1") == std::nullopt);
}

TEST(CsrMutation, SweepDeadMappingIsConsistent) {
  Netlist nl = fuzz_dag(61);
  // Kill a third of the outputs so there is real garbage.
  auto outs = nl.outputs();
  outs.resize(outs.size() - outs.size() / 3);
  nl.set_outputs(outs);
  const Netlist before = nl;
  const auto mapping = nl.sweep_dead();
  ASSERT_EQ(mapping.size(), before.node_count());
  for (NodeId id = 0; id < before.node_count(); ++id) {
    if (mapping[id] == ril::netlist::kNoNode) continue;
    EXPECT_EQ(nl.type(mapping[id]), before.type(id));
    ASSERT_EQ(nl.fanin_count(mapping[id]), before.fanin_count(id));
    for (std::size_t i = 0; i < before.fanin_count(id); ++i) {
      EXPECT_EQ(nl.fanin(mapping[id], i), mapping[before.fanin(id, i)]);
    }
  }
  EXPECT_TRUE(nl.validate().empty());
}

// ---- million-gate host generators ------------------------------------------

TEST(AesDeep, TwoRoundsMatchChainedSoftwareReference) {
  const Netlist nl = ril::benchgen::make_aes_deep(2);
  EXPECT_TRUE(nl.validate().empty());
  ASSERT_EQ(nl.outputs().size(), 128u);

  std::mt19937_64 rng(7);
  std::array<std::uint8_t, 16> state{}, rk0{}, rk1{};
  for (auto& v : state) v = static_cast<std::uint8_t>(rng());
  for (auto& v : rk0) v = static_cast<std::uint8_t>(rng());
  for (auto& v : rk1) v = static_cast<std::uint8_t>(rng());

  ril::netlist::Simulator sim(nl);
  for (int j = 0; j < 16; ++j) {
    for (int bit = 0; bit < 8; ++bit) {
      const auto st =
          nl.find("st" + std::to_string(j) + "_" + std::to_string(bit));
      ASSERT_TRUE(st.has_value());
      sim.set_input_all(*st, (state[j] >> bit) & 1);
      const auto k0 = nl.find("rk0_" + std::to_string(j) + "_" +
                              std::to_string(bit));
      ASSERT_TRUE(k0.has_value());
      sim.set_input_all(*k0, (rk0[j] >> bit) & 1);
      const auto k1 = nl.find("rk1_" + std::to_string(j) + "_" +
                              std::to_string(bit));
      ASSERT_TRUE(k1.has_value());
      sim.set_input_all(*k1, (rk1[j] >> bit) & 1);
    }
  }
  sim.evaluate();

  const auto expected = ril::benchgen::aes_round_reference(
      ril::benchgen::aes_round_reference(state, rk0), rk1);
  for (int j = 0; j < 16; ++j) {
    for (int bit = 0; bit < 8; ++bit) {
      const auto out =
          nl.find("out" + std::to_string(j) + "_" + std::to_string(bit));
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(sim.value(*out) & 1, (expected[j] >> bit) & 1u)
          << "byte " << j << " bit " << bit;
    }
  }
}

TEST(AesDeep, StrashKeepsPerRoundCostFlat) {
  const std::size_t g2 = ril::benchgen::make_aes_deep(2).gate_count();
  const std::size_t g4 = ril::benchgen::make_aes_deep(4).gate_count();
  // Chained rounds add a constant per-round increment (shared S-box
  // subtrees dedupe within a round, rounds stay independent).
  const std::size_t per_round = (g4 - g2) / 2;
  EXPECT_GT(per_round, 3000u);
  EXPECT_LT(per_round, 15000u);
  EXPECT_THROW(ril::benchgen::make_aes_deep(0), std::invalid_argument);
  EXPECT_THROW(ril::benchgen::make_aes_deep(513), std::invalid_argument);
}

TEST(LutFabric, ValidDeterministicAndFullyConnected) {
  LutFabricParams params;
  params.width = 48;
  params.depth = 6;
  params.inputs = 32;
  params.outputs = 16;
  params.seed = 99;
  const Netlist nl = ril::benchgen::make_lut_fabric(params);
  EXPECT_TRUE(nl.validate().empty());
  EXPECT_EQ(nl.inputs().size(), 32u);
  EXPECT_EQ(nl.outputs().size(), 16u);
  // Every cell is a LUT; layer 0 consumes every primary input.
  const auto fanouts = nl.fanouts();
  for (NodeId in : nl.inputs()) {
    EXPECT_FALSE(fanouts[in].empty()) << "dangling primary input " << in;
  }
  std::size_t luts = 0;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (nl.type(id) == GateType::kLut) ++luts;
  }
  EXPECT_GT(luts, 0u);
  EXPECT_LE(luts, params.width * params.depth);

  // Same seed, same fabric -- bit for bit.
  const Netlist again = ril::benchgen::make_lut_fabric(params);
  EXPECT_EQ(ril::netlist::write_bench_string(nl),
            ril::netlist::write_bench_string(again));
  // Different seed, different wiring.
  params.seed = 100;
  EXPECT_NE(ril::netlist::write_bench_string(
                ril::benchgen::make_lut_fabric(params)),
            ril::netlist::write_bench_string(nl));
}

TEST(LutFabric, RejectsDegenerateParameters) {
  LutFabricParams params;
  params.width = 8;
  params.depth = 2;
  params.inputs = 8;
  params.outputs = 4;
  params.k = 1;
  EXPECT_THROW(ril::benchgen::make_lut_fabric(params), std::invalid_argument);
  params.k = 4;
  params.outputs = 9;  // > width
  EXPECT_THROW(ril::benchgen::make_lut_fabric(params), std::invalid_argument);
  params.outputs = 4;
  params.inputs = 64;  // > width * k
  EXPECT_THROW(ril::benchgen::make_lut_fabric(params), std::invalid_argument);
}

// ---- .bench reader regressions ---------------------------------------------

TEST(BenchReader, ErrorsCarryLineNumbers) {
  const std::string text = "INPUT(a)\nINPUT(b)\ny = FROB(a, b)\n";
  try {
    ril::netlist::read_bench_string(text);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(BenchReader, LargeGeneratedFileRoundTrips) {
  // ~40k-gate fabric: enough to catch accidental quadratic behavior in
  // the reader without slowing the suite (the full-scale path is priced
  // by bench_netlist).
  LutFabricParams params;
  params.width = 256;
  params.depth = 160;
  params.inputs = 64;
  params.outputs = 64;
  params.seed = 5;
  const Netlist nl = ril::benchgen::make_lut_fabric(params);
  const std::string text = ril::netlist::write_bench_string(nl);
  const Netlist reread = ril::netlist::read_bench_string(text, nl.name());
  EXPECT_EQ(reread.node_count(), nl.node_count());
  EXPECT_EQ(reread.inputs().size(), nl.inputs().size());
  EXPECT_EQ(reread.outputs().size(), nl.outputs().size());
  EXPECT_TRUE(reread.validate().empty());
  // Functional equality on a random pattern word (node ids are reassigned
  // by the reader, so compare by name, not byte-for-byte text).
  ril::netlist::Simulator sim_a(nl);
  ril::netlist::Simulator sim_b(reread);
  std::mt19937_64 rng(17);
  for (NodeId in : nl.inputs()) {
    const std::uint64_t word = rng();
    sim_a.set_input(in, word);
    const auto mirror = reread.find(nl.name_of(in));
    ASSERT_TRUE(mirror.has_value());
    sim_b.set_input(*mirror, word);
  }
  sim_a.evaluate();
  sim_b.evaluate();
  for (NodeId out : nl.outputs()) {
    const auto mirror = reread.find(nl.name_of(out));
    ASSERT_TRUE(mirror.has_value());
    EXPECT_EQ(sim_a.value(out), sim_b.value(*mirror)) << nl.name_of(out);
  }
}

}  // namespace
