#include "sca/circuit_dpa.hpp"

#include <limits>
#include <random>
#include <stdexcept>

#include "device/mram_lut.hpp"
#include "device/params.hpp"
#include "device/sram_lut.hpp"
#include "netlist/simulator.hpp"

namespace ril::sca {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

std::vector<KeyedLutInstance> find_keyed_luts(const Netlist& locked) {
  // Key-taint: nodes whose value depends on some key input.
  std::vector<bool> taint(locked.node_count(), false);
  for (NodeId id : locked.key_inputs()) taint[id] = true;
  for (NodeId id : locked.topological_order()) {
    if (taint[id]) continue;
    for (NodeId f : locked.node(id).fanins) {
      if (taint[f]) {
        taint[id] = true;
        break;
      }
    }
  }

  auto is_key = [&](NodeId id) { return locked.is_key_input(id); };
  std::vector<KeyedLutInstance> luts;
  for (NodeId id = 0; id < locked.node_count(); ++id) {
    const auto& out = locked.node(id);
    if (out.type != GateType::kMux) continue;
    const NodeId low_id = out.fanins[1];
    const NodeId high_id = out.fanins[2];
    const auto& low = locked.node(low_id);
    const auto& high = locked.node(high_id);
    if (low.type != GateType::kMux || high.type != GateType::kMux) continue;
    if (low.fanins[0] != high.fanins[0]) continue;  // must share select A
    if (!is_key(low.fanins[1]) || !is_key(low.fanins[2]) ||
        !is_key(high.fanins[1]) || !is_key(high.fanins[2])) {
      continue;
    }
    KeyedLutInstance lut;
    lut.input_a = low.fanins[0];
    lut.input_b = out.fanins[0];
    lut.key_inputs = {low.fanins[1], low.fanins[2], high.fanins[1],
                      high.fanins[2]};
    lut.output = id;
    lut.attackable = !taint[lut.input_a] && !taint[lut.input_b];
    luts.push_back(lut);
  }
  return luts;
}

CircuitTraceSet generate_circuit_traces(
    const Netlist& locked, const std::vector<bool>& key,
    const std::vector<KeyedLutInstance>& luts,
    const CircuitTraceOptions& options) {
  if (key.size() != locked.key_inputs().size()) {
    throw std::invalid_argument("generate_circuit_traces: key mismatch");
  }
  std::mt19937_64 rng(options.seed);
  device::ZeroMeanNormal noise(options.noise_sigma);

  // True config of each LUT (mask order) from the programmed key.
  std::vector<int> key_position(locked.node_count(), -1);
  for (std::size_t i = 0; i < locked.key_inputs().size(); ++i) {
    key_position[locked.key_inputs()[i]] = static_cast<int>(i);
  }
  std::vector<std::uint8_t> masks;
  for (const KeyedLutInstance& lut : luts) {
    std::uint8_t mask = 0;
    for (std::size_t bit = 0; bit < 4; ++bit) {
      const int pos = key_position[lut.key_inputs[bit]];
      if (pos < 0) throw std::invalid_argument("bad LUT key input");
      if (key[static_cast<std::size_t>(pos)]) {
        mask |= static_cast<std::uint8_t>(1u << bit);
      }
    }
    masks.push_back(mask);
  }

  // One physical cell per LUT, with its own PV sample.
  std::vector<device::MramLut2> mram_cells;
  std::vector<device::SramLut2> sram_cells;
  for (std::size_t i = 0; i < luts.size(); ++i) {
    if (options.technology == LutTechnology::kMram) {
      mram_cells.emplace_back(options.mtj, options.cmos, options.variation,
                              rng);
      mram_cells.back().configure(masks[i]);
    } else {
      sram_cells.emplace_back(options.cmos, options.variation, rng);
      sram_cells.back().configure(masks[i]);
    }
  }

  netlist::Simulator sim(locked);
  for (std::size_t i = 0; i < key.size(); ++i) {
    sim.set_input_all(locked.key_inputs()[i], key[i]);
  }
  const auto data_inputs = locked.data_inputs();

  CircuitTraceSet set;
  set.technology = options.technology;
  set.plaintexts.reserve(options.traces);
  set.power.reserve(options.traces);
  for (std::size_t t = 0; t < options.traces; ++t) {
    std::vector<bool> x(data_inputs.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = rng() & 1;
      sim.set_input_all(data_inputs[i], x[i]);
    }
    sim.evaluate();
    double energy = noise(rng);
    for (std::size_t i = 0; i < luts.size(); ++i) {
      const bool a = sim.value(luts[i].input_a) & 1;
      const bool b = sim.value(luts[i].input_b) & 1;
      if (options.technology == LutTechnology::kMram) {
        energy += mram_cells[i].read_output(a, b, false).energy;
      } else {
        energy += sram_cells[i].read_output(a, b).energy;
      }
    }
    set.plaintexts.push_back(std::move(x));
    set.power.push_back(energy);
  }
  return set;
}

CircuitDpaResult run_circuit_dpa(const Netlist& locked,
                                 const std::vector<KeyedLutInstance>& luts,
                                 const CircuitTraceSet& traces,
                                 const std::vector<bool>& key) {
  CircuitDpaResult result;
  // Attacker-side simulator: key inputs held at 0 (the attackable LUT
  // inputs are key-independent by construction).
  netlist::Simulator sim(locked);
  for (NodeId k : locked.key_inputs()) sim.set_input_all(k, false);
  const auto data_inputs = locked.data_inputs();

  std::vector<int> key_position(locked.node_count(), -1);
  for (std::size_t i = 0; i < locked.key_inputs().size(); ++i) {
    key_position[locked.key_inputs()[i]] = static_cast<int>(i);
  }

  // Per-trace (a, b) for each attackable LUT.
  std::vector<const KeyedLutInstance*> targets;
  for (const KeyedLutInstance& lut : luts) {
    if (lut.attackable) targets.push_back(&lut);
  }
  result.attackable_luts = targets.size();
  std::vector<std::vector<std::uint8_t>> ab(
      targets.size(), std::vector<std::uint8_t>(traces.power.size()));
  for (std::size_t t = 0; t < traces.power.size(); ++t) {
    for (std::size_t i = 0; i < data_inputs.size(); ++i) {
      sim.set_input_all(data_inputs[i], traces.plaintexts[t][i]);
    }
    sim.evaluate();
    for (std::size_t l = 0; l < targets.size(); ++l) {
      const std::uint8_t a = sim.value(targets[l]->input_a) & 1;
      const std::uint8_t b = sim.value(targets[l]->input_b) & 1;
      ab[l][t] = static_cast<std::uint8_t>(a | (b << 1));
    }
  }

  for (std::size_t l = 0; l < targets.size(); ++l) {
    double best_score = -std::numeric_limits<double>::infinity();
    std::uint8_t best_mask = 0;
    for (unsigned mask = 0; mask < 16; ++mask) {
      double sum0 = 0;
      double sum1 = 0;
      std::size_t n0 = 0;
      std::size_t n1 = 0;
      for (std::size_t t = 0; t < traces.power.size(); ++t) {
        if ((mask >> ab[l][t]) & 1) {
          sum1 += traces.power[t];
          ++n1;
        } else {
          sum0 += traces.power[t];
          ++n0;
        }
      }
      if (n0 == 0 || n1 == 0) continue;
      const double score = sum0 / n0 - sum1 / n1;  // read-0 costs more
      if (score > best_score) {
        best_score = score;
        best_mask = static_cast<std::uint8_t>(mask);
      }
    }
    result.guesses.push_back(best_mask);
    std::uint8_t truth = 0;
    for (std::size_t bit = 0; bit < 4; ++bit) {
      const int pos = key_position[targets[l]->key_inputs[bit]];
      if (pos >= 0 && key[static_cast<std::size_t>(pos)]) {
        truth |= static_cast<std::uint8_t>(1u << bit);
      }
    }
    result.truths.push_back(truth);
    if (best_mask == truth) ++result.recovered_masks;
  }
  return result;
}

}  // namespace ril::sca
