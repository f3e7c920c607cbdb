// Logic-locking schemes: the paper's baselines (Table V) plus a convenience
// wrapper around RIL-Block insertion.
//
// Every scheme copies the host netlist, adds key inputs named
// "keyinput<i>", and returns a LockedCircuit whose `key` unlocks the
// original function.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/ril_block.hpp"
#include "locking/locked.hpp"

namespace ril::locking {

/// Random XOR/XNOR key-gate insertion (RLL / EPIC-style).
LockedCircuit lock_xor(const netlist::Netlist& host, std::size_t key_bits,
                       std::uint64_t seed);

/// SARLock: one-point comparator flip, key width <= #data inputs.
/// flip(x, k) = (x[0..w) == k) AND (k != secret); output 0 is XORed with
/// flip; correct key = secret.
LockedCircuit lock_sarlock(const netlist::Netlist& host,
                           std::size_t key_width, std::uint64_t seed);

/// Anti-SAT: Y = g(x ^ ka) AND NOT g(x ^ kb) with g = AND-tree; correct key
/// has ka == kb. Key width = 2 * n.
LockedCircuit lock_antisat(const netlist::Netlist& host, std::size_t n,
                           std::uint64_t seed);

/// SFLL-HD0 (TTLock): functionality stripped on one protected cube, restored
/// by a key comparator; correct key = the stripped cube.
LockedCircuit lock_sfll_hd0(const netlist::Netlist& host,
                            std::size_t cube_width, std::uint64_t seed);

/// LUT-based obfuscation [Kolhe et al., ICCAD'19-style]: random 2-input
/// gates replaced by key-programmable LUTs (4 key bits each).
LockedCircuit lock_lut(const netlist::Netlist& host, std::size_t num_luts,
                       std::uint64_t seed);

/// FullLock-style routing obfuscation: `network_size` wires routed through a
/// banyan of 4-MUX+inversion switch boxes (3 key bits per switch).
LockedCircuit lock_fulllock(const netlist::Netlist& host,
                            std::size_t network_size, std::uint64_t seed);

/// Pure routing obfuscation with the paper's 2-MUX switch boxes (no logic
/// layer): `network_size` wires scrambled through one banyan network. Used
/// by the one-hot re-encoding ablation -- routing alone falls to the
/// one-layer attack formulation, which is why RIL-Blocks interleave LUTs.
LockedCircuit lock_banyan_routing(const netlist::Netlist& host,
                                  std::size_t network_size,
                                  std::uint64_t seed);

/// RIL-Block locking (the paper's scheme).
struct RilLocked {
  LockedCircuit locked;
  core::RilLockResult info;
};
RilLocked lock_ril(const netlist::Netlist& host, std::size_t num_blocks,
                   const core::RilBlockConfig& config, std::uint64_t seed);

/// Knobs for lock_by_name. Each field is read only by the schemes named
/// beside it; the CLI, the campaign runner and the service each pick their
/// own defaults.
struct LockParams {
  std::size_t bits = 32;  ///< key width: xor, sarlock, antisat, sfll, lut
  std::size_t size = 8;   ///< network size: fulllock, routing; block size: ril
  std::size_t blocks = 1;            ///< ril
  std::size_t lut_inputs = 2;        ///< ril
  bool output_network = false;       ///< ril
  bool scan_obfuscation = false;     ///< ril
  std::uint64_t seed = 1;
};

/// Locks `host` with the scheme named `scheme`: "ril", "xor", "sarlock",
/// "antisat", "sfll", "lut", "fulllock" or "routing". `locked.key` is the
/// functional key; `info` is filled only for "ril". Returns nullopt for any
/// other name, so each caller reports an unknown scheme its own way.
std::optional<RilLocked> lock_by_name(const std::string& scheme,
                                      const netlist::Netlist& host,
                                      const LockParams& params);

}  // namespace ril::locking
