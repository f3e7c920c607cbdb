// Cross-request caches for the `ril serve` daemon.
//
// The daemon's whole point is that requests repeat: the same locked host is
// attacked under many keys, the same netlist text arrives over and over.
// Two levels of state survive across requests, both keyed by *content
// hash* so a changed input can never alias a stale entry:
//
//  1. NetlistCache — parsed netlist::Netlist objects, shared read-only
//     (names are materialized eagerly at insert, because lazy auto-naming
//     is the one non-const-thread-safe part of Netlist);
//  2. SkeletonCache — captured free-key miter encodings
//     (attacks::engine::MiterSkeleton): replaying one skips the Tseitin
//     walk entirely and is bit-identical to a cold encode.
//
// Key verification keeps no state: every verify runs the structural CEC
// (cnf::check_equivalence) from scratch.
//
// Every cache counts hits and misses; the service surfaces the counters in
// each response so a client (and the CI smoke test) can see the cache work.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "attacks/engine/miter_context.hpp"
#include "netlist/netlist.hpp"

namespace ril::service {

/// FNV-1a 64-bit over the raw bytes as a fixed-width lowercase hex string:
/// the cache key for both levels, and what the API exposes.
std::string content_hash_hex(const std::string& text);

/// Level 1: content hash -> parsed, name-materialized, shared netlist.
class NetlistCache {
 public:
  /// Parses `text` (Verilog when `verilog`, bench otherwise) or returns the
  /// cached object for identical content *in the same format*. `hex_out`
  /// (optional) receives the format-qualified cache key ("v:<hash>" /
  /// "b:<hash>") — the format is part of the identity, since the same
  /// bytes parse to different netlists under the two readers. `hit_out`
  /// (optional) receives whether this was a hit. Thread-safe; the returned
  /// netlist is immutable and safe to share.
  std::shared_ptr<const netlist::Netlist> get(const std::string& text,
                                              bool verilog,
                                              std::string* hex_out = nullptr,
                                              bool* hit_out = nullptr);

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const netlist::Netlist>>
      map_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

/// Level 2: locked-netlist content hash -> captured miter skeleton. The
/// skeleton is a pure function of the locked netlist's content, so the
/// netlist hash is a sound key. find() counts a hit, a failed find counts
/// a miss (the caller is then expected to capture and put()).
class SkeletonCache {
 public:
  std::shared_ptr<const attacks::engine::MiterSkeleton> find(
      const std::string& hex);
  void put(const std::string& hex,
           std::shared_ptr<const attacks::engine::MiterSkeleton> skeleton);

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::size_t size() const;
  /// Total approximate heap bytes held by the cached skeletons.
  std::size_t memory_bytes() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string,
                     std::shared_ptr<const attacks::engine::MiterSkeleton>>
      map_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace ril::service
