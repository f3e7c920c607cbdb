#include "service/caches.hpp"

#include "attacks/engine/miter_context.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/verilog_io.hpp"

namespace ril::service {

using attacks::engine::MiterSkeleton;
using netlist::Netlist;
using netlist::NodeId;

std::string content_hash_hex(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime
  }
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[h & 0xf];
    h >>= 4;
  }
  return out;
}

std::shared_ptr<const Netlist> NetlistCache::get(const std::string& text,
                                                 bool verilog,
                                                 std::string* hex_out,
                                                 bool* hit_out) {
  // The parse format is part of the identity: identical bytes read as
  // bench vs Verilog yield different netlists, so the key (and the hash
  // the API exposes, which keys the skeleton cache too) carries a format
  // prefix.
  const std::string hex =
      (verilog ? "v:" : "b:") + content_hash_hex(text);
  if (hex_out) *hex_out = hex;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(hex);
    if (it != map_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (hit_out) *hit_out = true;
      return it->second;
    }
  }
  // Parse outside the lock -- a slow parse must not serialize unrelated
  // requests. A racing duplicate parse is resolved at insert (first wins).
  auto parsed = std::make_shared<Netlist>(
      verilog ? netlist::read_verilog_string(text)
              : netlist::read_bench_string(text));
  // Materialize every lazy auto-name now: name_of() mutates the shared
  // name table, which is the one operation on a const Netlist that is not
  // thread-safe. After this walk the object is genuinely immutable.
  for (std::size_t id = 0; id < parsed->node_count(); ++id) {
    parsed->name_of(static_cast<NodeId>(id));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = map_.emplace(hex, std::move(parsed));
  if (!inserted) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (hit_out) *hit_out = true;
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (hit_out) *hit_out = false;
  }
  return it->second;
}

std::size_t NetlistCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

std::shared_ptr<const MiterSkeleton> SkeletonCache::find(
    const std::string& hex) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(hex);
  if (it == map_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void SkeletonCache::put(const std::string& hex,
                        std::shared_ptr<const MiterSkeleton> skeleton) {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.emplace(hex, std::move(skeleton));  // first capture wins
}

std::size_t SkeletonCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

std::size_t SkeletonCache::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t bytes = 0;
  for (const auto& [hex, skeleton] : map_) bytes += skeleton->memory_bytes();
  return bytes;
}

}  // namespace ril::service
