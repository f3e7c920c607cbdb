// Measurement harness of the repository benchmark: per-layer span
// accumulation, the closed-loop op runner with its hang guard, latency
// statistics, process CPU / peak-RSS probes, and the independent
// simulation check that every recovered key goes through.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// SplitMix64 step: every seed the benchmark derives goes through this.
std::uint64_t mix(std::uint64_t x);
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt,
                          std::uint64_t index);

/// Named per-layer sums, filled only in a traced run. Thread-safe.
class Trace {
 public:
  explicit Trace(bool on) : on_(on) {}
  bool on() const { return on_; }
  void add(const std::string& name, double value);
  double get(const std::string& name) const;
  std::vector<double> samples(const std::string& name) const;
  /// Appends to a per-name sample list (for per-layer medians).
  void sample(const std::string& name, double value);

 private:
  const bool on_;
  mutable std::mutex mutex_;
  std::map<std::string, double> sums_;
  std::map<std::string, std::vector<double>> samples_;
};

/// RAII span: adds its wall time to `name` when the trace is on, and reads
/// no clock otherwise.
class Span {
 public:
  Span(Trace& trace, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace& trace_;
  const char* name_;
  Clock::time_point t0_;
};

/// Outcome of one op. `work` holds the op's exact work counts (its line of
/// the work fingerprint); `error` says why a failed op failed.
struct OpResult {
  bool ok = false;
  /// Latency to record instead of the op's wall time when >= 0 (the
  /// service op times only its request, not the client's own checks).
  double latency = -1;
  std::string work;
  std::string error;
};

/// What an op sees of the loop: who runs it, its index in the client's
/// sequence, and the cancellation flag the hang guard raises.
struct OpContext {
  unsigned client = 0;
  std::size_t index = 0;
  const std::atomic<bool>* cancel = nullptr;
  double guard_seconds = 0;
};

struct LoopResult {
  std::vector<double> latencies;  ///< every attempted op, seconds
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double wall_seconds = 0;
  double cpu_seconds = 0;
  /// "c<client>#<index>" -> work line, for the fingerprint file.
  std::vector<std::pair<std::string, std::string>> work;
  std::vector<std::string> errors;
};

/// Closed loop: `clients` threads each run ops back to back until
/// `seconds` of wall clock have passed (every client starts at least one
/// op). An op still running after `guard_seconds` gets its cancel flag
/// raised; an op that throws counts as failed.
LoopResult run_closed_loop(unsigned clients, double seconds,
                           double guard_seconds,
                           const std::function<OpResult(const OpContext&)>& op);

/// Sorted-sample quantile helpers.
double median(std::vector<double> values);
struct Tail {
  double value = 0;
  double percentile = 0;  ///< e.g. 90.0
  std::size_t beyond = 0;  ///< samples above `value`'s rank
};
/// Latency at the highest percentile with at least ten samples beyond it;
/// with ten or fewer samples, the maximum.
Tail tail(std::vector<double> values);

double process_cpu_seconds();
/// Resets the kernel's peak-RSS mark (VmHWM) when the platform allows it.
bool reset_peak_rss();
/// VmHWM in MB (or ru_maxrss when /proc is unavailable).
double peak_rss_mb();

/// Independent key check: simulates `locked` under `key` and `host` on
/// `words` x 64 seeded random input vectors and compares every output.
bool simulation_matches(const ril::netlist::Netlist& host,
                        const ril::netlist::Netlist& locked,
                        const std::vector<bool>& key, std::uint64_t seed,
                        unsigned words = 4);

std::string key_bits(const std::vector<bool>& key);

}  // namespace perfbench
