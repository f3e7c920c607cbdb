// The benchmark's workloads. Each builds its inputs from the workload seed
// in setup() and exposes one op that the closed loop runs back to back.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  /// Closed-loop callers driving op() concurrently.
  virtual unsigned clients() const { return 1; }
  /// Builds the instance set (and, for the service, starts the daemon).
  /// Called several times; each call replaces the previous state.
  virtual void setup(Trace& trace) = 0;
  /// One op: does the work, verifies its output, reports exact work.
  virtual OpResult op(const OpContext& ctx, Trace& trace) = 0;
  /// Per-layer metrics of the timed loop, from the op trace. Values not
  /// set here are reported as 0 (the layer did no work in this workload).
  virtual void layers(const Trace& trace, const LoopResult& loop,
                      std::map<std::string, double>& out) const = 0;
  /// Exact work totals of the timed loop, one "name=value" list.
  virtual std::string work_totals() const = 0;
  /// Releases what setup() built (stops the daemon).
  virtual void teardown() {}
};

/// Throws std::invalid_argument for an unknown name. `tmp_dir` is the
/// run's private scratch directory.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& tmp_dir);

}  // namespace perfbench
