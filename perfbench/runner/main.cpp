// Repository benchmark runner: sets up one workload several times, runs its
// closed loop for a fixed wall-clock window, verifies every op, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// traced run) followed by one JSON result line.
//
//   ril_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --tmp <dir> --work-out <file>
//
// --work-out receives one line per op with its exact work counts (the
// work fingerprint); perfbench/run.py compares it across runs.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "runtime/campaign.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Set-up is repeated for a window before and another after the timed
/// loop, at least kMinSetupReps times each; setup_s is the median of all
/// of them. Host speed drifts over seconds, so the two windows let setup_s
/// span the run as the op metrics do.
constexpr double kSetupWindowSeconds = 1.0;
constexpr int kMinSetupReps = 3;
/// An op still running after this long is cancelled and counts as failed.
constexpr double kGuardSeconds = 60;

struct Metric {
  const char* name;
  const char* unit;
};

// Setup layers are reported per setup; all other layers per op.
const std::vector<Metric> kSetupLayers = {
    {"benchgen.host_s", "s"},
    {"locking.lock_s", "s"},
    {"netlist.write_s", "s"}};

const std::vector<Metric> kOpLayers = {
    {"netlist.parse_s", "s"},
    {"netlist.parse_mb_per_s", "MB/s"},
    {"cnf.cec_s", "s"},
    {"cnf.cec_calls", "count"},
    {"sat.miter_solve_s", "s"},
    {"sat.miter_solves", "count"},
    {"sat.first_solve_s", "s"},
    {"sat.key_solve_s", "s"},
    {"sat.conflicts", "count"},
    {"sat.conflicts_per_s", "1/s"},
    {"sat.eliminated_vars", "count"},
    {"sat.inprocess_passes", "count"},
    {"sat.proof_bytes", "bytes"},
    {"sat.proof_check_s", "s"},
    {"attacks.attack_s", "s"},
    {"attacks.dips", "count"},
    {"attacks.encoded_clauses", "count"},
    {"attacks.oracle_s", "s"},
    {"attacks.oracle_queries", "count"},
    {"attacks.loop_self_s", "s"},
    {"runtime.queue_wait_s_p50", "s"},
    {"runtime.queue_wait_s_tail", "s"},
    {"service.http_overhead_s_p50", "s"},
    {"service.netlist_hit_ratio", "ratio"},
    {"service.skeleton_hit_ratio", "ratio"},
    {"service.verifier_hit_ratio", "ratio"},
    {"service.cold_verify_s_p50", "s"},
    {"service.warm_verify_s_p50", "s"},
    {"check.sim_s", "s"},
    {"trace.op_s_p50", "s"},
    {"trace.ops_per_s", "1/s"},
    {"trace.unaccounted_share", "ratio"},
};

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

int usage(const char* message) {
  std::fprintf(stderr, "ril_perfbench: %s\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> options = {
      "--workload", "--seed", "--seconds", "--trace", "--tmp", "--work-out"};
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const std::string& option : options) {
    if (!args.count(option)) return usage(("missing " + option).c_str());
  }
  if (args.size() != options.size()) return usage("unknown option");
  const std::string name = args["--workload"];
  const std::uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  const double seconds = std::atof(args["--seconds"].c_str());
  const bool traced = args["--trace"] == "1";
  if (seconds <= 0) return usage("--seconds must be > 0");

  std::unique_ptr<Workload> workload;
  try {
    workload = make_workload(name, seed, args["--tmp"]);
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  Trace setup_trace(traced);
  std::vector<double> setup_times;
  const auto set_up_window = [&] {
    const auto start = Clock::now();
    for (int r = 0;
         r < kMinSetupReps || seconds_since(start) < kSetupWindowSeconds;
         ++r) {
      workload->teardown();
      const auto t0 = Clock::now();
      workload->setup(setup_trace);
      setup_times.push_back(seconds_since(t0));
    }
  };
  set_up_window();

  const bool rss_reset = reset_peak_rss();
  Trace op_trace(traced);
  const LoopResult loop = run_closed_loop(
      workload->clients(), seconds, kGuardSeconds,
      [&](const OpContext& ctx) { return workload->op(ctx, op_trace); });
  const double rss_mb = peak_rss_mb();
  set_up_window();
  workload->teardown();

  const std::size_t ok_ops = loop.attempted - loop.failed;
  const Tail op_tail = tail(loop.latencies);
  std::printf("workload %s seed %llu seconds %g trace %d clients %u\n",
              name.c_str(), static_cast<unsigned long long>(seed), seconds,
              traced ? 1 : 0, workload->clients());
  std::printf("ops attempted %zu failed %zu fail_ratio %.6f\n", loop.attempted,
              loop.failed, static_cast<double>(loop.failed) /
                               static_cast<double>(loop.attempted));
  for (std::size_t i = 0; i < loop.errors.size() && i < 5; ++i) {
    std::printf("  failed op %s\n", loop.errors[i].c_str());
  }
  std::printf("work %s\n", workload->work_totals().c_str());

  std::vector<std::pair<Metric, double>> metrics;
  if (!traced) {
    metrics = {
        {{"setup_s", "s"}, median(setup_times)},
        {{"ops_per_s", "1/s"},
         static_cast<double>(ok_ops) / loop.wall_seconds},
        {{"op_s_p50", "s"}, median(loop.latencies)},
        {{"op_s_tail", "s"}, op_tail.value},
        {{"cpu_s_per_op", "s"},
         loop.cpu_seconds / static_cast<double>(loop.attempted)},
        {{"peak_rss_mb", "MB"}, rss_mb},
    };
    std::printf("setup_s is the median of %zu set-ups\n",
                setup_times.size());
    std::printf("op_s_p50 over %zu samples; op_s_tail is p%.1f with %zu "
                "samples beyond it\n",
                loop.latencies.size(), op_tail.percentile,
                op_tail.beyond);
    std::printf("peak_rss_mb is %s\n",
                rss_reset
                    ? "VmHWM reset after set-up"
                    : "the process high-water mark (VmHWM reset unavailable)");
  } else {
    std::map<std::string, double> layers;
    for (const Metric& m : kSetupLayers) {
      layers[m.name] = setup_trace.get(m.name) /
                      static_cast<double>(setup_times.size());
    }
    workload->layers(op_trace, loop, layers);
    for (const Metric& m : kSetupLayers) metrics.push_back({m, layers[m.name]});
    for (const Metric& m : kOpLayers) metrics.push_back({m, layers[m.name]});
    // Shares of op wall time per top-level span: printed, not reported.
    for (const auto& [key, value] : layers) {
      if (key.rfind("share.", 0) == 0) {
        std::printf("%-37s %.4f of op wall\n", key.c_str(), value);
      }
    }
  }
  for (const auto& [m, value] : metrics) {
    std::printf("metric %-30s %14s %s\n", m.name, number(value).c_str(),
                m.unit);
  }

  {
    std::ofstream out(args["--work-out"]);
    for (const auto& [key, work] : loop.work) {
      out << key << '\t' << work << '\n';
    }
    if (!out) return usage("cannot write --work-out");
  }

  std::string json = "{\"correct\": ";
  json += loop.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(loop.attempted);
  json += ", \"failed\": " + std::to_string(loop.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + ril::runtime::json_escape(metrics[i].first.name) +
            "\": {\"value\": " + number(metrics[i].second) +
            ", \"unit\": \"" + ril::runtime::json_escape(metrics[i].first.unit) +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
