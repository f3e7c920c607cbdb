#include "bench_util.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>

namespace ril::bench {

attacks::SatAttackOptions BenchOptions::attack_options(double timeout) const {
  attacks::SatAttackOptions attack;
  attack.time_limit_seconds = timeout;
  attack.jobs = solver_jobs;
  attack.portfolio_seed = seed;
  attack.record_solves = solver_jobs > 1 || !stats_path.empty();
  attack.certify = certify;
  // Without --preprocess the size-triggered default decides.
  attack.preprocess = preprocess ? attacks::PreprocessMode::kOn
                                 : attacks::PreprocessMode::kAuto;
  return attack;
}

attacks::AppSatOptions BenchOptions::appsat_options(double timeout) const {
  attacks::AppSatOptions appsat;
  appsat.time_limit_seconds = timeout;
  appsat.jobs = solver_jobs;
  appsat.portfolio_seed = seed;
  appsat.record_solves = solver_jobs > 1 || !stats_path.empty();
  appsat.preprocess = preprocess ? attacks::PreprocessMode::kOn
                                 : attacks::PreprocessMode::kOff;
  return appsat;
}

BenchOptions parse_options(int argc, char** argv) {
  BenchOptions options;
  if (const char* env = std::getenv("RIL_BENCH_FULL");
      env && std::strcmp(env, "0") != 0) {
    options.full = true;
  }
  if (const char* env = std::getenv("RIL_BENCH_JOBS"); env && *env) {
    options.jobs =
        std::max(1u, static_cast<unsigned>(std::strtoul(env, nullptr, 10)));
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--full") {
      options.full = true;
    } else if (arg == "--timeout") {
      options.timeout_seconds = std::atof(next_value());
    } else if (arg == "--scale") {
      options.scale = std::atof(next_value());
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next_value(), nullptr, 10);
    } else if (arg == "--jobs") {
      options.jobs = std::max(
          1u, static_cast<unsigned>(std::strtoul(next_value(), nullptr, 10)));
    } else if (arg == "--solver-jobs") {
      options.solver_jobs = std::max(
          1u, static_cast<unsigned>(std::strtoul(next_value(), nullptr, 10)));
    } else if (arg == "--portfolio") {
      options.solver_jobs = std::thread::hardware_concurrency() > 0
                                ? std::thread::hardware_concurrency()
                                : 1;
    } else if (arg == "--stats") {
      options.stats_path = next_value();
    } else if (arg == "--out") {
      options.out_path = next_value();
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--certify") {
      options.certify = true;
    } else if (arg == "--preprocess") {
      options.preprocess = true;
    } else if (arg == "--no-preprocess") {
      options.preprocess = false;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "options: --full  --timeout <sec>  --scale <f>  --seed <n>\n"
          "         --jobs <n>        run n table cells concurrently\n"
          "         --out <file>      stream one JSON line per cell\n"
          "         --resume          skip cells already in --out\n"
          "         --solver-jobs <n> SAT-portfolio width per solve\n"
          "         --portfolio       solver portfolio on all threads\n"
          "         --stats <file>    per-solve JSON records\n"
          "         --certify         DRAT-certify every SAT verdict\n"
          "         --preprocess      SatELite-style CNF preprocessing\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

runtime::CampaignSummary run_cells(const BenchOptions& options,
                                   std::vector<runtime::CampaignJob> cells) {
  runtime::CampaignOptions campaign;
  campaign.jobs = options.jobs;
  campaign.out_path = options.out_path;
  campaign.resume = options.resume;
  const auto summary = runtime::run_campaign(cells, campaign);
  if (!options.out_path.empty()) {
    std::fprintf(stderr,
                 "campaign: %zu cells ran, %zu resumed, %zu errors in "
                 "%.2fs -> %s\n",
                 summary.completed, summary.cached, summary.errors,
                 summary.seconds, options.out_path.c_str());
  }
  return summary;
}

std::string record_cell(const runtime::JobRecord& record) {
  if (record.status == "error") return "n/a";
  const std::string cell = runtime::json_string_field(
      "{" + record.payload + "}", "cell");
  return cell.empty() ? "n/a" : cell;
}

std::string cell_payload(const std::string& cell) {
  return "\"cell\":\"" + runtime::json_escape(cell) + "\"";
}

std::string attack_payload(const std::string& cell,
                           const attacks::DipLoopStats& result) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                ",\"iterations\":%zu,\"conflicts\":%llu,"
                "\"encoded_clauses\":%zu,\"attack_seconds\":%.3f",
                result.iterations,
                static_cast<unsigned long long>(result.conflicts),
                result.encoded_clauses, result.seconds);
  std::string payload = cell_payload(cell) + buffer;
  // Certification telemetry rides along only when requested so existing
  // trajectory consumers keep seeing the legacy record shape.
  if (result.proof_status != attacks::ProofStatus::kNotRequested) {
    payload += ",\"proof\":\"" + attacks::to_string(result.proof_status) +
               "\",\"proof_steps\":" + std::to_string(result.proof_steps) +
               ",\"models_ok\":" + (result.models_verified ? "true" : "false");
  }
  return payload;
}

void append_solve_stats(const BenchOptions& options, const std::string& label,
                        const attacks::SatAttackResult& result) {
  append_solve_stats(options, label, result.solve_log);
}

void append_solve_stats(const BenchOptions& options, const std::string& label,
                        const std::vector<attacks::SolveRecord>& log) {
  if (options.stats_path.empty()) return;
  // Campaign cells call this concurrently; serialize whole-line appends.
  static std::mutex stats_mutex;
  std::lock_guard<std::mutex> lock(stats_mutex);
  std::ofstream out(options.stats_path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "cannot open stats file %s\n",
                 options.stats_path.c_str());
    return;
  }
  for (const auto& record : log) {
    out << "{\"bench\":\"" << label
        << "\",\"record\":" << attacks::solve_record_json(record) << "}\n";
  }
}

std::string format_attack_seconds(double seconds, bool timed_out,
                                  double budget) {
  char buffer[64];
  if (timed_out) {
    std::snprintf(buffer, sizeof(buffer), "TIMEOUT(>%.0fs)", budget);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.2f", seconds);
  }
  return buffer;
}

void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths) {
  std::printf("|");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 12;
    std::printf(" %-*s |", width, cells[i].c_str());
  }
  std::printf("\n");
}

void print_rule(const std::vector<int>& widths) {
  std::printf("+");
  for (int width : widths) {
    for (int i = 0; i < width + 2; ++i) std::printf("-");
    std::printf("+");
  }
  std::printf("\n");
}

void print_banner(const std::string& title, const std::string& subtitle) {
  std::printf("\n=== %s ===\n%s\n\n", title.c_str(), subtitle.c_str());
}

}  // namespace ril::bench
