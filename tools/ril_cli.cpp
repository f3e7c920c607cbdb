// `ril` -- command-line front end for the RIL-Blocks tool suite.
//
//   ril gen <name> <out.bench> [--scale F]
//       Emit a benchmark circuit (c7552, b15, s35932, s38584, b20, aes,
//       sha256, md5, gps).
//
//   ril lock <scheme> <in.bench> <out.bench> <key.txt> [options]
//       Schemes: ril | xor | sarlock | antisat | sfll | lut | fulllock |
//       routing. RIL options: --blocks N --size N --lutk M --output-net
//       --scan. Generic: --bits N --seed S. Writes the locked netlist and
//       the correct key (functional key for RIL; with --scan a second line
//       carries the oracle scan key).
//
//   ril attack <method> <locked.bench> <activated.bench> [--timeout S]
//              [--jobs N | --portfolio] [--stats out.json]
//              [--max-iterations N] [--no-preprocess] [--no-inprocess]
//              [--certify [--proof out.drat]]
//       Methods: sat | appsat | onehot | removal | sps | bypass. The
//       activated netlist (no key inputs) acts as the oracle. Prints the
//       result and, when a key is recovered, verifies it by SAT CEC.
//       sat, appsat and onehot run the same DIP loop, so every option
//       below means the same for all three. --jobs N races N diversified
//       CDCL configurations per solve (first-to-finish-wins, losers
//       cancelled); --portfolio uses all hardware threads; --stats writes
//       per-solve JSON records (seed, winning configuration, conflicts,
//       wall time, constraint clause costs); --max-iterations caps the
//       DIPs. SatELite-style preprocessing (subsumption, self-subsuming
//       resolution, bounded variable elimination) of the miter and key
//       formulas and restart-time inprocessing (clause vivification,
//       learned-clause subsumption, failed-literal probing) inside the
//       solvers are both on by default; --no-preprocess and
//       --no-inprocess turn them off independently. --certify DRAT-logs
//       every miter solve, streaming each trace to disk as binary DRAT
//       (bounded memory), self-checks SAT models, and validates the final
//       UNSAT certificate with the independent RUP checker. --proof
//       publishes the certificate under the given path (atomic
//       temp+rename) for offline `ril check-proof`; without it the
//       certificate is a private temp file removed once checked. A run
//       that stops before miter-UNSAT (timeout, --max-iterations,
//       AppSAT's approximate exit) still publishes its --proof trace as an
//       open certificate for `ril check-proof --open`. Preprocessing and
//       inprocessing compose with --certify: elimination, vivification,
//       and probing steps are all emitted into the trace.
//
//   ril check-proof <trace.drat> [--open]
//       Re-validate a previously written binary DRAT certificate with
//       the streaming forward RUP checker. By default the trace must
//       be a complete refutation (ends in the empty clause); --open
//       accepts open certificates -- every step RUP-checks but no empty
//       clause lands -- which is what an attack that stopped before
//       miter-UNSAT (timeout, --max-iterations) publishes. Exit codes:
//       0 valid, 1 invalid proof, 2 usage, 3 missing/unreadable file,
//       4 empty trace, 5 malformed/truncated trace.
//
//   ril analyze <file.bench> [key.txt]
//       Structural report: stats, detected routing networks and keyed
//       LUTs, and (with a key) output corruptibility.
//
//   ril unlock <locked.bench> <key.txt> <out.bench>
//       Specialize the key, simplify, and write the unlocked netlist.
//
//   ril campaign <spec.campaign> [--jobs N] [--out results.jsonl] [--resume]
//               [--solver-jobs N] [--no-preprocess] [--no-inprocess]
//       Run a whole experiment suite from one declarative spec: each
//       non-comment line is `<key> <circuit> <scale> <scheme[:opt=v,...]>
//       <attack> <timeout> <seed>`. --jobs N runs N cells concurrently;
//       --out streams one JSON line per cell (see docs/ARCHITECTURE.md for
//       the schema); --resume skips cells already present in that file.
//
//   ril serve [--port N] [--workers N] [--solver-jobs N]
//             [--journal file.jsonl] [--proof-dir DIR] [--timeout S]
//       Long-lived attack-as-a-service daemon: lock / attack / verify /
//       check-proof jobs over HTTP/1.1 + JSON on 127.0.0.1, with
//       structural-CEC key verification, per-job deadlines, a kill-safe
//       JSONL journal, and streamed DRAT certificate retrieval. No state
//       but the job table and journal persists across requests. See
//       docs/SERVICE.md for the API.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "attacks/appsat.hpp"
#include "attacks/bypass.hpp"
#include "attacks/metrics.hpp"
#include "attacks/oracle.hpp"
#include "attacks/removal.hpp"
#include "attacks/routing_encoding.hpp"
#include "attacks/sat_attack.hpp"
#include "attacks/sps.hpp"
#include "benchgen/suite.hpp"
#include "cnf/equivalence.hpp"
#include "locking/schemes.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/verilog_io.hpp"
#include "netlist/simplify.hpp"
#include "netlist/stats.hpp"
#include "runtime/campaign.hpp"
#include "sat/drat_check.hpp"
#include "service/http.hpp"
#include "service/service.hpp"
#include "sat/proof.hpp"
#include "sca/circuit_dpa.hpp"

namespace {

using namespace ril;

[[noreturn]] void usage(const char* message = nullptr) {
  if (message) std::fprintf(stderr, "error: %s\n", message);
  std::fprintf(stderr,
               "usage:\n"
               "  ril gen <name> <out.bench> [--scale F]\n"
               "  ril lock <scheme> <in.bench> <out.bench> <key.txt>"
               " [--blocks N --size N --lutk M --output-net --scan"
               " --bits N --seed S]\n"
               "  ril attack <method> <locked.bench> <activated.bench>"
               " [--timeout S --jobs N --portfolio --stats out.json"
               " --no-preprocess --no-inprocess --certify"
               " --proof out.drat --max-iterations N]\n"
               "  ril check-proof <trace.drat> [--open]\n"
               "  ril analyze <file.bench> [key.txt]\n"
               "  ril unlock <locked.bench> <key.txt> <out.bench>\n"
               "  ril campaign <spec.campaign> [--jobs N --out results.jsonl"
               " --resume --solver-jobs N --no-preprocess --no-inprocess"
               " --certify --proof-dir DIR]\n"
               "  ril serve [--port N --workers N --solver-jobs N"
               " --journal file.jsonl --proof-dir DIR --timeout S]\n");
  std::exit(2);
}

struct Args {
  std::vector<std::string> positional;
  double scale = 1.0;
  double timeout = 60.0;
  std::size_t blocks = 1;
  std::size_t size = 8;
  std::size_t lutk = 2;
  std::size_t bits = 32;
  std::size_t max_iterations = 0;
  std::uint64_t seed = 1;
  unsigned jobs = 1;
  unsigned solver_jobs = 1;
  std::string stats_path;
  std::string out_path;
  std::string proof_path;
  bool resume = false;
  bool output_net = false;
  bool scan = false;
  /// Preprocessing is on by default at every scale (the Table-5 medians
  /// confirmed a net win); --no-preprocess forces it off.
  bool preprocess = true;
  /// Restart-time inprocessing inside the solvers; --no-inprocess turns it
  /// off independently of --no-preprocess.
  bool inprocess = true;
  bool certify = false;
  /// check-proof: accept an open certificate (no empty clause required).
  bool open_certificate = false;
  std::string proof_dir;
  /// serve: TCP port to bind (0 = ephemeral, printed on startup).
  unsigned port = 0;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing option value");
      return argv[++i];
    };
    if (arg == "--scale") args.scale = std::atof(value());
    else if (arg == "--timeout") args.timeout = std::atof(value());
    else if (arg == "--blocks") args.blocks = std::strtoull(value(), nullptr, 10);
    else if (arg == "--size") args.size = std::strtoull(value(), nullptr, 10);
    else if (arg == "--lutk") args.lutk = std::strtoull(value(), nullptr, 10);
    else if (arg == "--bits") args.bits = std::strtoull(value(), nullptr, 10);
    else if (arg == "--max-iterations") args.max_iterations = std::strtoull(value(), nullptr, 10);
    else if (arg == "--seed") args.seed = std::strtoull(value(), nullptr, 10);
    else if (arg == "--jobs") args.jobs = std::max(1u, static_cast<unsigned>(std::strtoul(value(), nullptr, 10)));
    else if (arg == "--portfolio") args.jobs = std::max(1u, std::thread::hardware_concurrency());
    else if (arg == "--solver-jobs") args.solver_jobs = std::max(1u, static_cast<unsigned>(std::strtoul(value(), nullptr, 10)));
    else if (arg == "--out") args.out_path = value();
    else if (arg == "--resume") args.resume = true;
    else if (arg == "--stats") args.stats_path = value();
    else if (arg == "--output-net") args.output_net = true;
    else if (arg == "--scan") args.scan = true;
    else if (arg == "--preprocess") args.preprocess = true;
    else if (arg == "--no-preprocess") args.preprocess = false;
    else if (arg == "--inprocess") args.inprocess = true;
    else if (arg == "--no-inprocess") args.inprocess = false;
    else if (arg == "--certify") args.certify = true;
    else if (arg == "--open") args.open_certificate = true;
    else if (arg == "--proof") args.proof_path = value();
    else if (arg == "--proof-dir") args.proof_dir = value();
    else if (arg == "--port") {
      const unsigned long port = std::strtoul(value(), nullptr, 10);
      if (port > 65535) usage("--port must be in [0, 65535]");
      args.port = static_cast<unsigned>(port);
    }
    else if (arg == "--workers") args.jobs = std::max(1u, static_cast<unsigned>(std::strtoul(value(), nullptr, 10)));
    else if (arg == "--journal") args.out_path = value();
    else if (arg.rfind("--", 0) == 0) usage(("unknown option " + arg).c_str());
    else args.positional.push_back(arg);
  }
  return args;
}

bool has_suffix(const std::string& path, const char* suffix) {
  const std::string s = suffix;
  return path.size() >= s.size() &&
         path.compare(path.size() - s.size(), s.size(), s) == 0;
}

netlist::Netlist read_netlist(const std::string& path) {
  netlist::Netlist nl = has_suffix(path, ".v")
                            ? netlist::read_verilog_file(path)
                            : netlist::read_bench_file(path);
  // The parsers accept a file with no recognizable statements as an empty
  // netlist; surface that as an error instead of attacking thin air.
  if (nl.node_count() == 0 || nl.outputs().empty()) {
    throw std::runtime_error(path +
                             ": no usable netlist parsed (missing gates or "
                             "outputs; corrupt input?)");
  }
  return nl;
}

void write_netlist(const std::string& path, const netlist::Netlist& nl) {
  if (has_suffix(path, ".v")) {
    netlist::write_verilog_file(path, nl);
  } else {
    netlist::write_bench_file(path, nl);
  }
}

std::vector<bool> read_key_line(const std::string& line) {
  std::vector<bool> key;
  for (char c : line) {
    if (c == '0') key.push_back(false);
    else if (c == '1') key.push_back(true);
  }
  return key;
}

std::vector<bool> read_key_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage(("cannot open key file " + path).c_str());
  std::string line;
  std::getline(in, line);
  return read_key_line(line);
}

void write_key_file(const std::string& path,
                    const std::vector<bool>& functional,
                    const std::vector<bool>* scan_key) {
  std::ofstream out(path);
  if (!out) usage(("cannot open key file " + path).c_str());
  for (bool b : functional) out << (b ? '1' : '0');
  out << "\n";
  if (scan_key) {
    for (bool b : *scan_key) out << (b ? '1' : '0');
    out << "\n";
  }
}

/// Prints the per-configuration win tally of a recorded portfolio run.
void print_portfolio_wins(const std::vector<attacks::SolveRecord>& log) {
  if (log.empty()) return;
  std::map<std::string, std::size_t> wins;
  for (const auto& record : log) {
    if (record.outcome.winner >= 0) ++wins[record.outcome.winner_config];
  }
  std::printf("portfolio wins:");
  for (const auto& [config, count] : wins) {
    std::printf(" %s=%zu", config.c_str(), count);
  }
  std::printf("\n");
}

/// JSON fragment describing the certification outcome. Empty unless the
/// attack was run with --certify so the legacy telemetry shape is untouched.
std::string certification_fields(const attacks::DipLoopStats& result) {
  if (result.proof_status == attacks::ProofStatus::kNotRequested) return "";
  return ",\"proof\":\"" + attacks::to_string(result.proof_status) +
         "\",\"proof_steps\":" + std::to_string(result.proof_steps) +
         ",\"proof_bytes\":" + std::to_string(result.proof_bytes) +
         ",\"models_ok\":" + (result.models_verified ? "true" : "false");
}

/// JSON fragment with the aggregated inprocessing counters. Empty when the
/// attack ran with --no-inprocess, keeping the legacy telemetry shape.
std::string inprocess_fields(const attacks::DipLoopStats& result) {
  if (!result.inprocessed) return "";
  const sat::InprocessStats& s = result.inprocess;
  return ",\"inprocess_passes\":" + std::to_string(s.passes) +
         ",\"vivified\":" + std::to_string(s.vivified_clauses) +
         ",\"subsumed\":" +
         std::to_string(s.subsumed_clauses + s.strengthened_clauses) +
         ",\"failed_literals\":" + std::to_string(s.failed_literals) +
         ",\"hyper_binaries\":" + std::to_string(s.hyper_binaries);
}

/// Writes the attack-level + per-solve stats JSON of a DIP-loop attack.
void write_stats_file(const std::string& path, const char* attack,
                      const Args& args, const std::string& status,
                      const attacks::DipLoopStats& result) {
  std::ofstream stats(path);
  if (!stats) usage(("cannot open stats file " + path).c_str());
  stats << "{\"attack\":\"" << attack << "\",\"jobs\":" << args.jobs
        << ",\"status\":\"" << status
        << "\",\"iterations\":" << result.iterations
        << ",\"seconds\":" << result.seconds
        << ",\"conflicts\":" << result.conflicts
        << ",\"encoded_clauses\":" << result.encoded_clauses
        << ",\"preprocess\":" << (args.preprocess ? "true" : "false")
        << ",\"inprocess\":" << (args.inprocess ? "true" : "false")
        << certification_fields(result) << inprocess_fields(result)
        << ",\"solves\":[\n";
  const auto& log = result.solve_log;
  for (std::size_t i = 0; i < log.size(); ++i) {
    stats << attacks::solve_record_json(log[i])
          << (i + 1 < log.size() ? ",\n" : "\n");
  }
  stats << "]}\n";
  std::printf("per-solve stats -> %s\n", path.c_str());
}

/// Prints what every DIP-loop attack (sat, appsat, onehot) reports after
/// its headline -- preprocessing, inprocessing, certificate, portfolio
/// wins -- and writes the --stats file.
void report_dip_attack(const char* attack, const Args& args,
                       const std::string& status,
                       const attacks::DipLoopStats& result) {
  if (result.preprocessed) {
    const sat::PreprocessStats& p = result.preprocess;
    std::printf("preprocess: miter %zu -> %zu clauses, %zu -> %zu vars"
                " (%zu eliminated, %zu subsumed, %zu strengthened)\n",
                p.clauses_before, p.clauses_after, p.vars_before,
                p.vars_after, p.eliminated_vars, p.subsumed_clauses,
                p.strengthened_literals);
  }
  if (result.inprocessed && result.inprocess.passes > 0) {
    const sat::InprocessStats& s = result.inprocess;
    std::printf("inprocess: %llu passes, %llu vivified, %llu subsumed,"
                " %llu failed literals, %llu hyper-binaries\n",
                static_cast<unsigned long long>(s.passes),
                static_cast<unsigned long long>(s.vivified_clauses),
                static_cast<unsigned long long>(s.subsumed_clauses +
                                                s.strengthened_clauses),
                static_cast<unsigned long long>(s.failed_literals),
                static_cast<unsigned long long>(s.hyper_binaries));
  }
  if (result.proof_status != attacks::ProofStatus::kNotRequested) {
    std::printf("certificate: %s (%llu steps), models %s\n",
                to_string(result.proof_status).c_str(),
                static_cast<unsigned long long>(result.proof_steps),
                result.models_verified ? "self-checked" : "UNSOUND");
    if (!args.proof_path.empty()) {
      if (!result.proof_path.empty()) {
        std::printf("proof trace -> %s (%llu bytes, streamed)\n",
                    result.proof_path.c_str(),
                    static_cast<unsigned long long>(result.proof_bytes));
        if (result.proof_status == attacks::ProofStatus::kOpen) {
          std::printf("open certificate: validate with"
                      " `ril check-proof --open %s`\n",
                      result.proof_path.c_str());
        }
      } else {
        std::printf("proof trace not written: no solver trace to"
                    " publish\n");
      }
    }
  }
  print_portfolio_wins(result.solve_log);
  if (!args.stats_path.empty()) {
    write_stats_file(args.stats_path, attack, args, status, result);
  }
}

int cmd_gen(const Args& args) {
  if (args.positional.size() != 2) usage("gen needs <name> <out.bench>");
  const auto nl = benchgen::make_benchmark(args.positional[0], args.scale);
  write_netlist(args.positional[1], nl);
  std::printf("%s -> %s (%s)\n", args.positional[0].c_str(),
              args.positional[1].c_str(),
              netlist::format_stats(netlist::compute_stats(nl)).c_str());
  return 0;
}

int cmd_lock(const Args& args) {
  if (args.positional.size() != 4) {
    usage("lock needs <scheme> <in.bench> <out.bench> <key.txt>");
  }
  const std::string& scheme = args.positional[0];
  netlist::Netlist host = read_netlist(args.positional[1]);
  if (host.dff_count() > 0) {
    std::printf("note: sequential input; locking the combinational core\n");
    host = host.combinational_core();
  }

  const auto lock = locking::lock_by_name(
      scheme, host,
      {.bits = args.bits,
       .size = args.size,
       .blocks = args.blocks,
       .lut_inputs = args.lutk,
       .output_network = args.output_net,
       .scan_obfuscation = args.scan,
       .seed = args.seed});
  if (!lock) usage(("unknown scheme " + scheme).c_str());
  const netlist::Netlist& locked = lock->locked.netlist;
  const std::vector<bool>& key = lock->locked.key;
  write_netlist(args.positional[2], locked);
  // Only a scan-obfuscated RIL lock has an oracle key of its own.
  write_key_file(args.positional[3], key,
                 scheme == "ril" && args.scan ? &lock->info.oracle_scan_key
                                              : nullptr);
  std::printf("locked with %s: %s, key width %zu -> %s / %s\n",
              scheme.c_str(),
              netlist::format_stats(netlist::compute_stats(locked)).c_str(),
              key.size(), args.positional[2].c_str(),
              args.positional[3].c_str());
  return 0;
}

int cmd_attack(const Args& args) {
  if (args.positional.size() != 3) {
    usage("attack needs <method> <locked.bench> <activated.bench>");
  }
  const std::string& method = args.positional[0];
  const netlist::Netlist locked =
      read_netlist(args.positional[1]);
  const netlist::Netlist activated =
      read_netlist(args.positional[2]);
  if (!activated.key_inputs().empty()) {
    usage("activated netlist must not have key inputs (use `ril unlock`)");
  }
  attacks::Oracle oracle(activated, {});

  auto verify = [&](const std::vector<bool>& key) {
    sat::SolverLimits limits{.time_limit_seconds = args.timeout};
    const auto eq =
        cnf::check_equivalence(locked, activated, key, {}, limits);
    return eq.equivalent() ? "correct (CEC UNSAT)"
           : eq.status == sat::Result::kUnknown ? "unverified (CEC timeout)"
                                                : "WRONG";
  };

  if (method == "sat" || method == "appsat" || method == "onehot") {
    attacks::SatAttackOptions options;
    options.time_limit_seconds = args.timeout;
    options.max_iterations = args.max_iterations;
    options.jobs = args.jobs;
    options.portfolio_seed = args.seed;
    options.record_solves = args.jobs > 1 || !args.stats_path.empty();
    options.preprocess = args.preprocess ? attacks::PreprocessMode::kOn
                                         : attacks::PreprocessMode::kOff;
    options.inprocess = args.inprocess;
    options.certify = args.certify || !args.proof_path.empty();
    // --proof names the published certificate; without it the attack
    // checks a private temp certificate and removes it.
    options.proof_file = args.proof_path;
    if (method == "sat") {
      const auto result = attacks::run_sat_attack(locked, oracle, options);
      std::printf("sat attack: %s in %.2fs, %zu DIPs, %llu conflicts"
                  " (%u jobs)\n",
                  to_string(result.status).c_str(), result.seconds,
                  result.iterations,
                  static_cast<unsigned long long>(result.conflicts),
                  args.jobs);
      report_dip_attack("sat", args, to_string(result.status), result);
      if (result.status == attacks::SatAttackStatus::kKeyFound) {
        std::printf("recovered key: ");
        for (bool b : result.key) std::printf("%c", b ? '1' : '0');
        std::printf("\nkey check: %s\n", verify(result.key));
      }
    } else if (method == "onehot") {
      const auto result =
          attacks::run_sat_attack_onehot(locked, oracle, options);
      std::printf("one-hot attack: %s in %.2fs, %zu DIPs, %llu conflicts"
                  " (%u jobs; %zu routing components, %zu key bits -> %zu"
                  " selectors)\n",
                  to_string(result.status).c_str(), result.seconds,
                  result.iterations,
                  static_cast<unsigned long long>(result.conflicts),
                  args.jobs, result.components,
                  result.routing_key_bits_replaced, result.selector_bits);
      report_dip_attack("onehot", args, to_string(result.status), result);
      if (result.status == attacks::SatAttackStatus::kKeyFound) {
        sat::SolverLimits limits{.time_limit_seconds = args.timeout};
        const auto eq = cnf::check_equivalence(result.reconstructed,
                                               activated, {}, {}, limits);
        std::printf("reconstruction: %s\n",
                    eq.equivalent() ? "equivalent to oracle" : "NOT exact");
      }
    } else {
      const attacks::AppSatOptions appsat{options};
      const auto result = attacks::run_appsat(locked, oracle, appsat);
      std::printf("appsat: %s in %.2fs, %zu DIPs, sampled error %.3f,"
                  " %llu conflicts (%u jobs)\n",
                  to_string(result.status).c_str(), result.seconds,
                  result.iterations, result.sampled_error,
                  static_cast<unsigned long long>(result.conflicts),
                  args.jobs);
      report_dip_attack("appsat", args, to_string(result.status), result);
      if (!result.key.empty()) {
        std::printf("key check: %s\n", verify(result.key));
      }
    }
    return 0;
  }
  if (method == "removal") {
    const auto result = attacks::run_removal_attack(locked);
    sat::SolverLimits limits{.time_limit_seconds = args.timeout};
    const auto eq =
        cnf::check_equivalence(result.recovered, activated, {}, {}, limits);
    std::printf("removal: cuts=%zu grounded=%zu reconstruction %s\n",
                result.cuts, result.grounded_keys,
                eq.equivalent() ? "EQUIVALENT (defense broken)"
                                : "wrong (defense held)");
    return 0;
  }
  if (method == "sps") {
    const auto result = attacks::run_sps_attack(locked);
    sat::SolverLimits limits{.time_limit_seconds = args.timeout};
    const auto eq =
        cnf::check_equivalence(result.recovered, activated, {}, {}, limits);
    std::printf("sps: cuts=%zu max skew=%.3f reconstruction %s\n",
                result.cuts, result.max_observed_skew,
                eq.equivalent() ? "EQUIVALENT (defense broken)"
                                : "wrong (defense held)");
    return 0;
  }
  if (method == "bypass") {
    attacks::BypassOptions options;
    options.time_limit_seconds = args.timeout;
    options.jobs = args.jobs;
    options.portfolio_seed = args.seed;
    const auto result = attacks::run_bypass_attack(locked, oracle, options);
    std::printf("bypass: %s, %zu patterns\n",
                to_string(result.status).c_str(), result.patterns);
    if (result.status == attacks::BypassStatus::kBypassed) {
      sat::SolverLimits limits{.time_limit_seconds = args.timeout};
      const auto eq =
          cnf::check_equivalence(result.pirated, activated, {}, {}, limits);
      std::printf("pirated chip %s\n",
                  eq.equivalent() ? "EQUIVALENT (defense broken)"
                                  : "wrong (defense held)");
    }
    return 0;
  }
  usage(("unknown attack method " + method).c_str());
}

int cmd_analyze(const Args& args) {
  if (args.positional.empty()) usage("analyze needs <file.bench>");
  const netlist::Netlist nl = read_netlist(args.positional[0]);
  std::printf("%s: %s\n", nl.name().c_str(),
              netlist::format_stats(netlist::compute_stats(nl)).c_str());
  const auto components = attacks::find_routing_networks(nl);
  std::printf("routing networks: %zu\n", components.size());
  for (const auto& component : components) {
    std::printf("  %zu-in/%zu-out, %zu switches, terminal=%s\n",
                component.inputs.size(), component.outputs.size(),
                component.key_inputs.size(),
                component.terminal ? "yes" : "no");
  }
  const auto luts = sca::find_keyed_luts(nl);
  std::size_t attackable = 0;
  for (const auto& lut : luts) attackable += lut.attackable;
  std::printf("keyed 2-input LUTs: %zu (%zu with key-free input cones)\n",
              luts.size(), attackable);
  if (args.positional.size() > 1) {
    const auto key = read_key_file(args.positional[1]);
    const double corruption =
        attacks::output_corruptibility(nl, key, 8192, args.seed);
    std::printf("output corruptibility: %.4f\n", corruption);
  }
  return 0;
}

int cmd_unlock(const Args& args) {
  if (args.positional.size() != 3) {
    usage("unlock needs <locked.bench> <key.txt> <out.bench>");
  }
  const netlist::Netlist locked =
      read_netlist(args.positional[0]);
  const auto key = read_key_file(args.positional[1]);
  netlist::Netlist fixed = locking::specialize_keys(locked, key);
  const auto stats = netlist::simplify(fixed);
  write_netlist(args.positional[2], fixed);
  std::printf("unlocked: %s (folded %zu, pruned %zu) -> %s\n",
              netlist::format_stats(netlist::compute_stats(fixed)).c_str(),
              stats.constants_folded, stats.gates_pruned,
              args.positional[2].c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// `ril campaign` -- run a declarative experiment suite.
// ---------------------------------------------------------------------------

/// One parsed spec line:
///   <key> <circuit> <scale> <scheme[:opt=v,...]> <attack> <timeout> <seed>
/// Scheme options: blocks=N size=N lutk=M bits=N outnet scan.
struct CampaignCell {
  std::string key;
  std::string circuit;
  double scale = 1.0;
  std::string scheme;
  std::map<std::string, std::string> scheme_opts;
  std::string attack;
  double timeout = 10.0;
  std::uint64_t seed = 1;
};

std::vector<CampaignCell> parse_campaign_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open campaign spec " + path);
  }
  std::vector<CampaignCell> cells;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    CampaignCell cell;
    std::string scheme_field;
    if (!(fields >> cell.key >> cell.circuit >> cell.scale >> scheme_field >>
          cell.attack >> cell.timeout >> cell.seed)) {
      throw std::runtime_error(
          path + ":" + std::to_string(line_no) +
          ": expected <key> <circuit> <scale> <scheme[:opt=v,...]> "
          "<attack> <timeout> <seed>");
    }
    const auto colon = scheme_field.find(':');
    cell.scheme = scheme_field.substr(0, colon);
    if (colon != std::string::npos) {
      std::istringstream opts(scheme_field.substr(colon + 1));
      std::string opt;
      while (std::getline(opts, opt, ',')) {
        if (opt.empty()) continue;
        const auto eq = opt.find('=');
        cell.scheme_opts[opt.substr(0, eq)] =
            eq == std::string::npos ? "1" : opt.substr(eq + 1);
      }
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::size_t scheme_opt(const CampaignCell& cell, const char* name,
                       std::size_t fallback) {
  const auto it = cell.scheme_opts.find(name);
  if (it == cell.scheme_opts.end()) return fallback;
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

/// Runs one campaign cell: build the host, lock it, attack the oracle, and
/// report what the attacker walked away with.
std::string run_campaign_cell(const CampaignCell& cell, const Args& args,
                              runtime::JobContext& ctx) {
  const auto host = benchgen::make_benchmark(cell.circuit, cell.scale);

  const bool scan = scheme_opt(cell, "scan", 0) != 0;
  const auto lock = locking::lock_by_name(
      cell.scheme, host,
      {.bits = scheme_opt(cell, "bits", 16),
       .size = scheme_opt(cell, "size", 8),
       .blocks = scheme_opt(cell, "blocks", 1),
       .lut_inputs = scheme_opt(cell, "lutk", 2),
       .output_network = scheme_opt(cell, "outnet", 0) != 0,
       .scan_obfuscation = scan,
       .seed = cell.seed});
  if (!lock) throw std::runtime_error("unknown scheme '" + cell.scheme + "'");
  const netlist::Netlist& locked = lock->locked.netlist;
  // A scan-obfuscated RIL oracle computes with its SE bits programmed.
  const std::vector<bool>& oracle_key = cell.scheme == "ril" && scan
                                            ? lock->info.oracle_scan_key
                                            : lock->locked.key;
  const std::vector<std::size_t>& se_positions = lock->info.se_key_positions;

  auto verdict_payload = [&](const std::string& verdict) {
    return "\"cell\":\"" + runtime::json_escape(verdict) + "\",\"circuit\":\"" +
           runtime::json_escape(cell.circuit) + "\",\"scheme\":\"" +
           runtime::json_escape(cell.scheme) + "\",\"attack\":\"" +
           runtime::json_escape(cell.attack) + "\"";
  };
  auto dip_telemetry = [](const attacks::DipLoopStats& result) {
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  ",\"iterations\":%zu,\"conflicts\":%llu,"
                  "\"encoded_clauses\":%zu,\"attack_seconds\":%.3f",
                  result.iterations,
                  static_cast<unsigned long long>(result.conflicts),
                  result.encoded_clauses, result.seconds);
    return std::string(buffer) + certification_fields(result);
  };
  // A recovered key is deployed with the hidden SE bits inactive; it only
  // counts as broken if the deployed key realizes the host function.
  auto breaks_scheme = [&](std::vector<bool> key) {
    for (std::size_t pos : se_positions) key[pos] = false;
    sat::SolverLimits limits{.time_limit_seconds = cell.timeout};
    return cnf::check_equivalence(locked, host, key, {}, limits).equivalent();
  };

  attacks::Oracle oracle(locked, oracle_key);
  if (cell.attack == "sat" || cell.attack == "appsat" ||
      cell.attack == "onehot") {
    attacks::SatAttackOptions options;
    options.time_limit_seconds = cell.timeout;
    options.jobs = args.solver_jobs;
    options.portfolio_seed = cell.seed;
    options.cancel = &ctx.cancel_flag();
    options.certify = args.certify;
    options.preprocess = args.preprocess ? attacks::PreprocessMode::kOn
                                         : attacks::PreprocessMode::kOff;
    options.inprocess = args.inprocess;
    // --proof-dir: stream each certified cell's miter certificate to
    // <dir>/<cell-key>.drat (cell keys are sanitized for the filesystem).
    if (options.certify && !args.proof_dir.empty()) {
      std::string name = cell.key;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
            c != '.' && c != '_') {
          c = '_';
        }
      }
      options.proof_file = args.proof_dir + "/" + name + ".drat";
    }
    if (cell.attack == "onehot") {
      const auto result = attacks::run_sat_attack_onehot(locked, oracle,
                                                         options);
      const bool broken =
          result.status == attacks::SatAttackStatus::kKeyFound &&
          cnf::check_equivalence(result.reconstructed, host, {}, {},
                                 sat::SolverLimits{.time_limit_seconds =
                                                       cell.timeout})
              .equivalent();
      return verdict_payload(broken ? "broken" : "resilient") +
             dip_telemetry(result);
    }
    if (cell.attack == "appsat") {
      attacks::AppSatOptions appsat{options};
      appsat.max_iterations = 64;
      const auto result = attacks::run_appsat(locked, oracle, appsat);
      const bool broken = !result.key.empty() && breaks_scheme(result.key);
      return verdict_payload(broken ? "broken" : "resilient") +
             dip_telemetry(result);
    }
    const auto result = attacks::run_sat_attack(locked, oracle, options);
    const bool broken =
        result.status == attacks::SatAttackStatus::kKeyFound &&
        breaks_scheme(result.key);
    return verdict_payload(broken ? "broken" : "resilient") +
           dip_telemetry(result);
  }
  if (cell.attack == "removal") {
    const auto result = attacks::run_removal_attack(locked);
    const bool broken = cnf::check_equivalence(result.recovered, host)
                            .equivalent();
    return verdict_payload(broken ? "broken" : "resilient");
  }
  if (cell.attack == "sps") {
    const auto result = attacks::run_sps_attack(locked);
    const bool broken = cnf::check_equivalence(result.recovered, host)
                            .equivalent();
    return verdict_payload(broken ? "broken" : "resilient");
  }
  if (cell.attack == "bypass") {
    attacks::BypassOptions options;
    options.time_limit_seconds = cell.timeout;
    const auto result = attacks::run_bypass_attack(locked, oracle, options);
    const bool broken =
        result.status == attacks::BypassStatus::kBypassed &&
        cnf::check_equivalence(result.pirated, host).equivalent();
    return verdict_payload(broken ? "broken" : "resilient");
  }
  throw std::runtime_error("unknown attack '" + cell.attack + "'");
}

/// Re-validates a DRAT certificate written by `ril attack
/// sat|appsat|onehot --proof`, reading the binary trace from disk in one
/// streaming pass.
/// --open drops the empty-clause requirement (open certificates from
/// attacks that stopped before miter-UNSAT). Distinct exit codes keep
/// failures scriptable: 0 valid, 1 invalid proof, 2 usage,
/// 3 missing/unreadable file, 4 empty trace, 5 malformed trace.
int cmd_check_proof(const Args& args) {
  if (args.positional.size() != 1) usage("check-proof needs <trace.drat>");
  const std::string& path = args.positional[0];
  // Probe the file up front so missing/unreadable (3) and empty (4) get
  // their own one-line diagnostics instead of a generic parse error.
  {
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    if (!probe) {
      std::fprintf(stderr, "check-proof: cannot open %s: %s\n", path.c_str(),
                   std::strerror(errno));
      return 3;
    }
    if (probe.tellg() == std::streampos(0)) {
      std::fprintf(stderr, "check-proof: %s: empty trace (no proof steps)\n",
                   path.c_str());
      return 4;
    }
  }
  sat::DratCheckResult check;
  try {
    check = args.open_certificate ? sat::check_derivations_file(path)
                                  : sat::check_refutation_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "check-proof: %s\n", e.what());
    return 5;
  }
  if (check.malformed) {
    std::fprintf(stderr, "check-proof: %s\n", check.error.c_str());
    return 5;
  }
  std::printf("%s: %llu steps checked (%llu originals, %llu derivations,"
              " %llu deletions, %llu propagations)\n",
              path.c_str(),
              static_cast<unsigned long long>(
                  check.stats.originals + check.stats.derivations +
                  check.stats.deletions + check.stats.ignored_deletions),
              static_cast<unsigned long long>(check.stats.originals),
              static_cast<unsigned long long>(check.stats.derivations),
              static_cast<unsigned long long>(check.stats.deletions),
              static_cast<unsigned long long>(check.stats.propagations));
  if (check.valid) {
    std::printf(args.open_certificate
                    ? "proof VALID: open certificate, every step RUP-checked\n"
                    : "proof VALID: complete RUP refutation\n");
    return 0;
  }
  std::fprintf(stderr, "check-proof: %s: INVALID: %s%s\n", path.c_str(),
               check.error.c_str(),
               !args.open_certificate &&
                       check.error == "trace never derives the empty clause"
                   ? " (open certificate? retry with --open)"
                   : "");
  std::printf("proof INVALID: %s\n", check.error.c_str());
  return 1;
}

/// `ril serve` -- the attack-as-a-service daemon (docs/SERVICE.md).
/// Binds 127.0.0.1:<port> (0 picks an ephemeral port, printed on stdout),
/// runs jobs on --workers queue slots with --solver-jobs-wide portfolios,
/// journals every terminal job to --journal, and streams certified attack
/// proofs into --proof-dir. Stops on POST /v1/shutdown.
int cmd_serve(const Args& args) {
  service::ServiceOptions options;
  options.workers = args.jobs;
  options.solver_jobs = args.solver_jobs;
  options.journal_path = args.out_path;
  if (!args.proof_dir.empty()) options.proof_dir = args.proof_dir;
  options.default_timeout_seconds = args.timeout;

  service::AttackService attack_service(options);
  service::HttpServer server(
      [&attack_service](const service::HttpRequest& request) {
        return attack_service.handle(request);
      });
  // More acceptor threads than workers so status polls are never starved
  // behind long wait=1 submissions.
  server.start(args.port, args.jobs + 4);
  std::printf("ril serve: listening on 127.0.0.1:%u (%u workers, %u solver"
              " jobs)\n",
              server.port(), args.jobs, args.solver_jobs);
  if (!options.journal_path.empty()) {
    std::printf("ril serve: journal -> %s\n", options.journal_path.c_str());
  }
  std::fflush(stdout);
  attack_service.wait_shutdown();
  server.stop();
  std::printf("ril serve: shutdown complete\n");
  return 0;
}

int cmd_campaign(const Args& args) {
  if (args.positional.size() != 1) usage("campaign needs <spec.campaign>");
  const auto cells = parse_campaign_spec(args.positional[0]);
  if (cells.empty()) {
    std::fprintf(stderr, "campaign spec %s has no cells\n",
                 args.positional[0].c_str());
    return 1;
  }

  std::vector<runtime::CampaignJob> jobs;
  jobs.reserve(cells.size());
  for (const CampaignCell& cell : cells) {
    runtime::CampaignJob job;
    job.key = cell.key;
    // Lock + attack + equivalence check, each timeout-bounded.
    job.timeout_seconds = 4 * cell.timeout + 60;
    job.run = [&cell, &args](runtime::JobContext& ctx) {
      return run_campaign_cell(cell, args, ctx);
    };
    jobs.push_back(std::move(job));
  }

  runtime::CampaignOptions options;
  options.jobs = args.jobs;
  options.out_path = args.out_path;
  options.resume = args.resume;
  const auto summary = runtime::run_campaign(jobs, options);

  for (const auto& record : summary.records) {
    const std::string wrapped = "{" + record.payload + "}";
    if (record.status == "error") {
      std::printf("%-32s ERROR  %s\n", record.key.c_str(),
                  record.error.c_str());
    } else {
      std::printf("%-32s %-9s  %6.2fs%s\n", record.key.c_str(),
                  runtime::json_string_field(wrapped, "cell").c_str(),
                  record.run_seconds,
                  record.status == "cached" ? "  (resumed)" : "");
    }
  }
  std::printf("campaign: %zu cells ran, %zu resumed, %zu errors in %.2fs",
              summary.completed, summary.cached, summary.errors,
              summary.seconds);
  if (!args.out_path.empty()) {
    std::printf(" -> %s", args.out_path.c_str());
  }
  std::printf("\n");
  return summary.errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  try {
    const Args args = parse(argc, argv);
    if (command == "gen") return cmd_gen(args);
    if (command == "lock") return cmd_lock(args);
    if (command == "attack") return cmd_attack(args);
    if (command == "check-proof") return cmd_check_proof(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "unlock") return cmd_unlock(args);
    if (command == "campaign") return cmd_campaign(args);
    if (command == "serve") return cmd_serve(args);
    usage(("unknown command " + command).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "error: unexpected failure\n");
    return 1;
  }
}
