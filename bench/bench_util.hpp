// Shared helpers for the table/figure reproduction binaries.
//
// Every bench binary prints the corresponding paper artifact to stdout.
// Defaults are sized so the whole bench/ directory completes in a few
// minutes; pass --full (or set RIL_BENCH_FULL=1) for paper-scale runs, and
// --timeout <sec> to change the SAT-attack budget (the paper used 5 days;
// `TIMEOUT` rows correspond to the paper's "infinity" entries).
//
// The table/ablation binaries enumerate their cells as campaign jobs
// (runtime::run_campaign): `--jobs N` runs N cells concurrently, `--out
// results.jsonl` streams one JSON record per cell, and `--resume` skips
// cells already present in that stream — a killed sweep restarts where it
// died. Cells derive everything from their own seeds, so verdicts are
// identical at any --jobs width; only the wall clock changes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attacks/appsat.hpp"
#include "attacks/sat_attack.hpp"
#include "runtime/campaign.hpp"

namespace ril::bench {

struct BenchOptions {
  bool full = false;           ///< paper-scale sweep
  double timeout_seconds = 0;  ///< SAT budget per attack (0 = preset default)
  double scale = 0;            ///< host scale override (0 = preset default)
  std::uint64_t seed = 1;
  unsigned jobs = 1;         ///< campaign workers (--jobs, RIL_BENCH_JOBS)
  unsigned solver_jobs = 1;  ///< SAT-portfolio width (--solver-jobs)
  std::string stats_path;    ///< per-solve JSON records (--stats FILE)
  std::string out_path;      ///< per-cell JSONL stream (--out FILE)
  bool resume = false;       ///< skip cells already in out_path (--resume)
  bool certify = false;      ///< DRAT-certify every SAT verdict (--certify)
  /// SatELite-style CNF preprocessing (--preprocess). Off, the SAT
  /// attack preprocesses only 100k+-gate hosts (PreprocessMode::kAuto)
  /// and AppSAT not at all.
  bool preprocess = false;

  /// SAT-attack options carrying the portfolio settings.
  attacks::SatAttackOptions attack_options(double timeout) const;
  /// AppSAT options carrying the same portfolio settings.
  attacks::AppSatOptions appsat_options(double timeout) const;
};

/// Parses --full / --timeout S / --scale F / --seed N / --jobs N /
/// --solver-jobs N / --portfolio / --stats FILE / --out FILE / --resume /
/// --certify / --preprocess / --no-preprocess plus RIL_BENCH_FULL and
/// RIL_BENCH_JOBS (campaign workers).
BenchOptions parse_options(int argc, char** argv);

/// Runs the cells as a campaign with the binary's --jobs/--out/--resume
/// settings and prints a one-line summary to stderr when checkpointing.
/// Records come back in submission order, so tables index by position.
runtime::CampaignSummary run_cells(const BenchOptions& options,
                                   std::vector<runtime::CampaignJob> cells);

/// The "cell" field of a record, or "n/a" for cells that errored (a cell
/// infeasible on scaled hosts, e.g. not enough eligible gates).
std::string record_cell(const runtime::JobRecord& record);

/// Payload fragment `"cell":"..."` (the minimum a table cell reports).
std::string cell_payload(const std::string& cell);

/// Payload fragment with the cell plus the attack telemetry the JSONL
/// trajectory files need (iterations, conflicts, clause stats, seconds;
/// under --certify also the proof verdict, trace size, and model checks).
std::string attack_payload(const std::string& cell,
                           const attacks::DipLoopStats& result);

/// Appends one JSON line per portfolio solve of `result` to
/// `options.stats_path` (no-op when --stats was not given). `label`
/// identifies the table cell, e.g. "c1355/2-blocks". Thread-safe: campaign
/// cells append concurrently.
void append_solve_stats(const BenchOptions& options, const std::string& label,
                        const attacks::SatAttackResult& result);
void append_solve_stats(const BenchOptions& options, const std::string& label,
                        const std::vector<attacks::SolveRecord>& log);

/// Formats an attack duration: seconds with 2 decimals, or "TIMEOUT(>Ts)".
std::string format_attack_seconds(double seconds, bool timed_out,
                                  double budget);

/// Fixed-width table printing.
void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths);
void print_rule(const std::vector<int>& widths);

/// Header banner for a bench binary.
void print_banner(const std::string& title, const std::string& subtitle);

}  // namespace ril::bench
