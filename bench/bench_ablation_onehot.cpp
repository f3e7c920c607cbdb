// Ablation: the one-layer (one-hot) routing re-encoding (Section IV-B).
//
// The paper attacks routing obfuscation after replacing the switch-network
// sub-CNF with one layer of one-hot-selected MUXes (further reduced with
// BVA in [11]). The re-encoding cracks *pure* routing obfuscation that
// stalls the plain formulation, but the LUT layer of a RIL-Block is not a
// routing structure and survives the preprocessing -- the reason the paper
// interleaves logic with interconnect. Each (scheme, encoding) cell is one
// campaign job.
#include <cstdio>

#include "attacks/oracle.hpp"
#include "attacks/routing_encoding.hpp"
#include "attacks/sat_attack.hpp"
#include "bench_util.hpp"
#include "benchgen/suite.hpp"
#include "cnf/equivalence.hpp"
#include "locking/schemes.hpp"

namespace {

using namespace ril;

struct Row {
  std::string name;
  std::string slug;
  netlist::Netlist locked;
  std::vector<bool> key;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parse_options(argc, argv);
  const double timeout = options.timeout_seconds > 0
                             ? options.timeout_seconds
                             : (options.full ? 120.0 : 8.0);
  const auto host = benchgen::make_benchmark(
      "c7552", options.scale > 0 ? options.scale : 0.06);

  bench::print_banner(
      "Ablation -- one-hot routing re-encoding (attack preprocessing)",
      "plain vs re-encoded SAT attack; timeout=" + std::to_string(timeout) +
          "s. Pure routing falls to the re-encoding; RIL's interleaved "
          "LUT layer does not.");

  std::vector<Row> rows;
  {
    const auto lock = locking::lock_banyan_routing(host, 16, options.seed);
    rows.push_back({"routing 16x16", "routing-16", lock.netlist, lock.key});
  }
  {
    const auto lock = locking::lock_banyan_routing(host, 32, options.seed);
    rows.push_back({"routing 32x32", "routing-32", lock.netlist, lock.key});
  }
  {
    core::RilBlockConfig config;
    config.size = 8;
    const auto lock = locking::lock_ril(host, 1, config, options.seed);
    rows.push_back({"RIL 1x 8x8", "ril-1x8x8", lock.locked.netlist,
                    lock.locked.key});
  }
  {
    core::RilBlockConfig config;
    config.size = 8;
    config.output_network = true;
    const auto lock = locking::lock_ril(host, 3, config, options.seed);
    rows.push_back({"RIL 3x 8x8x8", "ril-3x8x8x8", lock.locked.netlist,
                    lock.locked.key});
  }

  std::vector<runtime::CampaignJob> cells;
  for (const Row& row : rows) {
    runtime::CampaignJob plain_cell;
    plain_cell.key = "onehot/" + row.slug + "/plain";
    plain_cell.timeout_seconds = 3 * timeout + 60;
    plain_cell.run = [&row, timeout](runtime::JobContext& ctx) {
      attacks::SatAttackOptions attack;
      attack.time_limit_seconds = timeout;
      attack.cancel = &ctx.cancel_flag();
      attacks::Oracle oracle(row.locked, row.key);
      const auto result = attacks::run_sat_attack(row.locked, oracle, attack);
      return bench::attack_payload(
          bench::format_attack_seconds(
              result.seconds,
              result.status != attacks::SatAttackStatus::kKeyFound, timeout),
          result);
    };
    cells.push_back(std::move(plain_cell));

    runtime::CampaignJob onehot_cell;
    onehot_cell.key = "onehot/" + row.slug + "/onehot";
    onehot_cell.timeout_seconds = 4 * timeout + 60;  // attack + recon check
    onehot_cell.run = [&row, &host, timeout](runtime::JobContext& ctx) {
      attacks::SatAttackOptions attack;
      attack.time_limit_seconds = timeout;
      attack.cancel = &ctx.cancel_flag();
      attacks::Oracle oracle(row.locked, row.key);
      const auto result =
          attacks::run_sat_attack_onehot(row.locked, oracle, attack);
      std::string recon = "-";
      if (result.status == attacks::SatAttackStatus::kKeyFound) {
        sat::SolverLimits limits;
        limits.time_limit_seconds = timeout;
        const auto eq = cnf::check_equivalence(result.reconstructed, host,
                                               {}, {}, limits);
        recon = eq.equivalent() ? "yes"
                : eq.status == sat::Result::kUnknown ? "?" : "NO";
      }
      return bench::attack_payload(
                 bench::format_attack_seconds(
                     result.seconds,
                     result.status != attacks::SatAttackStatus::kKeyFound,
                     timeout),
                 result) +
             ",\"recon\":\"" + runtime::json_escape(recon) + "\"";
    };
    cells.push_back(std::move(onehot_cell));
  }
  const auto summary = bench::run_cells(options, std::move(cells));

  const std::vector<int> widths = {16, 9, 14, 7, 14, 7, 9};
  bench::print_rule(widths);
  bench::print_row({"scheme", "keybits", "plain", "dips", "one-hot", "dips",
                    "recon ok"},
                   widths);
  bench::print_rule(widths);

  std::size_t record_index = 0;
  for (const Row& row : rows) {
    const auto& plain = summary.records[record_index++];
    const auto& onehot = summary.records[record_index++];
    auto dips = [](const runtime::JobRecord& record) -> std::string {
      if (record.status == "error") return "n/a";
      return std::to_string(static_cast<std::size_t>(
          runtime::json_number_field("{" + record.payload + "}",
                                     "iterations")));
    };
    bench::print_row(
        {row.name, std::to_string(row.key.size()), bench::record_cell(plain),
         dips(plain), bench::record_cell(onehot), dips(onehot),
         onehot.status == "error"
             ? "n/a"
             : runtime::json_string_field("{" + onehot.payload + "}",
                                          "recon")},
        widths);
  }
  bench::print_rule(widths);
  return 0;
}
