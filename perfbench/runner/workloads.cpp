#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <stdexcept>

#include "attacks/oracle.hpp"
#include "attacks/sat_attack.hpp"
#include "benchgen/suite.hpp"
#include "cnf/equivalence.hpp"
#include "core/ril_block.hpp"
#include "locking/schemes.hpp"
#include "netlist/bench_io.hpp"
#include "runtime/campaign.hpp"
#include "sat/drat_check.hpp"
#include "service/caches.hpp"
#include "service/http.hpp"
#include "service/service.hpp"

namespace perfbench {
namespace {

using ril::attacks::SatAttackResult;
using ril::attacks::SatAttackStatus;
using ril::netlist::Netlist;
using ril::runtime::json_escape;
using ril::runtime::json_number_field;
using ril::runtime::json_object_field;
using ril::runtime::json_string_field;

// Salts keep the seed streams of the workloads and their parts apart.
constexpr std::uint64_t kLockSalt = 0x4c4f434b;
constexpr std::uint64_t kSimSalt = 0x53494d55;
constexpr std::uint64_t kClientSalt = 0x434c4e54;

/// Benchmark-owned oracle wrapper: forwards every query and, in a traced
/// run, times it.
class TimedOracle : public ril::attacks::QueryOracle {
 public:
  TimedOracle(ril::attacks::QueryOracle& inner, bool timed)
      : inner_(inner), timed_(timed) {}
  std::vector<bool> query(const std::vector<bool>& data) override {
    if (!timed_) return inner_.query(data);
    const auto t0 = Clock::now();
    std::vector<bool> response = inner_.query(data);
    seconds_ += seconds_since(t0);
    ++queries_;
    return response;
  }
  double seconds() const { return seconds_; }
  std::size_t queries() const { return queries_; }

 private:
  ril::attacks::QueryOracle& inner_;
  const bool timed_;
  double seconds_ = 0;
  std::size_t queries_ = 0;
};

/// Splits a traced attack into its solve, oracle and self time.
void trace_attack(Trace& trace, const SatAttackResult& r, double attack_s,
                  const TimedOracle& oracle) {
  if (!trace.on()) return;
  double miter_s = 0, key_s = 0, first_s = 0;
  std::size_t miter_solves = 0;
  double conflicts = 0;
  for (const auto& record : r.solve_log) {
    const double s = record.outcome.seconds;
    if (record.phase == "miter") {
      if (miter_solves == 0) first_s = s;
      miter_s += s;
      ++miter_solves;
    } else {
      key_s += s;
    }
    conflicts += static_cast<double>(record.outcome.total_conflicts);
  }
  trace.add("attacks.attack_s", attack_s);
  trace.add("sat.miter_solve_s", miter_s);
  trace.add("sat.miter_solves", static_cast<double>(miter_solves));
  trace.add("sat.first_solve_s", first_s);
  trace.add("sat.key_solve_s", key_s);
  trace.add("sat.conflicts", conflicts);
  trace.add("sat.eliminated_vars",
            static_cast<double>(r.preprocess.eliminated_vars));
  trace.add("sat.inprocess_passes", static_cast<double>(r.inprocess.passes));
  trace.add("attacks.dips", static_cast<double>(r.iterations));
  trace.add("attacks.encoded_clauses", static_cast<double>(r.encoded_clauses));
  trace.add("attacks.oracle_s", oracle.seconds());
  trace.add("attacks.oracle_queries", static_cast<double>(oracle.queries()));
  trace.add("attacks.loop_self_s",
            attack_s - miter_s - key_s - oracle.seconds());
}

/// Parses one instance. Parse throughput (netlist.parse_mb_per_s) divides
/// the bytes of cold parses by their seconds; every parse here is cold.
Netlist parse_traced(Trace& trace, const std::string& text) {
  const auto t0 = trace.on() ? Clock::now() : Clock::time_point{};
  Netlist parsed = ril::netlist::read_bench_string(text);
  if (trace.on()) {
    const double s = seconds_since(t0);
    trace.add("netlist.parse_s", s);
    trace.add("netlist.cold_parse_s", s);
    trace.add("netlist.parse_bytes", static_cast<double>(text.size()));
  }
  return parsed;
}

/// Per-op means of the op-trace sums, plus the derived rates. Top-level
/// spans (`parts`) are checked against the op wall time.
void op_layers(const Trace& trace, const LoopResult& loop,
               const std::vector<std::string>& parts,
               std::map<std::string, double>& out) {
  const double ops =
      static_cast<double>(std::max<std::size_t>(loop.attempted, 1));
  for (const char* name :
       {"netlist.parse_s", "cnf.cec_s", "sat.miter_solve_s",
        "sat.miter_solves", "sat.first_solve_s", "sat.key_solve_s",
        "sat.conflicts", "sat.eliminated_vars", "sat.inprocess_passes",
        "sat.proof_bytes", "sat.proof_check_s", "attacks.attack_s",
        "attacks.dips", "attacks.encoded_clauses", "attacks.oracle_s",
        "attacks.oracle_queries", "attacks.loop_self_s", "check.sim_s",
        "cnf.cec_calls"}) {
    out[name] = trace.get(name) / ops;
  }
  const double cold_parse_s = trace.get("netlist.cold_parse_s");
  if (cold_parse_s > 0) {
    out["netlist.parse_mb_per_s"] =
        trace.get("netlist.parse_bytes") / 1e6 / cold_parse_s;
  }
  const double solve_s =
      trace.get("sat.miter_solve_s") + trace.get("sat.key_solve_s");
  if (solve_s > 0) {
    out["sat.conflicts_per_s"] = trace.get("sat.conflicts") / solve_s;
  }

  double wall = 0;
  for (double l : loop.latencies) wall += l;
  double covered = 0;
  for (const std::string& part : parts) {
    covered += trace.get(part);
    if (wall > 0) out["share." + part] = trace.get(part) / wall;
  }
  out["trace.op_s_p50"] = median(loop.latencies);
  out["trace.ops_per_s"] =
      static_cast<double>(loop.attempted - loop.failed) / loop.wall_seconds;
  out["trace.unaccounted_share"] = wall > 0 ? (wall - covered) / wall : 0;
}

using Counter = std::pair<const char*, const std::atomic<std::uint64_t>*>;

std::string counters(const std::vector<Counter>& fields) {
  std::string out;
  for (const auto& [name, value] : fields) {
    if (!out.empty()) out += ' ';
    out += std::string(name) + "=" + std::to_string(value->load());
  }
  return out;
}

// ---------------------------------------------------------------------------
// break-ril / break-antisat: verified breaks of one lock per op.

class BreakWorkload : public Workload {
 public:
  enum class Scheme { kRil, kAntiSat };

  BreakWorkload(Scheme scheme, std::uint64_t seed)
      : scheme_(scheme), seed_(seed) {}

  void setup(Trace& trace) override {
    {
      Span span(trace, "benchgen.host_s");
      host_ = ril::benchgen::make_benchmark("c7552", 0.15);
    }
    oracle_ = std::make_unique<ril::attacks::Oracle>(host_,
                                                     std::vector<bool>{});
    instances_.clear();
    for (std::size_t i = 0; i < kInstances; ++i) {
      const std::uint64_t lock_seed = derive_seed(seed_, kLockSalt, i);
      Netlist locked;
      {
        Span span(trace, "locking.lock_s");
        if (scheme_ == Scheme::kRil) {
          ril::core::RilBlockConfig config;
          config.size = 4;
          config.output_network = true;
          locked = ril::locking::lock_ril(host_, 2, config, lock_seed)
                       .locked.netlist;
        } else {
          locked = ril::locking::lock_antisat(host_, 8, lock_seed).netlist;
        }
      }
      Span span(trace, "netlist.write_s");
      instances_.push_back(ril::netlist::write_bench_string(locked));
    }
  }

  OpResult op(const OpContext& ctx, Trace& trace) override {
    const std::string& text = instances_[ctx.index % instances_.size()];
    OpResult result;
    const Netlist locked = parse_traced(trace, text);

    TimedOracle oracle(*oracle_, trace.on());
    ril::attacks::SatAttackOptions options;
    options.jobs = 1;
    options.max_iterations = scheme_ == Scheme::kRil ? 4000 : 1024;
    options.record_solves = trace.on();
    options.cancel = ctx.cancel;
    const auto t0 = Clock::now();
    const SatAttackResult r =
        ril::attacks::run_sat_attack(locked, oracle, options);
    trace_attack(trace, r, trace.on() ? seconds_since(t0) : 0.0, oracle);
    dips_ += r.iterations;
    conflicts_ += r.conflicts;
    clauses_ += r.encoded_clauses;
    result.work = "dips=" + std::to_string(r.iterations) +
                  " conflicts=" + std::to_string(r.conflicts) +
                  " clauses=" + std::to_string(r.encoded_clauses) +
                  " key=" + key_bits(r.key);
    if (r.status != SatAttackStatus::kKeyFound) {
      result.error = "attack status " + ril::attacks::to_string(r.status);
      return result;
    }

    ril::cnf::EquivalenceResult cec;
    {
      Span span(trace, "cnf.cec_s");
      ril::sat::SolverLimits limits;
      limits.time_limit_seconds = ctx.guard_seconds;
      cec = ril::cnf::check_equivalence(locked, host_, r.key, {}, limits);
    }
    trace.add("cnf.cec_calls", 1);
    bool simulated;
    {
      Span span(trace, "check.sim_s");
      simulated = simulation_matches(
          host_, locked, r.key, derive_seed(seed_, kSimSalt, ctx.index));
    }
    if (!cec.equivalent()) {
      result.error = "CEC rejects the recovered key";
    } else if (!simulated) {
      result.error = "simulation rejects the recovered key";
    } else {
      result.ok = true;
    }
    return result;
  }

  void layers(const Trace& trace, const LoopResult& loop,
              std::map<std::string, double>& out) const override {
    op_layers(trace, loop,
              {"netlist.parse_s", "attacks.attack_s", "cnf.cec_s",
               "check.sim_s"},
              out);
  }

  std::string work_totals() const override {
    return counters({{"dips", &dips_},
                     {"conflicts", &conflicts_},
                     {"encoded_clauses", &clauses_}});
  }

 private:
  static constexpr std::size_t kInstances = 64;
  const Scheme scheme_;
  const std::uint64_t seed_;
  Netlist host_;
  std::unique_ptr<ril::attacks::Oracle> oracle_;
  std::vector<std::string> instances_;
  std::atomic<std::uint64_t> dips_{0}, conflicts_{0}, clauses_{0};
};

// ---------------------------------------------------------------------------
// certify-b20: certified, iteration-capped attack on a large host with the
// proof streamed to disk and re-checked offline.

class CertifyWorkload : public Workload {
 public:
  CertifyWorkload(std::uint64_t seed, std::string tmp_dir)
      : seed_(seed), tmp_dir_(std::move(tmp_dir)) {}

  void setup(Trace& trace) override {
    {
      Span span(trace, "benchgen.host_s");
      host_ = ril::benchgen::make_benchmark("b20", 1.0);
    }
    oracle_ = std::make_unique<ril::attacks::Oracle>(host_,
                                                     std::vector<bool>{});
    instances_.clear();
    for (std::size_t i = 0; i < kInstances; ++i) {
      ril::locking::LockedCircuit locked;
      {
        Span span(trace, "locking.lock_s");
        locked = ril::locking::lock_xor(host_, 16,
                                        derive_seed(seed_, kLockSalt, i));
      }
      Span span(trace, "netlist.write_s");
      instances_.push_back(
          {ril::netlist::write_bench_string(locked.netlist), locked.key});
    }
  }

  OpResult op(const OpContext& ctx, Trace& trace) override {
    const Instance& instance = instances_[ctx.index % instances_.size()];
    OpResult result;
    const Netlist locked = parse_traced(trace, instance.text);

    const std::string proof =
        tmp_dir_ + "/certify-" + std::to_string(ctx.index) + ".drat";
    TimedOracle oracle(*oracle_, trace.on());
    ril::attacks::SatAttackOptions options;
    options.jobs = 1;
    options.max_iterations = kDips;
    options.certify = true;
    options.proof_file = proof;
    options.record_solves = trace.on();
    options.cancel = ctx.cancel;
    const auto t0 = Clock::now();
    const SatAttackResult r =
        ril::attacks::run_sat_attack(locked, oracle, options);
    trace_attack(trace, r, trace.on() ? seconds_since(t0) : 0.0, oracle);
    trace.add("sat.proof_bytes", static_cast<double>(r.proof_bytes));
    dips_ += r.iterations;
    conflicts_ += r.conflicts;
    clauses_ += r.encoded_clauses;
    proof_bytes_ += r.proof_bytes;
    result.work = "dips=" + std::to_string(r.iterations) +
                  " conflicts=" + std::to_string(r.conflicts) +
                  " clauses=" + std::to_string(r.encoded_clauses) +
                  " proof_bytes=" + std::to_string(r.proof_bytes);

    bool certificate_ok = false;
    {
      Span span(trace, "sat.proof_check_s");
      if (!r.proof_path.empty()) {
        certificate_ok = ril::sat::check_derivations_file(r.proof_path).valid;
      }
      std::error_code ignored;
      std::filesystem::remove(proof, ignored);
    }
    bool parsed_ok;
    {
      Span span(trace, "check.sim_s");
      parsed_ok = simulation_matches(host_, locked, instance.key,
                                     derive_seed(seed_, kSimSalt, ctx.index));
    }
    if (r.status != SatAttackStatus::kIterationLimit ||
        r.iterations != options.max_iterations) {
      result.error = "attack status " + ril::attacks::to_string(r.status);
    } else if (r.proof_status != ril::attacks::ProofStatus::kOpen ||
               !r.models_verified) {
      result.error = "certificate " + ril::attacks::to_string(r.proof_status);
    } else if (!certificate_ok) {
      result.error = "offline re-check rejects the published certificate";
    } else if (!parsed_ok) {
      result.error = "parsed netlist does not match the host under its key";
    } else {
      result.ok = true;
    }
    return result;
  }

  void layers(const Trace& trace, const LoopResult& loop,
              std::map<std::string, double>& out) const override {
    op_layers(trace, loop,
              {"netlist.parse_s", "attacks.attack_s", "sat.proof_check_s",
               "check.sim_s"},
              out);
  }

  std::string work_totals() const override {
    return counters({{"dips", &dips_},
                     {"conflicts", &conflicts_},
                     {"encoded_clauses", &clauses_},
                     {"proof_bytes", &proof_bytes_}});
  }

 private:
  struct Instance {
    std::string text;
    std::vector<bool> key;
  };
  static constexpr std::size_t kInstances = 16;
  /// One DIP: the op is parse, encode, preprocess, the first miter solve
  /// and the certificate. On b20-profile hosts a second DIP's solve ranges
  /// from under a second to over a minute depending on the lock seed.
  static constexpr std::size_t kDips = 1;
  const std::uint64_t seed_;
  const std::string tmp_dir_;
  Netlist host_;
  std::unique_ptr<ril::attacks::Oracle> oracle_;
  std::vector<Instance> instances_;
  std::atomic<std::uint64_t> dips_{0}, conflicts_{0}, clauses_{0},
      proof_bytes_{0};
};

// ---------------------------------------------------------------------------
// serve-mix: closed-loop clients against an in-process `ril serve`.

class ServeMixWorkload : public Workload {
 public:
  ServeMixWorkload(std::uint64_t seed, std::string tmp_dir)
      : seed_(seed), tmp_dir_(std::move(tmp_dir)) {}
  ~ServeMixWorkload() override { teardown(); }

  unsigned clients() const override { return kClients; }

  void setup(Trace& trace) override {
    teardown();
    {
      Span span(trace, "benchgen.host_s");
      host_ = ril::benchgen::make_benchmark("c7552", 0.1);
    }
    {
      Span span(trace, "netlist.write_s");
      const std::string text = ril::netlist::write_bench_string(host_);
      host_bytes_ = text.size();
      host_json_ = json_escape(text);
    }
    clients_.assign(kClients, Client{});
    for (unsigned k = 0; k < kClients; ++k) {
      Client& client = clients_[k];
      client.rng = derive_seed(seed_, kClientSalt, k);
      for (std::size_t i = 0; i < kInstancesPerClient; ++i) {
        Netlist locked;
        {
          Span span(trace, "locking.lock_s");
          locked = ril::locking::lock_ril(
                       host_, kBlocks, block_config(),
                       derive_seed(seed_, kLockSalt, k * 1000 + i))
                       .locked.netlist;
        }
        Span span(trace, "netlist.write_s");
        const std::string text = ril::netlist::write_bench_string(locked);
        client.instances.push_back(
            {json_escape(text), text.size(),
             std::make_shared<Netlist>(std::move(locked))});
      }
    }
    ril::service::ServiceOptions options;
    options.workers = 2;
    options.solver_jobs = 1;
    options.proof_dir = tmp_dir_;
    service_ = std::make_unique<ril::service::AttackService>(options);
    server_ = std::make_unique<ril::service::HttpServer>(
        [svc = service_.get()](const ril::service::HttpRequest& request) {
          return svc->handle(request);
        });
    server_->start(0, 4);
  }

  void teardown() override {
    if (server_) server_->stop();
    server_.reset();
    service_.reset();
  }

  OpResult op(const OpContext& ctx, Trace& trace) override {
    Client& client = clients_[ctx.client];
    if (client.plan.empty()) plan_cycle(client);
    const Step step = client.plan.front();
    client.plan.erase(client.plan.begin());

    std::string body;
    std::string type;
    Instance* instance = nullptr;
    if (step == Step::kLock) {
      type = "lock";
      const std::uint64_t lock_seed =
          derive_seed(seed_, kLockSalt,
                      ctx.client * 1000 + 500 + client.locks++) &
          ((1ULL << 52) - 1);  // exact as a JSON number
      body = "{\"type\":\"lock\",\"scheme\":\"ril\",\"blocks\":" +
             std::to_string(kBlocks) + ",\"size\":" +
             std::to_string(block_config().size) +
             ",\"seed\":" + std::to_string(lock_seed) + timeout_field(ctx) +
             ",\"host\":\"" + host_json_ + "\"}";
    } else {
      instance = &client.instances[client.current];
      type = step == Step::kAttack ? "attack" : "verify";
      body = "{\"type\":\"" + type + "\"" + timeout_field(ctx) +
             ",\"locked\":\"" + instance->json + "\",\"activated\":\"" +
             host_json_ + "\"";
      if (step == Step::kVerify) body += ",\"key\":\"" + client.key + "\"";
      body += "}";
    }

    int status = 0;
    const auto t0 = Clock::now();
    const std::string response = ril::service::http_request(
        server_->port(), "POST", "/v1/jobs?wait=1", body, &status);
    OpResult result;
    result.latency = seconds_since(t0);

    const std::string job_status = json_string_field(response, "status");
    const double queue_s = json_number_field(response, "queue_seconds");
    const double run_s = json_number_field(response, "run_seconds");
    const std::string data = json_object_field(response, "data");
    const double overhead_s = result.latency - queue_s - run_s;
    trace.add("runtime.queue_wait_s", queue_s);
    trace.add("service.run_s", run_s);
    trace.add("service.http_overhead_s", overhead_s);
    trace.sample("runtime.queue_wait_s", queue_s);
    trace.sample("service.http_overhead_s", overhead_s);
    for (const char* field : {"locked", "activated", "host"}) {
      const std::string cache =
          json_string_field(data, std::string(field) + "_cache");
      if (cache.empty()) continue;
      const bool hit = cache == "hit";
      ++(hit ? netlist_hits_ : netlist_misses_);
      const double parse_s = json_number_field(
          data, std::string(field) + "_parse_seconds");
      trace.add("netlist.parse_s", parse_s);
      if (!hit) {
        trace.add("netlist.cold_parse_s", parse_s);
        trace.add("netlist.parse_bytes",
                  static_cast<double>(std::string(field) == "locked"
                                          ? instance->bytes
                                          : host_bytes_));
      }
    }
    if (status != 200 || job_status != "ok") {
      result.error = type + ": HTTP " + std::to_string(status) + " job " +
                     job_status + " " + json_string_field(response, "error");
      client.plan.clear();  // the cycle cannot continue
      return result;
    }

    if (step == Step::kLock) {
      const std::string key_text = json_string_field(data, "key");
      const std::string text = json_string_field(data, "locked");
      auto parsed =
          std::make_shared<Netlist>(ril::netlist::read_bench_string(text));
      const std::vector<bool> key = key_from_bits(key_text);
      result.work = "lock key_bits=" + std::to_string(key.size()) +
                    " content=" + ril::service::content_hash_hex(text);
      {
        Span span(trace, "check.sim_s");
        result.ok = simulation_matches(
            host_, *parsed, key,
            derive_seed(seed_, kSimSalt, ctx.client * 100000 + ctx.index));
      }
      if (!result.ok) result.error = "lock: returned key does not unlock";
      client.instances.push_back(
          {json_escape(text), text.size(), std::move(parsed)});
      client.current = client.instances.size() - 1;
      return result;
    }

    if (step == Step::kAttack) {
      const std::string skeleton = json_string_field(data, "skeleton_cache");
      ++(skeleton == "hit" ? skeleton_hits_ : skeleton_misses_);
      const std::string attack_status = json_string_field(data, "status");
      client.key = json_string_field(data, "key");
      const auto iterations = static_cast<std::uint64_t>(
          json_number_field(data, "iterations"));
      const auto conflicts = static_cast<std::uint64_t>(
          json_number_field(data, "conflicts"));
      dips_ += iterations;
      conflicts_ += conflicts;
      trace.add("attacks.attack_s",
                json_number_field(data, "attack_seconds"));
      trace.add("attacks.dips", static_cast<double>(iterations));
      trace.add("sat.conflicts", static_cast<double>(conflicts));
      result.work = "attack skeleton=" + skeleton +
                    " dips=" + std::to_string(iterations) +
                    " conflicts=" + std::to_string(conflicts) +
                    " key=" + client.key;
      bool simulated;
      {
        Span span(trace, "check.sim_s");
        simulated = simulation_matches(
            host_, *instance->parsed, key_from_bits(client.key),
            derive_seed(seed_, kSimSalt, ctx.client * 100000 + ctx.index));
      }
      if (attack_status != "key-found") {
        result.error = "attack status " + attack_status;
        client.plan.clear();
      } else if (!simulated) {
        result.error = "simulation rejects the recovered key";
      } else {
        result.ok = true;
      }
      return result;
    }

    const std::string verifier = json_string_field(data, "verifier_cache");
    const bool warm = verifier == "hit";
    ++(warm ? verifier_hits_ : verifier_misses_);
    trace.sample(warm ? "service.warm_verify_s" : "service.cold_verify_s",
                 result.latency);
    const auto conflicts = static_cast<std::uint64_t>(
        json_number_field(data, "conflicts"));
    conflicts_ += conflicts;
    trace.add("sat.conflicts", static_cast<double>(conflicts));
    result.work = "verify verifier=" + verifier +
                  " conflicts=" + std::to_string(conflicts);
    if (data.find("\"equivalent\":true") == std::string::npos) {
      result.error = "verify: service does not confirm the key";
    } else {
      result.ok = true;
    }
    return result;
  }

  void layers(const Trace& trace, const LoopResult& loop,
              std::map<std::string, double>& out) const override {
    op_layers(trace, loop,
              {"runtime.queue_wait_s", "service.run_s",
               "service.http_overhead_s"},
              out);
    out["runtime.queue_wait_s_p50"] =
        median(trace.samples("runtime.queue_wait_s"));
    out["runtime.queue_wait_s_tail"] =
        tail(trace.samples("runtime.queue_wait_s")).value;
    out["service.http_overhead_s_p50"] =
        median(trace.samples("service.http_overhead_s"));
    out["service.cold_verify_s_p50"] =
        median(trace.samples("service.cold_verify_s"));
    out["service.warm_verify_s_p50"] =
        median(trace.samples("service.warm_verify_s"));
    out["service.netlist_hit_ratio"] = ratio(netlist_hits_, netlist_misses_);
    out["service.skeleton_hit_ratio"] = ratio(skeleton_hits_, skeleton_misses_);
    out["service.verifier_hit_ratio"] = ratio(verifier_hits_, verifier_misses_);
  }

  std::string work_totals() const override {
    return counters({{"dips", &dips_},
                     {"conflicts", &conflicts_},
                     {"netlist_hits", &netlist_hits_},
                     {"netlist_misses", &netlist_misses_},
                     {"skeleton_hits", &skeleton_hits_},
                     {"skeleton_misses", &skeleton_misses_},
                     {"verifier_hits", &verifier_hits_},
                     {"verifier_misses", &verifier_misses_}});
  }

 private:
  enum class Step { kLock, kAttack, kVerify };
  struct Instance {
    std::string json;  ///< bench text, JSON-escaped
    std::size_t bytes = 0;  ///< unescaped bench text size
    std::shared_ptr<Netlist> parsed;
  };
  struct Client {
    std::vector<Instance> instances;
    std::vector<Step> plan;
    std::uint64_t rng = 0;
    std::size_t cycle = 0;
    std::size_t current = 0;
    std::size_t locks = 0;
    std::string key;
  };

  static constexpr unsigned kClients = 3;
  static constexpr std::size_t kInstancesPerClient = 2;
  static constexpr std::size_t kBlocks = 2;
  /// Every third cycle locks fresh content, attacks and verifies it, until
  /// the client has locked kFreshLocks instances; the other cycles attack
  /// and verify an instance the client already owns. The service caches
  /// never evict, so the cap keeps the cached content, and with it peak
  /// RSS, the same in every run whatever its throughput.
  static constexpr std::size_t kFreshEvery = 3;
  static constexpr std::size_t kFreshLocks = 8;

  static ril::core::RilBlockConfig block_config() {
    ril::core::RilBlockConfig config;
    config.size = 4;
    return config;
  }

  static std::string timeout_field(const OpContext& ctx) {
    return ",\"timeout\":" + std::to_string(ctx.guard_seconds);
  }

  static std::vector<bool> key_from_bits(const std::string& bits) {
    std::vector<bool> key;
    for (char c : bits) key.push_back(c == '1');
    return key;
  }

  static double ratio(const std::atomic<std::uint64_t>& hits,
                      const std::atomic<std::uint64_t>& misses) {
    const double lookups = static_cast<double>(hits.load() + misses.load());
    return lookups > 0 ? static_cast<double>(hits.load()) / lookups : 0;
  }

  void plan_cycle(Client& client) {
    const bool fresh = client.cycle++ % kFreshEvery == kFreshEvery - 1 &&
                       client.locks < kFreshLocks;
    if (fresh) {
      client.plan = {Step::kLock, Step::kAttack, Step::kVerify};
    } else {
      client.rng = mix(client.rng);
      client.current = client.rng % client.instances.size();
      client.plan = {Step::kAttack, Step::kVerify};
    }
  }

  const std::uint64_t seed_;
  const std::string tmp_dir_;
  Netlist host_;
  std::string host_json_;
  std::size_t host_bytes_ = 0;
  std::vector<Client> clients_;
  std::unique_ptr<ril::service::AttackService> service_;
  std::unique_ptr<ril::service::HttpServer> server_;
  std::atomic<std::uint64_t> dips_{0}, conflicts_{0};
  std::atomic<std::uint64_t> netlist_hits_{0}, netlist_misses_{0},
      skeleton_hits_{0}, skeleton_misses_{0}, verifier_hits_{0},
      verifier_misses_{0};
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& tmp_dir) {
  if (name == "break-ril") {
    return std::make_unique<BreakWorkload>(BreakWorkload::Scheme::kRil, seed);
  }
  if (name == "break-antisat") {
    return std::make_unique<BreakWorkload>(BreakWorkload::Scheme::kAntiSat,
                                           seed);
  }
  if (name == "certify-b20") {
    return std::make_unique<CertifyWorkload>(seed, tmp_dir);
  }
  if (name == "serve-mix") {
    return std::make_unique<ServeMixWorkload>(seed, tmp_dir);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
