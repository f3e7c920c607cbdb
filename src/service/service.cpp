#include "service/service.hpp"

#include <chrono>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "attacks/oracle.hpp"
#include "attacks/sat_attack.hpp"
#include "cnf/equivalence.hpp"
#include "locking/schemes.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/file_bytes.hpp"
#include "netlist/verilog_io.hpp"
#include "sat/drat_check.hpp"
#include "service/caches.hpp"

namespace ril::service {

using runtime::json_bool_field;
using runtime::json_escape;
using runtime::json_number_field;
using runtime::json_string_field;
using runtime::top_level_fields;

namespace {

std::string key_to_string(const std::vector<bool>& key) {
  std::string out;
  out.reserve(key.size());
  for (bool b : key) out += b ? '1' : '0';
  return out;
}

std::vector<bool> key_from_string(const std::string& text) {
  std::vector<bool> key;
  for (char c : text) {
    if (c == '0') key.push_back(false);
    else if (c == '1') key.push_back(true);
  }
  return key;
}

std::string fmt_seconds(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", seconds);
  return buffer;
}

double now_minus(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

HttpResponse json_response(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

HttpResponse error_response(int status, const std::string& message) {
  return json_response(status,
                       "{\"error\":\"" + json_escape(message) + "\"}");
}

}  // namespace

AttackService::AttackService(ServiceOptions options)
    : options_(options), queue_(options.workers == 0 ? 1 : options.workers) {
  if (!options_.journal_path.empty()) {
    replay_journal();
    journal_.open(options_.journal_path);
  }
}

AttackService::~AttackService() {
  // Cancel cooperatively, then wait for workers to finish winding down.
  // The wait is load-bearing: queue_ is destroyed *last* among the members
  // a job callback touches (it is declared first), so without it a still-
  // running job's run/done callbacks could fire against already-destroyed
  // jobs_/journal_.
  queue_.cancel_all();
  queue_.wait_idle();
}

bool AttackService::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  return shutdown_;
}

void AttackService::wait_shutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] { return shutdown_; });
}

std::string AttackService::stats_json() const {
  std::ostringstream out;
  out << "{\"jobs_in_flight\":" << queue_.in_flight()
      << ",\"workers\":" << queue_.workers()
      << ",\"journal_failures\":" << journal_.failures() << "}";
  return out.str();
}

std::string AttackService::job_json(const Job& job) const {
  std::string out = "{\"id\":\"" + json_escape(job.id) + "\",\"type\":\"" +
                    json_escape(job.type) + "\",\"status\":\"" +
                    json_escape(job.status) + "\"";
  if (!job.error.empty()) {
    out += ",\"error\":\"" + json_escape(job.error) + "\"";
  }
  out += ",\"queue_seconds\":" + fmt_seconds(job.queue_seconds);
  out += ",\"run_seconds\":" + fmt_seconds(job.run_seconds);
  if (!job.proof_path.empty()) {
    out += ",\"proof_path\":\"" + json_escape(job.proof_path) + "\"";
  }
  if (!job.payload.empty()) out += ",\"data\":{" + job.payload + "}";
  out += "}";
  return out;
}

void AttackService::journal_write(const Job& job) {
  if (journal_.is_open()) journal_.write_line(job_json(job));
}

void AttackService::replay_journal() {
  std::optional<netlist::FileBytes> bytes;
  try {
    bytes.emplace(options_.journal_path);
  } catch (const std::runtime_error&) {
    return;  // first boot: nothing to replay
  }
  const std::string_view text = bytes->view();
  std::uint64_t max_id = 0;
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  for (std::size_t begin = 0; begin < text.size();) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    const std::string line(text.substr(begin, end - begin));
    begin = end + 1;
    // Job fields come from the top level only: a job's "data" object may
    // carry fields of the same names (a check-proof job's "proof_path").
    const std::string top = top_level_fields(line);
    const std::string id = json_string_field(top, "id");
    if (id.empty()) continue;
    Job& job = jobs_[id];
    job.id = id;
    job.type = json_string_field(top, "type");
    job.status = json_string_field(top, "status");
    job.error = json_string_field(top, "error");
    job.queue_seconds = json_number_field(top, "queue_seconds");
    job.run_seconds = json_number_field(top, "run_seconds");
    job.proof_path = json_string_field(top, "proof_path");
    job.payload = runtime::json_object_field(line, "data");
    job.replayed = true;
    // "job-<n>" -> n, to keep ids unique across restarts.
    const std::size_t dash = id.rfind('-');
    if (dash != std::string::npos) {
      const std::uint64_t n =
          std::strtoull(id.c_str() + dash + 1, nullptr, 10);
      if (n > max_id) max_id = n;
    }
  }
  // A job that reached the journal as "queued"/"running" but never got a
  // terminal line died with the process: surface it, don't silently drop.
  for (auto& [id, job] : jobs_) {
    if (job.status == "queued" || job.status == "running") {
      job.status = "lost";
      job.error = "process exited before the job finished";
    }
  }
  next_job_ = max_id + 1;
}

HttpResponse AttackService::handle(const HttpRequest& request) {
  const auto t0 = std::chrono::steady_clock::now();
  HttpResponse response;
  if (request.target == "/v1/health" && request.method == "GET") {
    response = json_response(
        200, "{\"ok\":true,\"service\":\"ril\",\"api\":\"v1\"}");
  } else if (request.target == "/v1/stats" && request.method == "GET") {
    response = json_response(200, stats_json());
  } else if (request.target == "/v1/jobs" && request.method == "POST") {
    response = submit_job(request);
  } else if (request.target == "/v1/shutdown" && request.method == "POST") {
    {
      std::lock_guard<std::mutex> lock(shutdown_mutex_);
      shutdown_ = true;
    }
    shutdown_cv_.notify_all();
    queue_.cancel_all();
    response = json_response(200, "{\"ok\":true,\"stopping\":true}");
  } else if (request.target.rfind("/v1/jobs/", 0) == 0) {
    std::string id = request.target.substr(9);
    const bool want_proof = id.size() > 6 &&
                            id.compare(id.size() - 6, 6, "/proof") == 0;
    if (want_proof) id.resize(id.size() - 6);
    if (request.method != "GET") {
      response = error_response(405, "use GET for job retrieval");
    } else {
      response = want_proof ? job_proof(id) : job_status(id);
    }
  } else {
    response = error_response(404, "no such endpoint: " + request.target);
  }
  // Per-request latency, appended to every JSON body (the closing '}' is
  // guaranteed by construction above).
  if (response.content_type == "application/json" &&
      !response.body.empty() && response.body.back() == '}') {
    response.body.back() = ',';
    response.body +=
        "\"request_seconds\":" + fmt_seconds(now_minus(t0)) + "}";
  }
  return response;
}

HttpResponse AttackService::submit_job(const HttpRequest& request) {
  const std::string& body = request.body;
  const std::string type = json_string_field(body, "type");
  if (type != "attack" && type != "verify" && type != "lock" &&
      type != "check-proof") {
    return error_response(
        400, "job type must be attack|verify|lock|check-proof");
  }
  double timeout = json_number_field(body, "timeout",
                                     options_.default_timeout_seconds);
  if (timeout < 0) timeout = 0;

  std::string id;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    id = "job-" + std::to_string(next_job_++);
    Job& job = jobs_[id];
    job.id = id;
    job.type = type;
    job.status = "queued";
    journal_write(job);
  }

  // The worker body: dispatch on type, return the payload JSON fields.
  auto run = [this, type, body, id](runtime::JobContext& ctx) {
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      jobs_[id].status = "running";
    }
    std::string proof_path;
    std::string payload;
    if (type == "attack") payload = run_attack(body, id, ctx, &proof_path);
    else if (type == "verify") payload = run_verify(body, ctx);
    else if (type == "lock") payload = run_lock(body);
    else payload = run_check_proof(body);
    if (!proof_path.empty()) {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      jobs_[id].proof_path = proof_path;
    }
    return payload;
  };
  auto done = [this, id](runtime::JobRecord&& record) {
    Job snapshot;
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      Job& job = jobs_[id];
      job.status = record.status == "ok" ? "ok" : "error";
      job.error = record.error;
      job.payload = std::move(record.payload);
      job.queue_seconds = record.queue_seconds;
      job.run_seconds = record.run_seconds;
      snapshot = job;
    }
    journal_write(snapshot);
    jobs_cv_.notify_all();
  };
  queue_.submit(id, timeout, std::move(run), std::move(done));

  if (request.query_param("wait") == "1") {
    std::unique_lock<std::mutex> lock(jobs_mutex_);
    jobs_cv_.wait(lock, [&] {
      const auto it = jobs_.find(id);
      return it != jobs_.end() && it->second.status != "queued" &&
             it->second.status != "running";
    });
    return json_response(200, job_json(jobs_.at(id)));
  }
  return json_response(202, "{\"id\":\"" + id + "\",\"status\":\"queued\"}");
}

HttpResponse AttackService::job_status(const std::string& id) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return error_response(404, "no such job: " + id);
  }
  return json_response(200, job_json(it->second));
}

HttpResponse AttackService::job_proof(const std::string& id) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return error_response(404, "no such job: " + id);
    path = it->second.proof_path;
  }
  if (path.empty()) {
    return error_response(404, "job " + id + " has no certificate");
  }
  HttpResponse response;
  response.content_type = "application/octet-stream";
  try {
    response.body = netlist::FileBytes(path).view();
  } catch (const std::runtime_error&) {
    return error_response(404, "certificate file missing: " + path);
  }
  return response;
}

netlist::Netlist AttackService::resolve_netlist(const std::string& body,
                                                const std::string& field,
                                                std::string& telemetry) {
  std::string text = json_string_field(body, field);
  bool verilog = false;
  if (text.empty()) {
    const std::string path = json_string_field(body, field + "_path");
    if (path.empty()) {
      throw std::runtime_error("missing \"" + field + "\" or \"" + field +
                               "_path\"");
    }
    text = netlist::FileBytes(path).view();
    verilog = path.size() > 2 && path.compare(path.size() - 2, 2, ".v") == 0;
  } else {
    verilog = text.find("module ") != std::string::npos;
  }
  const auto t0 = std::chrono::steady_clock::now();
  // The parse format is part of the content's identity: identical bytes
  // read as bench and as Verilog are different netlists.
  const std::string hex = (verilog ? "v:" : "b:") + content_hash_hex(text);
  netlist::Netlist parsed = verilog ? netlist::read_verilog_string(text)
                                    : netlist::read_bench_string(text);
  if (parsed.node_count() == 0 || parsed.outputs().empty()) {
    throw std::runtime_error(field +
                             ": no usable netlist parsed (corrupt input?)");
  }
  telemetry += ",\"" + field + "_hash\":\"" + hex + "\",\"" + field +
               "_parse_seconds\":" + fmt_seconds(now_minus(t0));
  return parsed;
}

netlist::Netlist AttackService::resolve_activated(const std::string& body,
                                                  std::string& telemetry) {
  netlist::Netlist activated = resolve_netlist(body, "activated", telemetry);
  if (!activated.key_inputs().empty()) {
    throw std::runtime_error(
        "activated netlist must not have key inputs (unlock it first)");
  }
  return activated;
}

std::string AttackService::run_attack(const std::string& body,
                                      const std::string& id,
                                      runtime::JobContext& ctx,
                                      std::string* proof_path) {
  std::string telemetry;
  const netlist::Netlist locked = resolve_netlist(body, "locked", telemetry);
  const netlist::Netlist activated = resolve_activated(body, telemetry);
  attacks::Oracle oracle(activated, {});

  attacks::SatAttackOptions options;
  options.time_limit_seconds = ctx.timeout_seconds();
  options.max_iterations = static_cast<std::size_t>(
      json_number_field(body, "max_iterations", 0));
  options.jobs = static_cast<unsigned>(
      json_number_field(body, "jobs", options_.solver_jobs));
  if (options.jobs == 0) options.jobs = 1;
  options.cancel = &ctx.cancel_flag();
  options.certify = json_bool_field(body, "certify");
  if (options.certify) {
    // One certificate file per job id, streamed while the attack runs.
    const std::string name = json_string_field(body, "proof_name");
    *proof_path =
        options_.proof_dir + "/" + (name.empty() ? id : name) + ".drat";
    options.proof_file = *proof_path;
  }

  const auto result = attacks::run_sat_attack(locked, oracle, options);
  if (result.proof_path.empty()) *proof_path = "";  // nothing published

  std::string payload = "\"attack\":\"sat\",\"status\":\"" +
                        to_string(result.status) + "\"";
  if (result.status == attacks::SatAttackStatus::kKeyFound) {
    payload += ",\"key\":\"" + key_to_string(result.key) + "\"";
  }
  payload += ",\"iterations\":" + std::to_string(result.iterations);
  payload += ",\"conflicts\":" + std::to_string(result.conflicts);
  payload += ",\"attack_seconds\":" + fmt_seconds(result.seconds);
  if (result.proof_status != attacks::ProofStatus::kNotRequested) {
    payload += ",\"proof\":\"" + to_string(result.proof_status) + "\"";
    payload += ",\"proof_steps\":" + std::to_string(result.proof_steps);
    payload += ",\"proof_bytes\":" + std::to_string(result.proof_bytes);
  }
  payload += telemetry;
  return payload;
}

std::string AttackService::run_verify(const std::string& body,
                                      runtime::JobContext& ctx) {
  std::string telemetry;
  const netlist::Netlist locked = resolve_netlist(body, "locked", telemetry);
  const netlist::Netlist activated = resolve_activated(body, telemetry);
  const std::vector<bool> key =
      key_from_string(json_string_field(body, "key"));

  // The same structural CEC every other key check runs, under the job's
  // deadline and cancel flag. A key-width mismatch throws: a job error.
  const auto t0 = std::chrono::steady_clock::now();
  const cnf::EquivalenceResult result = cnf::check_equivalence(
      locked, activated, key, {},
      {.time_limit_seconds = ctx.timeout_seconds(),
       .cancel = &ctx.cancel_flag()});
  const double seconds = now_minus(t0);

  std::string payload = "\"status\":\"";
  payload += result.status == sat::Result::kUnknown ? "unknown"
             : result.equivalent()                  ? "equivalent"
                                                    : "different";
  payload += "\",\"equivalent\":";
  payload += result.equivalent() ? "true" : "false";
  payload += ",\"solve_seconds\":" + fmt_seconds(seconds);
  payload += telemetry;
  return payload;
}

std::string AttackService::run_lock(const std::string& body) {
  std::string telemetry;
  const netlist::Netlist host = resolve_netlist(body, "host", telemetry);
  const std::string scheme = json_string_field(body, "scheme");
  auto number = [&](const char* field, double fallback) {
    return static_cast<std::size_t>(json_number_field(body, field, fallback));
  };
  const auto lock = locking::lock_by_name(
      scheme, host,
      {.bits = number("bits", 32),
       .size = number("size", 8),
       .blocks = number("blocks", 1),
       .seed = static_cast<std::uint64_t>(json_number_field(body, "seed", 1))});
  if (!lock) throw std::runtime_error("unknown lock scheme: " + scheme);
  const std::vector<bool>& key = lock->locked.key;
  std::string payload = "\"scheme\":\"" + json_escape(scheme) + "\"";
  payload += ",\"key\":\"" + key_to_string(key) + "\"";
  payload += ",\"key_bits\":" + std::to_string(key.size());
  payload += ",\"locked\":\"" +
             json_escape(netlist::write_bench_string(lock->locked.netlist)) +
             "\"";
  payload += telemetry;
  return payload;
}

std::string AttackService::run_check_proof(const std::string& body) {
  std::string path = json_string_field(body, "proof_path");
  if (path.empty()) {
    // "job":"job-3" checks that job's published certificate.
    const std::string job_id = json_string_field(body, "job");
    if (!job_id.empty()) {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      const auto it = jobs_.find(job_id);
      if (it != jobs_.end()) path = it->second.proof_path;
    }
  }
  if (path.empty()) {
    throw std::runtime_error("check-proof needs \"proof_path\" or \"job\"");
  }
  const bool open = json_bool_field(body, "open");
  const sat::DratCheckResult result =
      open ? sat::check_derivations_file(path)
           : sat::check_refutation_file(path);
  std::string payload = "\"proof_path\":\"" + json_escape(path) + "\"";
  payload += ",\"open\":";
  payload += open ? "true" : "false";
  payload += ",\"valid\":";
  payload += result.valid ? "true" : "false";
  payload += ",\"malformed\":";
  payload += result.malformed ? "true" : "false";
  if (!result.error.empty()) {
    payload += ",\"proof_error\":\"" + json_escape(result.error) + "\"";
  }
  payload += ",\"derivations\":" + std::to_string(result.stats.derivations);
  payload += ",\"originals\":" + std::to_string(result.stats.originals);
  return payload;
}

}  // namespace ril::service
