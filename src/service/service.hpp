// `ril serve` -- the attack-as-a-service daemon.
//
// AttackService turns the batch tool suite into a long-lived process: a
// client posts lock / attack / verify / check-proof jobs as JSON over the
// minimal HTTP layer (src/service/http.hpp), the jobs run on the same
// runtime::JobQueue worker pool the campaign runner uses (per-job
// deadlines, cooperative cancellation, exception isolation), and results
// are retrieved by job id -- including the streamed DRAT certificate of a
// certified attack. Two caches persist across requests (src/service/
// caches.hpp): parsed netlists and miter CNF skeletons, both keyed by
// content hash. A verify job checks its key with the structural CEC
// (cnf::check_equivalence), as every other key check in the project does,
// and keeps no state. Every terminal job is appended to
// a kill-safe JSONL journal (runtime::JsonlWriter); on restart the journal
// is replayed so finished jobs stay queryable and jobs that were queued
// when the process died surface as status "lost" instead of vanishing.
//
// Endpoints (all JSON unless noted):
//   GET  /v1/health                liveness + version info
//   GET  /v1/stats                 cache hit/miss counters, queue state
//   POST /v1/jobs[?wait=1]        submit a job; wait=1 blocks for the result
//   GET  /v1/jobs/<id>             job status / result
//   GET  /v1/jobs/<id>/proof       the job's DRAT certificate (octet-stream)
//   POST /v1/shutdown              graceful stop (drains nothing: running
//                                  jobs are cancelled cooperatively)
//
// Job request body (flat JSON object):
//   {"type":"attack"|"verify"|"lock"|"check-proof", ...}
//   Netlists arrive inline ("locked":"<bench text>") or by path
//   ("locked_path":"f.bench"); `*_path` keeps CI scripts free of JSON
//   escaping. Inline text is bench unless it contains "module " (Verilog).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "runtime/campaign.hpp"
#include "service/caches.hpp"
#include "service/http.hpp"

namespace ril::service {

struct ServiceOptions {
  /// Concurrent jobs (JobQueue width).
  unsigned workers = 2;
  /// Portfolio width inside each attack's solves.
  unsigned solver_jobs = 1;
  /// Kill-safe JSONL journal; empty disables journaling.
  std::string journal_path;
  /// Directory for streamed DRAT certificates (default: cwd).
  std::string proof_dir = ".";
  /// Default per-job wall-clock deadline in seconds (0 = none); a job's
  /// own "timeout" field overrides it.
  double default_timeout_seconds = 0;
};

class AttackService {
 public:
  explicit AttackService(ServiceOptions options);
  ~AttackService();

  /// Routes one request. Exposed directly (not only through HttpServer) so
  /// tests can drive the service in-process.
  HttpResponse handle(const HttpRequest& request);

  /// True once POST /v1/shutdown was accepted.
  bool shutdown_requested() const;
  /// Blocks until shutdown is requested.
  void wait_shutdown();

  /// Cache/queue counters as a JSON object body (the /v1/stats payload).
  std::string stats_json() const;

 private:
  struct Job {
    std::string id;
    std::string type;
    std::string status;  ///< queued|running|ok|error|lost
    std::string error;
    std::string payload;  ///< JSON fields of the result ("data" object)
    double queue_seconds = 0;
    double run_seconds = 0;
    std::string proof_path;  ///< on-disk DRAT certificate, when produced
    bool replayed = false;   ///< restored from the journal, not run now
  };

  HttpResponse submit_job(const HttpRequest& request);
  HttpResponse job_status(const std::string& id);
  HttpResponse job_proof(const std::string& id);

  /// Runs one job body on a worker; returns the payload JSON fields.
  std::string run_lock(const std::string& body);
  std::string run_attack(const std::string& body, const std::string& id,
                         runtime::JobContext& ctx, std::string* proof_path);
  std::string run_verify(const std::string& body, runtime::JobContext& ctx);
  std::string run_check_proof(const std::string& body);

  /// Resolves a netlist argument: `<field>` inline or `<field>_path` on
  /// disk; parses through the netlist cache. Appends per-request cache and
  /// latency telemetry to `*telemetry` (JSON fields, comma-prefixed).
  std::shared_ptr<const netlist::Netlist> resolve_netlist(
      const std::string& body, const std::string& field,
      std::string* hex_out, std::string* telemetry);
  /// resolve_netlist for "activated", which must have no key inputs.
  std::shared_ptr<const netlist::Netlist> resolve_activated(
      const std::string& body, std::string* telemetry);

  void replay_journal();
  std::string job_json(const Job& job) const;
  void journal_write(const Job& job);

  ServiceOptions options_;
  runtime::JobQueue queue_;
  runtime::JsonlWriter journal_;

  NetlistCache netlists_;
  SkeletonCache skeletons_;

  mutable std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::map<std::string, Job> jobs_;
  std::uint64_t next_job_ = 1;

  mutable std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_ = false;
};

}  // namespace ril::service
