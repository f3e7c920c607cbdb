// Service-layer tests for the `ril serve` daemon: repeated and concurrent
// attacks, the netlist format rule, deadlines with open certificates,
// journal replay across restarts, and a real HTTP round trip. Most tests
// drive AttackService::handle() directly (in-process, no sockets); the HTTP
// test covers the socket layer once.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "benchgen/random_dag.hpp"
#include "locking/schemes.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/verilog_io.hpp"
#include "runtime/campaign.hpp"
#include "service/caches.hpp"
#include "service/http.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace ril::service {
namespace {

using runtime::json_escape;
using runtime::json_number_field;
using runtime::json_object_field;
using runtime::json_string_field;

netlist::Netlist small_host(std::uint64_t seed = 1) {
  benchgen::RandomDagParams params;
  params.num_inputs = 12;
  params.num_outputs = 6;
  params.num_gates = 120;
  params.seed = seed;
  return benchgen::generate_random_dag(params);
}

HttpRequest post_job(const std::string& body, bool wait = true) {
  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/jobs";
  if (wait) request.query = "wait=1";
  request.body = body;
  return request;
}

HttpRequest get(const std::string& target) {
  HttpRequest request;
  request.method = "GET";
  request.target = target;
  return request;
}

std::string attack_body(const std::string& locked_text,
                        const std::string& activated_text,
                        const std::string& extra = "") {
  return "{\"type\":\"attack\",\"locked\":\"" + json_escape(locked_text) +
         "\",\"activated\":\"" + json_escape(activated_text) + "\"" + extra +
         "}";
}

TEST(ContentHash, StableAndCollisionFreeOnEdits) {
  const std::string a = "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n";
  EXPECT_EQ(content_hash_hex(a), content_hash_hex(a));
  EXPECT_EQ(content_hash_hex(a).size(), 16u);
  std::string b = a;
  b[0] = 'i';
  EXPECT_NE(content_hash_hex(a), content_hash_hex(b));
}

TEST(Service, NetlistFormatFollowsContentOrPathSuffix) {
  // Inline text is Verilog iff it contains "module "; a `_path` is Verilog
  // iff it ends in ".v". The format is part of the reported content hash.
  const netlist::Netlist host = small_host(7);
  const std::string bench_text = netlist::write_bench_string(host);
  const std::string verilog_text = netlist::write_verilog_string(host);
  ServiceOptions options;
  options.workers = 1;
  AttackService service(options);
  auto lock = [&](const std::string& host_field) {
    return service
        .handle(post_job("{\"type\":\"lock\",\"scheme\":\"xor\","
                         "\"bits\":4," + host_field + "}"))
        .body;
  };
  auto host_hash = [](const std::string& response) {
    return json_string_field("{" + json_object_field(response, "data") + "}",
                             "host_hash");
  };

  const std::string inline_bench =
      lock("\"host\":\"" + json_escape(bench_text) + "\"");
  EXPECT_EQ(json_string_field(inline_bench, "status"), "ok") << inline_bench;
  EXPECT_EQ(host_hash(inline_bench), "b:" + content_hash_hex(bench_text));
  const std::string inline_verilog =
      lock("\"host\":\"" + json_escape(verilog_text) + "\"");
  EXPECT_EQ(json_string_field(inline_verilog, "status"), "ok")
      << inline_verilog;
  EXPECT_EQ(host_hash(inline_verilog), "v:" + content_hash_hex(verilog_text));

  // The same bench bytes behind a ".v" path go to the Verilog reader,
  // which finds no module in them: a job error, not a silent bench parse.
  const std::string path = "service_format_test.v";
  {
    std::ofstream out(path);
    out << bench_text;
  }
  const std::string by_path = lock("\"host_path\":\"" + path + "\"");
  EXPECT_EQ(json_string_field(by_path, "status"), "error") << by_path;
  {
    std::ofstream out(path);
    out << verilog_text;
  }
  const std::string verilog_path = lock("\"host_path\":\"" + path + "\"");
  EXPECT_EQ(json_string_field(verilog_path, "status"), "ok") << verilog_path;
  EXPECT_EQ(host_hash(verilog_path), "v:" + content_hash_hex(verilog_text));
  std::remove(path.c_str());
}

TEST(Service, DestructionWithInFlightJobShutsDownCleanly) {
  // Regression: ~AttackService only raised the cancel flags and did not
  // wait for workers, so a still-running job's callbacks fired against
  // already-destroyed members (jobs_, journal_, caches). The destructor
  // now cancels *and* drains; this must come back without crashing.
  const netlist::Netlist host = small_host(33);
  const auto locked = locking::lock_xor(host, 16, 9);
  const std::string body =
      attack_body(netlist::write_bench_string(locked.netlist),
                  netlist::write_bench_string(host));
  for (int round = 0; round < 5; ++round) {
    ServiceOptions options;
    options.workers = 2;
    AttackService service(options);
    // Async submit (no wait=1): the job is still running when the service
    // goes out of scope at the end of this iteration.
    const auto response = service.handle(post_job(body, /*wait=*/false));
    EXPECT_EQ(response.status, 202) << response.body;
  }
}

// The name predates the removal of the cross-request caches; it is kept so
// the test's id stays stable.
TEST(Service, ConcurrentAttacksShareCachesAndAgree) {
  const netlist::Netlist host = small_host(21);
  const auto locked = locking::lock_xor(host, 8, 5);
  const std::string locked_text =
      netlist::write_bench_string(locked.netlist);
  const std::string activated_text = netlist::write_bench_string(host);

  ServiceOptions options;
  options.workers = 2;
  AttackService service(options);

  // Four concurrent wait=1 submissions of the *same* attack: every job
  // must come back with the same recovered key and the same search.
  const std::string body = attack_body(locked_text, activated_text);
  std::vector<std::string> responses(4);
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      responses[static_cast<std::size_t>(i)] =
          service.handle(post_job(body)).body;
    });
  }
  for (auto& t : clients) t.join();

  std::string first_data;
  for (const std::string& response : responses) {
    EXPECT_EQ(json_string_field(response, "status"), "ok") << response;
    const std::string data = "{" + json_object_field(response, "data") + "}";
    EXPECT_EQ(json_string_field(data, "status"), "key-found") << response;
    EXPECT_FALSE(json_string_field(data, "key").empty());
    if (first_data.empty()) first_data = data;
    EXPECT_EQ(json_string_field(data, "key"),
              json_string_field(first_data, "key"));
    EXPECT_EQ(json_number_field(data, "iterations"),
              json_number_field(first_data, "iterations"));
    EXPECT_EQ(json_number_field(data, "conflicts"),
              json_number_field(first_data, "conflicts"));
  }

  // No cross-request cache is kept or reported.
  const std::string stats = service.handle(get("/v1/stats")).body;
  EXPECT_EQ(stats.find("cache"), std::string::npos) << stats;
  EXPECT_EQ(first_data.find("_cache"), std::string::npos) << first_data;
}

// Named, like the test above, for the caches it once checked.
TEST(Service, DifferentContentMissesTheCaches) {
  const netlist::Netlist host_a = small_host(31);
  const netlist::Netlist host_b = small_host(32);
  const auto locked_a = locking::lock_xor(host_a, 6, 3);
  const auto locked_b = locking::lock_xor(host_b, 6, 3);

  ServiceOptions options;
  options.workers = 1;
  AttackService service(options);
  auto attack = [&](const locking::LockedCircuit& locked,
                    const netlist::Netlist& host) {
    const std::string response = service
        .handle(post_job(attack_body(
            netlist::write_bench_string(locked.netlist),
            netlist::write_bench_string(host))))
        .body;
    EXPECT_EQ(json_string_field(response, "status"), "ok") << response;
    return "{" + json_object_field(response, "data") + "}";
  };

  const std::string data_a = attack(locked_a, host_a);
  const std::string data_b = attack(locked_b, host_b);
  // Different content: different hashes, and each attack recovers its
  // own lock's key.
  EXPECT_NE(json_string_field(data_a, "locked_hash"),
            json_string_field(data_b, "locked_hash"));
  EXPECT_EQ(json_string_field(data_a, "status"), "key-found") << data_a;
  EXPECT_EQ(json_string_field(data_b, "status"), "key-found") << data_b;

  // Same content again: the same hash, and the same iterations,
  // conflicts and key as the first request.
  const std::string data_c = attack(locked_a, host_a);
  EXPECT_EQ(json_string_field(data_c, "locked_hash"),
            json_string_field(data_a, "locked_hash"));
  EXPECT_EQ(json_string_field(data_c, "key"),
            json_string_field(data_a, "key"));
  EXPECT_EQ(json_number_field(data_c, "iterations"),
            json_number_field(data_a, "iterations"));
  EXPECT_EQ(json_number_field(data_c, "conflicts"),
            json_number_field(data_a, "conflicts"));
}

TEST(Service, DeadlineCancelledAttackPublishesOpenCertificate) {
  // SARLock forces ~2^16 DIP iterations; the 0.5 s deadline fires first.
  // The certified, streamed run must still publish an *open* certificate
  // and the check-proof endpoint must validate it.
  benchgen::RandomDagParams params;
  params.num_inputs = 18;
  params.num_outputs = 6;
  params.num_gates = 120;
  params.seed = 41;
  const netlist::Netlist host = benchgen::generate_random_dag(params);
  const auto locked = locking::lock_sarlock(host, 16, 9);

  ServiceOptions options;
  options.workers = 1;
  options.proof_dir = ".";
  AttackService service(options);

  const std::string response = service
      .handle(post_job(attack_body(
          netlist::write_bench_string(locked.netlist),
          netlist::write_bench_string(host),
          ",\"certify\":true,\"timeout\":0.5,"
          "\"proof_name\":\"service_deadline_test\"")))
      .body;
  EXPECT_EQ(json_string_field(response, "status"), "ok") << response;
  const std::string data = "{" + json_object_field(response, "data") + "}";
  EXPECT_EQ(json_string_field(data, "status"), "timeout") << response;
  EXPECT_EQ(json_string_field(data, "proof"), "open") << response;
  const std::string proof_path = json_string_field(response, "proof_path");
  ASSERT_FALSE(proof_path.empty()) << response;

  // The certificate is retrievable over the API...
  const std::string id = json_string_field(response, "id");
  const HttpResponse proof =
      service.handle(get("/v1/jobs/" + id + "/proof"));
  EXPECT_EQ(proof.status, 200);
  EXPECT_GT(proof.body.size(), 0u);

  // ...and validates as an open certificate through check-proof.
  const std::string check = service
      .handle(post_job("{\"type\":\"check-proof\",\"job\":\"" + id +
                       "\",\"open\":true}"))
      .body;
  const std::string check_data =
      "{" + json_object_field(check, "data") + "}";
  EXPECT_EQ(json_string_field(check_data, "valid"), "") << check;  // bool
  EXPECT_NE(check.find("\"valid\":true"), std::string::npos) << check;
  std::remove(proof_path.c_str());
}

std::string verify_body(const std::string& locked_text,
                        const std::string& activated_text,
                        const std::string& key) {
  return "{\"type\":\"verify\",\"locked\":\"" + json_escape(locked_text) +
         "\",\"activated\":\"" + json_escape(activated_text) +
         "\",\"key\":\"" + key + "\"}";
}

TEST(Service, VerifyChecksKeysThroughTheStructuralCec) {
  const netlist::Netlist host = small_host(51);
  const auto locked = locking::lock_xor(host, 8, 13);
  const std::string locked_text =
      netlist::write_bench_string(locked.netlist);
  const std::string activated_text = netlist::write_bench_string(host);

  ServiceOptions options;
  options.workers = 2;
  AttackService service(options);

  std::string correct_key;
  for (bool b : locked.key) correct_key += b ? '1' : '0';
  std::string wrong_key = correct_key;
  wrong_key[0] = wrong_key[0] == '0' ? '1' : '0';
  auto verify = [&](const std::string& key) {
    const std::string response =
        service.handle(post_job(verify_body(locked_text, activated_text, key)))
            .body;
    EXPECT_EQ(json_string_field(response, "status"), "ok") << response;
    return "{" + json_object_field(response, "data") + "}";
  };

  const std::string right = verify(correct_key);
  EXPECT_EQ(json_string_field(right, "status"), "equivalent") << right;
  EXPECT_NE(right.find("\"equivalent\":true"), std::string::npos) << right;
  const std::string wrong = verify(wrong_key);
  EXPECT_EQ(json_string_field(wrong, "status"), "different") << wrong;
  EXPECT_NE(wrong.find("\"equivalent\":false"), std::string::npos) << wrong;

  // A key of the wrong width is a job error, not a crash.
  const std::string short_key = service
      .handle(post_job(verify_body(locked_text, activated_text,
                                   correct_key.substr(1))))
      .body;
  EXPECT_EQ(json_string_field(short_key, "status"), "error") << short_key;
  EXPECT_NE(json_string_field(short_key, "error").find("key width"),
            std::string::npos)
      << short_key;

  // Two verifies of one pair, concurrently on the two workers, agree.
  std::vector<std::string> concurrent(2);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < concurrent.size(); ++i) {
    clients.emplace_back([&, i] { concurrent[i] = verify(correct_key); });
  }
  for (auto& t : clients) t.join();
  for (const std::string& data : concurrent) {
    EXPECT_EQ(json_string_field(data, "status"), "equivalent") << data;
  }

  // No verifier state is kept between requests.
  const std::string stats = service.handle(get("/v1/stats")).body;
  EXPECT_EQ(stats.find("verifier"), std::string::npos) << stats;
}

TEST(Service, JournalReplaySurvivesRestart) {
  const std::string journal = "service_journal_test.jsonl";
  std::remove(journal.c_str());
  const netlist::Netlist host = small_host(61);
  const std::string host_text = netlist::write_bench_string(host);

  std::string finished_id;
  {
    ServiceOptions options;
    options.workers = 1;
    options.journal_path = journal;
    AttackService service(options);
    const std::string response = service
        .handle(post_job("{\"type\":\"lock\",\"scheme\":\"xor\",\"bits\":4,"
                         "\"host\":\"" + json_escape(host_text) + "\"}"))
        .body;
    finished_id = json_string_field(response, "id");
    ASSERT_EQ(json_string_field(response, "status"), "ok") << response;
  }  // service killed (destructor) -- the journal is all that survives

  // Simulate a job that was queued when the process died: a "queued" line
  // with no terminal record.
  {
    std::ofstream out(journal, std::ios::app);
    out << "{\"id\":\"job-7\",\"type\":\"attack\",\"status\":\"queued\"}\n";
  }

  ServiceOptions options;
  options.workers = 1;
  options.journal_path = journal;
  AttackService service(options);

  // The finished job is still queryable with its payload...
  const std::string replayed =
      service.handle(get("/v1/jobs/" + finished_id)).body;
  EXPECT_EQ(json_string_field(replayed, "status"), "ok") << replayed;
  const std::string data = "{" + json_object_field(replayed, "data") + "}";
  EXPECT_EQ(json_string_field(data, "key").size(), 4u) << replayed;

  // ...the interrupted one surfaces as lost instead of vanishing...
  const std::string lost = service.handle(get("/v1/jobs/job-7")).body;
  EXPECT_EQ(json_string_field(lost, "status"), "lost") << lost;

  // ...and new ids continue beyond everything seen in the journal.
  const std::string fresh = service
      .handle(post_job("{\"type\":\"lock\",\"scheme\":\"xor\",\"bits\":4,"
                       "\"host\":\"" + json_escape(host_text) + "\"}"))
      .body;
  const std::string fresh_id = json_string_field(fresh, "id");
  EXPECT_EQ(fresh_id, "job-8") << fresh;
  std::remove(journal.c_str());
}

TEST(Service, JournalReplayReadsJobFieldsFromTheTopLevel) {
  // Regression: replay looked fields up anywhere in a journal line, so a
  // check-proof job took the "proof_path" nested in its own "data" object
  // as its certificate and, after a restart, served another job's file.
  const std::string journal = "service_replay_fields_test.jsonl";
  std::remove(journal.c_str());
  const netlist::Netlist host = small_host(63);
  const auto locked = locking::lock_xor(host, 6, 11);

  ServiceOptions options;
  options.workers = 1;
  options.journal_path = journal;
  std::string attack_id;
  std::string check_id;
  std::string proof_path;
  {
    AttackService service(options);
    const std::string attack = service
        .handle(post_job(attack_body(
            netlist::write_bench_string(locked.netlist),
            netlist::write_bench_string(host),
            ",\"certify\":true,\"proof_name\":\"service_replay_test\"")))
        .body;
    attack_id = json_string_field(attack, "id");
    proof_path = json_string_field(attack, "proof_path");
    ASSERT_FALSE(proof_path.empty()) << attack;
    const std::string check = service
        .handle(post_job("{\"type\":\"check-proof\",\"job\":\"" +
                         attack_id + "\"}"))
        .body;
    check_id = json_string_field(check, "id");
    EXPECT_NE(check.find("\"valid\":true"), std::string::npos) << check;
    EXPECT_EQ(service.handle(get("/v1/jobs/" + check_id + "/proof")).status,
              404);
  }

  AttackService service(options);
  EXPECT_EQ(service.handle(get("/v1/jobs/" + check_id + "/proof")).status,
            404);
  const std::string replayed =
      service.handle(get("/v1/jobs/" + check_id)).body;
  EXPECT_EQ(json_string_field(replayed, "type"), "check-proof") << replayed;
  EXPECT_EQ(replayed.find("\"proof_path\":\"" + proof_path + "\",\"data\""),
            std::string::npos)
      << replayed;
  // The attack keeps its own certificate across the restart.
  EXPECT_EQ(service.handle(get("/v1/jobs/" + attack_id + "/proof")).status,
            200);
  std::remove(proof_path.c_str());
  std::remove(journal.c_str());
}

TEST(Service, HttpRoundTripAndShutdown) {
  const netlist::Netlist host = small_host(71);
  const auto locked = locking::lock_xor(host, 6, 17);

  ServiceOptions options;
  options.workers = 2;
  AttackService service(options);
  HttpServer server([&service](const HttpRequest& request) {
    return service.handle(request);
  });
  server.start(0, 4);
  ASSERT_GT(server.port(), 0);

  int status = 0;
  const std::string health =
      http_request(server.port(), "GET", "/v1/health", "", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(health.find("\"ok\":true"), std::string::npos) << health;

  const std::string response = http_request(
      server.port(), "POST", "/v1/jobs?wait=1",
      attack_body(netlist::write_bench_string(locked.netlist),
                  netlist::write_bench_string(host)),
      &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(json_string_field(response, "status"), "ok") << response;
  const std::string data = "{" + json_object_field(response, "data") + "}";
  EXPECT_EQ(json_string_field(data, "status"), "key-found") << response;
  // Latency is part of every response (the CI smoke compares warm vs cold).
  EXPECT_GT(json_number_field(response, "request_seconds"), 0) << response;

  http_request(server.port(), "POST", "/v1/shutdown", "", &status);
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(service.shutdown_requested());
  server.stop();
}

#if defined(__unix__) || defined(__APPLE__)
/// Sends `raw` verbatim to the loopback server and returns the response
/// status (0 on transport failure).
int raw_status(std::uint16_t port, const std::string& raw) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::send(fd, raw.data(), raw.size(), 0) !=
          static_cast<ssize_t>(raw.size())) {
    ::close(fd);
    return 0;
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char chunk[512];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t sp = response.find(' ');
  return sp == std::string::npos ? 0 : std::atoi(response.c_str() + sp + 1);
}

TEST(Service, HttpContentLengthIsParsedStrictly) {
  std::vector<std::string> bodies;
  std::mutex mutex;
  HttpServer server([&](const HttpRequest& request) {
    std::lock_guard<std::mutex> lock(mutex);
    bodies.push_back(request.body);
    return HttpResponse{};
  });
  server.start(0, 1);
  const auto post = [&](const std::string& headers) {
    return raw_status(server.port(),
                      "POST /v1/echo HTTP/1.1\r\n" + headers + "\r\nhello");
  };
  // A non-numeric length used to read as 0 and drop the body silently.
  for (const char* bad :
       {"Content-Length: abc\r\n", "Content-Length: 5x\r\n",
        "Content-Length: -5\r\n", "Content-Length: +5\r\n",
        "Content-Length:\r\n", "Content-Length: 99999999999999999999999\r\n",
        "Content-Length: 5\r\nContent-Length: 4\r\n"}) {
    EXPECT_EQ(post(bad), 400) << bad;
  }
  EXPECT_TRUE(bodies.empty());
  EXPECT_EQ(post("Content-Length: 5\r\n"), 200);
  EXPECT_EQ(post("content-length: 5 \r\nContent-Length: 5\r\n"), 200);
  EXPECT_EQ(post(""), 200);  // no length: empty body
  server.stop();
  EXPECT_EQ(bodies, (std::vector<std::string>{"hello", "hello", ""}));
}
#endif

TEST(Service, MalformedRequestsAreRejectedNotFatal) {
  ServiceOptions options;
  options.workers = 1;
  AttackService service(options);

  EXPECT_EQ(service.handle(get("/v1/nope")).status, 404);
  EXPECT_EQ(service.handle(get("/v1/jobs/job-999")).status, 404);
  EXPECT_EQ(service.handle(post_job("{\"type\":\"sandwich\"}")).status, 400);

  // A job with garbage input fails cleanly as a job error, not a crash.
  const std::string response = service
      .handle(post_job("{\"type\":\"attack\",\"locked\":\"garbage\","
                       "\"activated\":\"more garbage\"}"))
      .body;
  EXPECT_EQ(json_string_field(response, "status"), "error") << response;
  EXPECT_FALSE(json_string_field(response, "error").empty()) << response;
}

}  // namespace
}  // namespace ril::service
