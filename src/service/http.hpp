// Minimal HTTP/1.1 server (and test client) for the `ril serve` daemon.
//
// Hand-rolled over POSIX sockets on purpose: the container bakes in no HTTP
// library and the daemon's needs are tiny -- parse a request line, a few
// headers (only Content-Length matters), an optional body; write back a
// status line, Content-Length, and a body. Every connection is one request
// (`Connection: close`); N acceptor threads all block in accept() on the
// same listening socket, so up to N requests are parsed and handled
// concurrently.
// On non-POSIX builds the server compiles but start() throws.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace ril::service {

struct HttpRequest {
  std::string method;  ///< "GET" | "POST" | ...
  std::string target;  ///< path without the query string
  std::string query;   ///< raw query string (no leading '?')
  std::map<std::string, std::string> headers;  ///< lower-cased names
  std::string body;

  /// Value of `name` in the query string, or `fallback` when absent.
  std::string query_param(const std::string& name,
                          const std::string& fallback = "") const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(Handler handler);
  ~HttpServer();

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port) and starts
  /// `threads` acceptor workers. Throws std::runtime_error on bind failure.
  void start(std::uint16_t port, unsigned threads = 4);
  /// Stops accepting, wakes the workers, joins them. Idempotent.
  void stop();
  bool running() const { return listen_fd_.load() >= 0; }
  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

 private:
  void accept_loop();
  void handle_connection(int fd);

  Handler handler_;
  std::atomic<int> listen_fd_{-1};
  std::uint16_t port_ = 0;
  std::vector<std::thread> workers_;
};

/// Blocking one-shot HTTP client for tests and the CLI smoke path: sends
/// `method target` with `body` to 127.0.0.1:`port`, returns the response
/// body and stores the status code in `*status_out` (0 on transport
/// failure). Throws nothing; transport failures return "".
std::string http_request(std::uint16_t port, const std::string& method,
                         const std::string& target, const std::string& body,
                         int* status_out = nullptr);

}  // namespace ril::service
