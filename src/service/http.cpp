#include "service/http.hpp"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "runtime/campaign.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define RIL_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace ril::service {

namespace {

std::string lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    default: return "Unknown";
  }
}

#if RIL_HAVE_SOCKETS

/// Strict Content-Length value: decimal digits only (trailing blanks
/// allowed), no sign, no overflow.
std::optional<std::size_t> parse_content_length(std::string_view value) {
  while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
    value.remove_suffix(1);
  }
  std::size_t length = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, length);
  if (value.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return length;
}

/// recv() that retries when a signal interrupts it.
ssize_t recv_retrying(int fd, char* buffer, std::size_t size) {
  ssize_t n;
  do {
    n = ::recv(fd, buffer, size, 0);
  } while (n < 0 && errno == EINTR);
  return n;
}

/// Reads until the header terminator, then Content-Length body bytes.
/// Returns false on malformed input or transport error.
bool read_request(int fd, HttpRequest& request) {
  std::string buffer;
  char chunk[4096];
  std::size_t header_end = std::string::npos;
  while (header_end == std::string::npos) {
    const ssize_t n = recv_retrying(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
    header_end = buffer.find("\r\n\r\n");
    if (buffer.size() > (1u << 20) && header_end == std::string::npos) {
      return false;  // runaway header block
    }
  }
  const std::string head = buffer.substr(0, header_end);
  std::string rest = buffer.substr(header_end + 4);

  // Request line: METHOD SP TARGET SP VERSION
  const std::size_t line_end = head.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return false;
  request.method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t qmark = target.find('?');
  if (qmark != std::string::npos) {
    request.query = target.substr(qmark + 1);
    target.resize(qmark);
  }
  request.target = target;

  // Headers. Content-Length must parse strictly, and repeats must agree:
  // a lenient parse would silently drop or truncate the body.
  std::optional<std::size_t> content_length;
  std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(pos, eol - pos);
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string name = lower(line.substr(0, colon));
      std::size_t vstart = colon + 1;
      while (vstart < line.size() && line[vstart] == ' ') ++vstart;
      std::string value = line.substr(vstart);
      if (name == "content-length") {
        const auto length = parse_content_length(value);
        if (!length || (content_length && *content_length != *length)) {
          return false;
        }
        content_length = length;
      }
      request.headers[std::move(name)] = std::move(value);
    }
    pos = eol + 2;
  }
  const std::size_t body_length = content_length.value_or(0);
  if (body_length > (1u << 28)) return false;  // 256 MiB sanity cap
  while (rest.size() < body_length) {
    const ssize_t n = recv_retrying(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    rest.append(chunk, static_cast<std::size_t>(n));
  }
  request.body = rest.substr(0, body_length);
  return true;
}

bool write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

#endif  // RIL_HAVE_SOCKETS

}  // namespace

std::string HttpRequest::query_param(const std::string& name,
                                     const std::string& fallback) const {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    const std::string key = eq == std::string::npos ? pair : pair.substr(0, eq);
    if (key == name) {
      return eq == std::string::npos ? std::string("1") : pair.substr(eq + 1);
    }
    pos = amp + 1;
  }
  return fallback;
}

HttpServer::HttpServer(Handler handler) : handler_(std::move(handler)) {}

HttpServer::~HttpServer() { stop(); }

#if RIL_HAVE_SOCKETS

void HttpServer::start(std::uint16_t port, unsigned threads) {
  if (listen_fd_ >= 0) throw std::runtime_error("server already started");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot bind 127.0.0.1:" + std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { accept_loop(); });
  }
}

void HttpServer::stop() {
  if (listen_fd_ < 0) return;
  const int fd = listen_fd_;
  listen_fd_ = -1;
  // shutdown() wakes every worker blocked in accept() with an error.
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

void HttpServer::accept_loop() {
  while (true) {
    const int fd = listen_fd_;
    if (fd < 0) return;
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (listen_fd_ < 0) return;  // stop() in progress
      continue;                    // transient accept error
    }
    handle_connection(conn);
    ::close(conn);
  }
}

void HttpServer::handle_connection(int fd) {
  HttpRequest request;
  HttpResponse response;
  if (!read_request(fd, request)) {
    response.status = 400;
    response.body = "{\"error\":\"malformed request\"}";
  } else {
    try {
      response = handler_(request);
    } catch (const std::exception& e) {
      response = HttpResponse{};
      response.status = 500;
      response.body = "{\"error\":\"" + runtime::json_escape(e.what()) + "\"}";
    }
  }
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    reason_phrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  write_all(fd, out);
}

std::string http_request(std::uint16_t port, const std::string& method,
                         const std::string& target, const std::string& body,
                         int* status_out) {
  if (status_out) *status_out = 0;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Host: 127.0.0.1\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  request += "Connection: close\r\n\r\n";
  request += body;
  if (!write_all(fd, request)) {
    ::close(fd);
    return {};
  }
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = recv_retrying(fd, chunk, sizeof(chunk))) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) return {};
  if (status_out) {
    const std::size_t sp = response.find(' ');
    if (sp != std::string::npos) {
      *status_out = std::atoi(response.c_str() + sp + 1);
    }
  }
  return response.substr(header_end + 4);
}

#else  // !RIL_HAVE_SOCKETS

void HttpServer::start(std::uint16_t, unsigned) {
  throw std::runtime_error("HTTP server requires a POSIX socket layer");
}
void HttpServer::stop() {}
void HttpServer::accept_loop() {}
void HttpServer::handle_connection(int) {}

std::string http_request(std::uint16_t, const std::string&,
                         const std::string&, const std::string&,
                         int* status_out) {
  if (status_out) *status_out = 0;
  return {};
}

#endif  // RIL_HAVE_SOCKETS

}  // namespace ril::service
