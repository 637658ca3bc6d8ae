// A minimal embedded HTTP/1.1 layer over plain BSD sockets — just enough
// protocol for the campaign service's JSON API and its tests.
//
// Scope (deliberate): loopback only, one request per connection
// (Connection: close), no TLS, no chunked transfer, no pipelining. Requests
// are bounded (64 KiB of headers, 8 MiB of body) and reads time out, so a
// stalled client cannot wedge the server. Anything fancier belongs in a
// real frontend; the service's value is the rig pool and the cache behind
// this socket, not the socket itself.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/error.hpp"

namespace rh::serve {

/// Malformed or over-limit HTTP input from a client (mapped to a 400).
class HttpError : public common::Error {
public:
  using common::Error::Error;
};

struct HttpRequest {
  std::string method;   ///< GET / POST / DELETE / ...
  std::string target;   ///< origin-form path, e.g. "/jobs/3/report"
  /// Header names lowercased; last value wins on duplicates.
  std::map<std::string, std::string> headers;
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::map<std::string, std::string> extra_headers;  ///< e.g. Retry-After
  std::string body;
};

/// A listening TCP socket bound to 127.0.0.1. Port 0 asks the kernel for an
/// ephemeral port; port() reports what was actually bound.
class TcpListener {
public:
  explicit TcpListener(std::uint16_t port);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Accepts one connection, waiting at most `timeout_ms`. Returns the
  /// connected fd, or -1 on timeout / after close(). The caller owns the fd
  /// (close with close_fd).
  [[nodiscard]] int accept_connection(int timeout_ms);

  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Stops accepting; subsequent accept_connection calls return -1.
  void close();

private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Reads one request from a connected socket. Throws HttpError on malformed
/// or over-limit input, common::ConfigError on socket failure/timeout.
[[nodiscard]] HttpRequest read_http_request(int fd);

/// Writes a complete HTTP/1.1 response (status line, headers incl.
/// Content-Length and Connection: close, body).
void write_http_response(int fd, const HttpResponse& response);

void close_fd(int fd);

/// Blocking loopback client for tests and tools: one request, one response.
[[nodiscard]] HttpResponse http_request(std::uint16_t port, const std::string& method,
                                        const std::string& target, const std::string& body = "",
                                        const std::map<std::string, std::string>& headers = {});

}  // namespace rh::serve
