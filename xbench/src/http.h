// The load generator's own HTTP/1.1 client: one loopback connection, GET
// requests, Content-Length and chunked responses. It shares no code with
// the server under test, so a change to the repository's net layer moves
// only the server side of the measurement.
#ifndef XBENCH_HTTP_H_
#define XBENCH_HTTP_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace xbench {

struct HttpReply {
  int status = 0;
  std::string body;   // de-chunked
  int64_t wire_bytes = 0;  // head + framed body as received
};

/// "GET target HTTP/1.1" with a Host header and nothing else.
std::string GetRequest(std::string_view target);

class HttpConn {
 public:
  HttpConn() = default;
  ~HttpConn() { Close(); }
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  /// Connects to 127.0.0.1:port with TCP_NODELAY; receives time out after
  /// `timeout_ms` so a stalled server fails the request instead of hanging.
  bool Connect(uint16_t port, int timeout_ms = 10'000);
  void Close();
  int fd() const { return fd_; }

  /// Writes all of `bytes`.
  bool Send(std::string_view bytes);
  /// Blocks until one whole response is buffered and parsed.
  bool Read(HttpReply* reply);
  /// Reads whatever the socket has now (non-blocking use after poll()).
  /// False on EOF or error.
  bool ReadAvailable();
  /// Extracts one complete response from the buffer, if there is one.
  /// False when more bytes are needed; sets *malformed on garbage.
  bool TryParse(HttpReply* reply, bool* malformed);

 private:
  int fd_ = -1;
  std::string buf_;
};

}  // namespace xbench

#endif  // XBENCH_HTTP_H_
