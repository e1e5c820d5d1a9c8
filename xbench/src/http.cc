#include "http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <strings.h>

namespace xbench {

std::string GetRequest(std::string_view target) {
  std::string req = "GET ";
  req.append(target);
  req.append(" HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
  return req;
}

bool HttpConn::Connect(uint16_t port, int timeout_ms) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Close();
    return false;
  }
  return true;
}

void HttpConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool HttpConn::Send(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

bool HttpConn::ReadAvailable() {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n > 0) {
      buf_.append(chunk, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof chunk) return true;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF or error
  }
}

bool HttpConn::Read(HttpReply* reply) {
  char chunk[65536];
  for (;;) {
    bool malformed = false;
    if (TryParse(reply, &malformed)) return true;
    if (malformed) return false;
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;  // EOF, error or SO_RCVTIMEO
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

bool HttpConn::TryParse(HttpReply* reply, bool* malformed) {
  *malformed = false;
  const size_t head_end = buf_.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  // Status line: "HTTP/1.x NNN reason".
  if (buf_.compare(0, 5, "HTTP/") != 0 || head_end < 12) {
    *malformed = true;
    return false;
  }
  const int status = std::atoi(buf_.c_str() + 9);
  bool chunked = false;
  long long content_length = -1;
  size_t line = buf_.find("\r\n") + 2;
  while (line < head_end) {
    const size_t eol = buf_.find("\r\n", line);
    const std::string_view h(buf_.data() + line, eol - line);
    if (h.size() > 15 && strncasecmp(h.data(), "content-length:", 15) == 0) {
      content_length = std::atoll(std::string(h.substr(15)).c_str());
    } else if (h.size() > 18 &&
               strncasecmp(h.data(), "transfer-encoding:", 18) == 0 &&
               h.find("chunked") != std::string_view::npos) {
      chunked = true;
    }
    line = eol + 2;
  }
  size_t pos = head_end + 4;
  std::string body;
  if (chunked) {
    for (;;) {
      const size_t eol = buf_.find("\r\n", pos);
      if (eol == std::string::npos) return false;
      char* end = nullptr;
      const unsigned long size = std::strtoul(buf_.c_str() + pos, &end, 16);
      if (end == buf_.c_str() + pos) {
        *malformed = true;
        return false;
      }
      const size_t data = eol + 2;
      if (buf_.size() < data + size + 2) return false;
      if (size == 0) {
        pos = data + 2;  // no trailers
        break;
      }
      body.append(buf_, data, size);
      pos = data + size + 2;
    }
  } else {
    const size_t len = content_length < 0 ? 0 : static_cast<size_t>(content_length);
    if (buf_.size() < pos + len) return false;
    body.assign(buf_, pos, len);
    pos += len;
  }
  reply->status = status;
  reply->body = std::move(body);
  reply->wire_bytes = static_cast<int64_t>(pos);
  buf_.erase(0, pos);
  return true;
}

}  // namespace xbench
