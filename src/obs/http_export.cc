#include "obs/http_export.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/request_trace.h"

namespace trajkit::obs {
namespace {

/// How long one connection may take to deliver its request line and take
/// its response. The server answers one connection at a time, so this
/// bounds how long an idle, slow-drip or never-reading client can hold up
/// every other scrape.
constexpr std::chrono::milliseconds kConnectionDeadline{1000};

}  // namespace

bool HttpExportServer::WaitFor(int fd, short events) const {
  for (;;) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline_ - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd fds[2];
    fds[0] = {fd, events, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    const int ready = ::poll(fds, 2, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    return ready > 0 && fds[1].revents == 0;
  }
}

/// Best-effort (a scraper that hangs up mid-response is its own problem).
/// MSG_DONTWAIT keeps a full socket buffer from blocking past the
/// deadline; MSG_NOSIGNAL keeps a mid-response hangup from raising SIGPIPE
/// at the process.
void HttpExportServer::WriteResponse(int fd, const char* status,
                                     const char* content_type,
                                     std::string_view body) const {
  char header[256];
  std::snprintf(header, sizeof(header),
                "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                status, content_type, body.size());
  for (std::string_view data : {std::string_view(header), body}) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd, data.data(), data.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n >= 0) {
        data.remove_prefix(static_cast<size_t>(n));
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!WaitFor(fd, POLLOUT)) return;
      } else if (errno != EINTR) {
        return;
      }
    }
  }
}

HttpExportServer::~HttpExportServer() { Stop(); }

bool HttpExportServer::Start(HttpExportOptions options, std::string* error) {
  if (running()) {
    if (error != nullptr) *error = "http export server already running";
    return false;
  }
  if (options.registry == nullptr) {
    if (error != nullptr) *error = "http export server needs a registry";
    return false;
  }
  options_ = std::move(options);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 16) < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  if (::pipe(wake_pipe_) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void HttpExportServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  // Poke the self-pipe so a blocked poll() returns immediately.
  const char byte = 'q';
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
}

void HttpExportServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // Stop() poked the pipe.
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    HandleConnection(fd);
    ::close(fd);
  }
}

void HttpExportServer::HandleConnection(int fd) {
  // Read until the end of headers (or 8 KiB — request lines we serve are
  // tiny). One request per connection, HTTP/1.0 style. Each read and each
  // write waits on the client and the wake pipe together, bounded by the
  // connection's deadline: a client that has not sent its request line or
  // taken its response by then is closed, and Stop() never waits on a
  // client.
  deadline_ = std::chrono::steady_clock::now() + kConnectionDeadline;
  std::string request;
  char buffer[1024];
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find('\n') == std::string::npos) {
    if (!WaitFor(fd, POLLIN)) return;
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    request.append(buffer, static_cast<size_t>(n));
  }
  const size_t line_end = request.find('\n');
  if (line_end == std::string::npos) return;
  // "GET <path> HTTP/1.x"
  const std::string line = request.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || line.substr(0, sp1) != "GET") {
    WriteResponse(fd, "405 Method Not Allowed", "text/plain",
                  "only GET is supported\n");
    return;
  }
  std::string path = sp2 == std::string::npos
                         ? line.substr(sp1 + 1)
                         : line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  requests_.fetch_add(1, std::memory_order_relaxed);
  Respond(fd, path);
}

void HttpExportServer::Respond(int fd, const std::string& path) {
  if (path == "/metrics") {
    WriteResponse(fd, "200 OK",
                  "text/plain; version=0.0.4; charset=utf-8",
                  options_.registry->ToPrometheusText(options_.prom_prefix));
    return;
  }
  if (path == "/metrics.json") {
    WriteResponse(fd, "200 OK", "application/json",
                  options_.registry->ToJson());
    return;
  }
  if (path == "/timeseries.json") {
    if (options_.timeseries == nullptr) {
      WriteResponse(fd, "404 Not Found", "text/plain",
                    "no time-series store\n");
      return;
    }
    WriteResponse(fd, "200 OK", "application/json",
                  options_.timeseries->ToJson());
    return;
  }
  if (path == "/statusz") {
    if (!options_.statusz) {
      WriteResponse(fd, "404 Not Found", "text/plain",
                    "no statusz renderer\n");
      return;
    }
    WriteResponse(fd, "200 OK", "text/plain; charset=utf-8",
                  options_.statusz());
    return;
  }
  if (path == "/healthz") {
    if (options_.slo == nullptr || options_.slo->healthy()) {
      WriteResponse(fd, "200 OK", "text/plain", "ok\n");
      return;
    }
    std::string body = "breaching:";
    for (const SloState& state : options_.slo->states()) {
      if (state.breached) body += " " + state.name;
    }
    body += '\n';
    WriteResponse(fd, "503 Service Unavailable", "text/plain", body);
    return;
  }
  if (path == "/tracez") {
    if (options_.tracer == nullptr) {
      WriteResponse(fd, "404 Not Found", "text/plain", "tracing disabled\n");
      return;
    }
    WriteResponse(fd, "200 OK", "application/json",
                  options_.tracer->ToChromeTraceJson());
    return;
  }
  if (path == "/quitquitquit") {
    if (!options_.on_quit) {
      WriteResponse(fd, "404 Not Found", "text/plain",
                    "quit handler not wired\n");
      return;
    }
    WriteResponse(fd, "200 OK", "text/plain", "bye\n");
    options_.on_quit();
    return;
  }
  WriteResponse(fd, "404 Not Found", "text/plain", "not found\n");
}

}  // namespace trajkit::obs
