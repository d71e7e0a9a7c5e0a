#ifndef TRAJKIT_OBS_HTTP_EXPORT_H_
#define TRAJKIT_OBS_HTTP_EXPORT_H_

// A deliberately tiny pull-based export surface: one background thread
// running a blocking accept loop over an HTTP/1.0 listener bound to
// 127.0.0.1, answering one request per connection. No third-party deps,
// no keep-alive, no TLS — the point is that a Prometheus scraper, a curl
// in a CI leg, or an operator's browser can watch a run *while it runs*.
//
// Endpoints:
//   /metrics          Prometheus text exposition (byte-identical to the
//                     --metrics_prom file for the same registry state).
//   /metrics.json     MetricsRegistry::ToJson().
//   /timeseries.json  TimeSeriesStore::ToJson() (404 without a store).
//   /statusz          injected renderer (the serve statusz page).
//   /healthz          200 "ok" / 503 "breaching: ..." from SLO state.
//   /tracez           flight-recorder Chrome trace JSON (404 untraced).
//   /quitquitquit     invokes on_quit (404 when not wired) — lets a CI
//                     leg end a lingering serve-replay without signals.
//
// The server deliberately keeps its own request counting in a plain
// atomic instead of the MetricsRegistry: a scrape must not mutate the
// registry it is exporting, or /metrics could never byte-match a file
// dump taken a moment earlier.
//
// Connections are served one at a time. Each gets a fixed deadline
// (one second) to send its request and take its response, and is closed
// when it expires, so an idle, slow or non-reading client delays other
// scrapes by at most that long instead of stalling the server.
//
// Shutdown: Stop() pokes a self-pipe that the accept loop, the request
// read and the response write all poll alongside their socket, then joins
// the thread — clean and test-joinable even with a client connected,
// never relying on close() waking accept().

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

namespace trajkit::obs {

class RequestTracer;

struct HttpExportOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back from port() — tests and --http_port=0 rely on this).
  int port = 0;
  /// Required: the registry /metrics and /metrics.json export.
  const MetricsRegistry* registry = nullptr;
  const TimeSeriesStore* timeseries = nullptr;  ///< /timeseries.json
  const SloEngine* slo = nullptr;               ///< /healthz state
  const RequestTracer* tracer = nullptr;        ///< /tracez
  /// Renders the /statusz body (text/plain). Called on the server
  /// thread, so it must be safe against concurrent metric writers (the
  /// serve statusz renderer is).
  std::function<std::string()> statusz;
  /// Invoked (on the server thread, after the response is written) when
  /// /quitquitquit is hit. Must not call Stop() — signal the owner.
  std::function<void()> on_quit;
};

class HttpExportServer {
 public:
  HttpExportServer() = default;
  ~HttpExportServer();
  HttpExportServer(const HttpExportServer&) = delete;
  HttpExportServer& operator=(const HttpExportServer&) = delete;

  /// Binds, listens, and starts the accept thread. False (with *error
  /// set) when the socket setup fails or the server is already running.
  bool Start(HttpExportOptions options, std::string* error);

  /// Stops the accept loop and joins the thread; idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (resolves port 0 to the ephemeral pick).
  int port() const { return port_; }
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  /// Routes one request path to (status line, content type, body).
  void Respond(int fd, const std::string& path);
  /// Waits until `fd` is ready for `events`; false once the connection's
  /// deadline passes or Stop() pokes the wake pipe.
  bool WaitFor(int fd, short events) const;
  /// Writes the response without blocking past WaitFor's limits; a client
  /// that stops reading is abandoned at the deadline.
  void WriteResponse(int fd, const char* status, const char* content_type,
                     std::string_view body) const;

  HttpExportOptions options_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_{0};
  std::thread thread_;
  /// The current connection's deadline (server thread only).
  std::chrono::steady_clock::time_point deadline_;
};

}  // namespace trajkit::obs

#endif  // TRAJKIT_OBS_HTTP_EXPORT_H_
