// sf-serve: the SpaceFusion compile daemon.
//
// Serves NDJSON compile requests (src/serve/protocol.h) over an AF_UNIX
// stream socket — one connection per client, one request object per line —
// or over stdin/stdout with --stdio. Requests from concurrent connections
// are admitted through a ServeServer, so identical in-flight compiles
// coalesce, per-client quotas and deadlines apply, and results persist to
// the program cache directory: restarting the daemon with the same
// --cache-dir serves previously compiled models as "persistent_hit" without
// re-tuning.
//
//   sf-serve --socket /tmp/sf-serve.sock --cache-dir /tmp/sf-cache &
//   sf-serve --stdio < requests.ndjson
//
// A request whose model is "shutdown" stops the daemon after it is
// acknowledged (how CI tears the daemon down without signals). SIGINT /
// SIGTERM also shut down cleanly.
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/server.h"
#include "src/support/logging.h"
#include "src/support/string_util.h"

namespace spacefusion {
namespace {

std::atomic<bool> g_stop{false};
std::atomic<int> g_listen_fd{-1};

void RequestStop() {
  g_stop.store(true);
  const int fd = g_listen_fd.load();
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);  // unblocks accept()
  }
}

void HandleSignal(int) { RequestStop(); }

int Usage() {
  std::cerr
      << "usage: sf-serve --socket PATH [options]\n"
         "       sf-serve --stdio [options]\n"
         "\n"
         "  --socket PATH     listen on an AF_UNIX stream socket at PATH\n"
         "  --stdio           serve one NDJSON stream on stdin/stdout\n"
         "  --workers N       compile worker threads (default: 2)\n"
         "  --max-inflight N  admission bound on distinct compile jobs (default: 64)\n"
         "  --quota N         max unfinished requests per client (default: 8)\n"
         "  --cache-dir DIR   persistent program cache directory\n"
         "                    (default: SPACEFUSION_CACHE_DIR; empty disables)\n"
         "\n"
         "protocol: one JSON request per line in, one JSON response per line out;\n"
         "a request with \"model\":\"shutdown\" stops the daemon after the reply.\n";
  return 2;
}

// Handles one request line; sets *stop when the daemon should exit.
std::string HandleLine(ServeServer* server, const std::string& line, bool* stop) {
  StatusOr<ServeRequest> request = ServeRequestFromJson(line);
  if (!request.ok()) {
    ServeResponse bad;
    bad.status = StatusCodeName(request.status().code());
    bad.error = request.status().message();
    return ServeResponseToJson(bad);
  }
  if (request->model == "shutdown") {
    ServeResponse ack;
    ack.id = request->id;
    ack.model = "shutdown";
    *stop = true;
    return ServeResponseToJson(ack);
  }
  return ServeResponseToJson(server->Handle(std::move(request).value()));
}

bool WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n <= 0) {
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

void ServeConnection(ServeServer* server, int fd) {
  std::string buffer;
  char chunk[4096];
  while (!g_stop.load()) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      break;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.empty()) {
        continue;
      }
      bool stop = false;
      std::string response = HandleLine(server, line, &stop);
      response.push_back('\n');
      if (!WriteAll(fd, response)) {
        ::close(fd);
        return;
      }
      if (stop) {
        RequestStop();
        ::close(fd);
        return;
      }
    }
  }
  ::close(fd);
}

int RunStdio(ServeServer* server) {
  std::string line;
  while (!g_stop.load() && std::getline(std::cin, line)) {
    if (line.empty()) {
      continue;
    }
    bool stop = false;
    std::cout << HandleLine(server, line, &stop) << "\n" << std::flush;
    if (stop) {
      break;
    }
  }
  return 0;
}

int RunSocket(ServeServer* server, const std::string& path) {
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::cerr << "sf-serve: socket(): " << std::strerror(errno) << "\n";
    return 1;
  }
  ::unlink(path.c_str());  // a previous daemon's leftover name
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "sf-serve: socket path too long: " << path << "\n";
    ::close(listen_fd);
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd, 64) != 0) {
    std::cerr << "sf-serve: cannot listen on " << path << ": " << std::strerror(errno) << "\n";
    ::close(listen_fd);
    return 1;
  }
  g_listen_fd.store(listen_fd);
  // Readiness line on stderr: scripts wait for it (or for the socket file).
  std::cerr << "sf-serve: listening on " << path << "\n" << std::flush;

  std::vector<std::thread> connections;
  while (!g_stop.load()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR && !g_stop.load()) {
        continue;
      }
      break;
    }
    connections.emplace_back(ServeConnection, server, fd);
  }
  for (std::thread& t : connections) {
    t.join();
  }
  g_listen_fd.store(-1);
  ::close(listen_fd);
  ::unlink(path.c_str());
  return 0;
}

int Run(int argc, char** argv) {
  std::string socket_path;
  bool stdio = false;
  ServeServerOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--stdio") {
      stdio = true;
      continue;
    }
    if (flag == "--socket" || flag == "--workers" || flag == "--max-inflight" ||
        flag == "--quota" || flag == "--cache-dir") {
      if (i + 1 >= argc) {
        return Usage();
      }
      const std::string value = argv[++i];
      if (flag == "--socket") {
        socket_path = value;
      } else if (flag == "--workers") {
        options.workers = std::atoi(value.c_str());
      } else if (flag == "--max-inflight") {
        options.max_inflight_jobs = std::atoi(value.c_str());
      } else if (flag == "--quota") {
        options.per_client_inflight = std::atoi(value.c_str());
      } else {
        options.cache_dir = value;
      }
      continue;
    }
    return Usage();
  }
  if (stdio == !socket_path.empty()) {
    // Exactly one of --stdio / --socket.
    return Usage();
  }
  if (options.workers < 1 || options.max_inflight_jobs < 1 || options.per_client_inflight < 1) {
    return Usage();
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);  // a client hanging up must not kill the daemon

  ServeServer server(options);
  return stdio ? RunStdio(&server) : RunSocket(&server, socket_path);
}

}  // namespace
}  // namespace spacefusion

int main(int argc, char** argv) {
  spacefusion::SetLogThreshold(spacefusion::LogLevel::kWarning);
  return spacefusion::Run(argc, argv);
}
