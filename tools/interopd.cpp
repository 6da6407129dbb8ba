// interopd — the long-lived interop daemon, plus a tiny client mode.
//
// `interopd serve` hosts an InteropService (resident dialect tables, tool
// models, and the shared ResultCache) on a unix-domain socket, speaking
// the length-prefixed wire protocol from src/service/wire.hpp. Each
// connection is served synchronously (one request in flight per
// connection; concurrency comes from concurrent connections feeding the
// service's bounded queue). SIGTERM/SIGINT — or a wire-level Drain
// request — triggers a graceful drain: stop admitting, finish every
// queued and in-flight request, flush the store, then exit 0 printing
// "drained".
//
// `--store DIR` backs the resident ResultCache with the crash-consistent
// ObjectStore (src/store): every cached step effect is durable before it
// is served, so a daemon killed with SIGKILL mid-request restarts into a
// warm cache — the same flow request replays from disk with zero actions
// re-executed.
//
// `interopd client` drives one request against a running daemon and
// prints the response; it exists so CI can smoke the real socket path
// (migrate + flow-run + drain) with nothing but this binary.
//
// Usage:
//   interopd serve  --socket PATH [--workers N] [--flow-workers N]
//                   [--queue N] [--timeout-us N] [--store DIR]
//   interopd client --socket PATH ping|metrics|drain
//   interopd client --socket PATH migrate [--seed N] [--tenant T]
//   interopd client --socket PATH netlist [--seed N] [--dialect D] [--tenant T]
//   interopd client --socket PATH flow [--width N] [--latency-us N]
//                   [--seed N] [--tenant T]

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "base/diagnostics.hpp"
#include "runtime/pool.hpp"
#include "schematic/generator.hpp"
#include "schematic/textio.hpp"
#include "service/service.hpp"
#include "service/wire.hpp"

using namespace interop;
using service::FrameReader;
using service::InteropService;
using service::MsgType;
using service::Request;
using service::Response;
using service::ServiceOptions;
using service::Status;

namespace {

std::atomic<int> g_signal{0};
/// Connection sessions still running; shutdown waits for 0.
std::atomic<int> g_sessions{0};

void on_signal(int sig) { g_signal.store(sig); }

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
#ifdef MSG_NOSIGNAL
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
#else
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
#endif
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;
    }
    sent += std::size_t(n);
  }
  return true;
}

/// Set a receive timeout so blocked reads re-check the stop flag.
void set_recv_timeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

int parse_int(const char* s, int fallback) {
  try {
    return std::stoi(s);
  } catch (...) {
    return fallback;
  }
}

std::uint64_t parse_u64(const char* s, std::uint64_t fallback) {
  try {
    return std::stoull(s);
  } catch (...) {
    return fallback;
  }
}

// ------------------------------------------------------------- serve

/// One connection: synchronous request/response until EOF, protocol
/// error, or shutdown. A framing error gets a final Error response (the
/// "clean per-session error" contract) and the session is closed; the
/// daemon itself is unaffected.
void serve_connection(int fd, InteropService& service,
                      const std::atomic<bool>& closing) {
  set_recv_timeout(fd, 200);
  FrameReader reader;
  char buf[4096];
  bool alive = true;
  while (alive && !closing.load()) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;  // timeout tick: re-check closing
      break;
    }
    reader.feed(std::string_view(buf, std::size_t(n)));
    for (;;) {
      std::string payload, error;
      FrameReader::Result r = reader.next(&payload, &error);
      if (r == FrameReader::Result::NeedMore) break;
      if (r == FrameReader::Result::Bad) {
        Response resp;
        resp.status = Status::Error;
        resp.error = "protocol error: " + error;
        send_all(fd, encode_response(resp));
        alive = false;
        break;
      }
      Request req;
      if (!service::decode_request(payload, &req, &error)) {
        Response resp;
        resp.status = Status::Error;
        resp.error = "bad request: " + error;
        send_all(fd, encode_response(resp));
        alive = false;
        break;
      }
      Response resp = service.call(std::move(req));
      if (!send_all(fd, encode_response(resp))) {
        alive = false;
        break;
      }
    }
  }
  ::close(fd);
}

int cmd_serve(const std::string& socket_path, ServiceOptions opt) {
  ::unlink(socket_path.c_str());
  int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::cerr << "interopd: socket: " << std::strerror(errno) << "\n";
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "interopd: socket path too long\n";
    return 1;
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd, 64) < 0) {
    std::cerr << "interopd: bind/listen " << socket_path << ": "
              << std::strerror(errno) << "\n";
    ::close(listen_fd);
    return 1;
  }

  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
#ifdef SIGPIPE
  ::signal(SIGPIPE, SIG_IGN);
#endif

  InteropService svc(opt);
  if (!opt.store_dir.empty()) {
    if (svc.persistent_cache()) {
      std::cout << "interopd: store " << opt.store_dir << " open ("
                << svc.persistent_cache()->recovered()
                << " entries recovered)" << std::endl;
    } else {
      std::cerr << "interopd: store open failed, running memory-only: "
                << svc.store_error() << "\n";
    }
  }
  std::atomic<bool> closing{false};
  std::cout << "interopd: serving on " << socket_path << " (workers="
            << opt.workers << " queue=" << opt.queue_limit << ")"
            << std::endl;

  while (g_signal.load() == 0 && !svc.draining()) {
    pollfd pfd{listen_fd, POLLIN, 0};
    int rc = ::poll(&pfd, 1, 200);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0 || !(pfd.revents & POLLIN)) continue;
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    // A session is a task on the shared worker pool: a finished one
    // leaves no thread (and no thread stack) behind.
    ++g_sessions;
    runtime::WorkerPool::shared().submit([fd, &svc, &closing] {
      serve_connection(fd, svc, closing);
      if (--g_sessions == 0) g_sessions.notify_all();
    });
  }

  // Graceful drain: stop admitting, let every queued and in-flight
  // request finish, then tear the sessions down.
  std::cout << "interopd: draining (" << svc.queued() << " queued, "
            << svc.in_flight() << " in flight)" << std::endl;
  ::close(listen_fd);
  svc.drain();
  closing.store(true);
  for (int n; (n = g_sessions.load()) != 0;) g_sessions.wait(n);
  ::unlink(socket_path.c_str());
  std::cout << "interopd: drained, exiting" << std::endl;
  return 0;
}

// ------------------------------------------------------------- client

int client_connect(const std::string& socket_path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool client_roundtrip(int fd, const Request& req, Response* resp) {
  if (!send_all(fd, encode_request(req))) return false;
  FrameReader reader;
  char buf[4096];
  for (;;) {
    std::string payload, error;
    FrameReader::Result r = reader.next(&payload, &error);
    if (r == FrameReader::Result::Frame)
      return service::decode_response(payload, resp, &error);
    if (r == FrameReader::Result::Bad) return false;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    reader.feed(std::string_view(buf, std::size_t(n)));
  }
}

void print_response(const Response& resp) {
  std::cout << service::to_string(resp.status);
  if (!resp.error.empty()) std::cout << " error=\"" << resp.error << "\"";
  if (resp.retry_after_us > 0)
    std::cout << " retry_after_us=" << resp.retry_after_us;
  for (const auto& [name, value] : resp.counters)
    std::cout << " " << name << "=" << value;
  std::cout << "\n";
  if (!resp.body.empty() && resp.counters.empty() && resp.error.empty()) {
    std::cout << resp.body;
    if (resp.body.back() != '\n') std::cout << "\n";
  }
}

int cmd_client(const std::string& socket_path, Request req) {
  int fd = client_connect(socket_path);
  if (fd < 0) {
    std::cerr << "interopd client: cannot connect to " << socket_path
              << ": " << std::strerror(errno) << "\n";
    return 1;
  }
  Response resp;
  bool ok = client_roundtrip(fd, req, &resp);
  ::close(fd);
  if (!ok) {
    std::cerr << "interopd client: transport failure\n";
    return 1;
  }
  print_response(resp);
  return resp.status == Status::Ok ? 0 : 1;
}

/// Build the standard Exar-style scenario design for migrate/netlist
/// requests: the client ships the serialized design; the daemon supplies
/// the resident tool models.
std::string scenario_design(std::uint64_t seed) {
  sch::GeneratorOptions gopt;
  gopt.seed = seed;
  return sch::write_design(sch::make_exar_scenario(gopt).source);
}

void usage() {
  std::cerr
      << "usage:\n"
      << "  interopd serve  --socket PATH [--workers N] [--flow-workers N]"
         " [--queue N] [--timeout-us N]\n"
      << "                  [--store DIR]\n"
      << "  interopd client --socket PATH ping|metrics|drain\n"
      << "  interopd client --socket PATH migrate [--seed N] [--tenant T]\n"
      << "  interopd client --socket PATH netlist [--seed N] [--dialect D]"
         " [--tenant T]\n"
      << "  interopd client --socket PATH flow [--width N] [--latency-us N]"
         " [--seed N] [--tenant T]\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    usage();
    return 2;
  }
  std::string mode = args[0];
  std::string socket_path, command, dialect, tenant = "cli";
  ServiceOptions opt;
  std::uint64_t seed = 1;
  std::uint32_t width = 8, latency_us = 200;

  for (std::size_t i = 1; i < args.size(); ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= args.size()) {
        std::cerr << "interopd: " << flag << " needs a value\n";
        std::exit(2);
      }
      return args[++i].c_str();
    };
    if (args[i] == "--socket") socket_path = next("--socket");
    else if (args[i] == "--workers") opt.workers = parse_int(next("--workers"), opt.workers);
    else if (args[i] == "--flow-workers") opt.flow_workers = parse_int(next("--flow-workers"), opt.flow_workers);
    else if (args[i] == "--store") opt.store_dir = next("--store");
    else if (args[i] == "--queue") opt.queue_limit = std::size_t(parse_int(next("--queue"), int(opt.queue_limit)));
    else if (args[i] == "--timeout-us") opt.request_timeout_us = parse_u64(next("--timeout-us"), 0);
    else if (args[i] == "--seed") seed = parse_u64(next("--seed"), 1);
    else if (args[i] == "--width") width = std::uint32_t(parse_int(next("--width"), 8));
    else if (args[i] == "--latency-us") latency_us = std::uint32_t(parse_int(next("--latency-us"), 200));
    else if (args[i] == "--dialect") dialect = next("--dialect");
    else if (args[i] == "--tenant") tenant = next("--tenant");
    else if (args[i][0] != '-' && command.empty()) command = args[i];
    else {
      std::cerr << "interopd: unknown argument " << args[i] << "\n";
      usage();
      return 2;
    }
  }
  if (socket_path.empty()) {
    usage();
    return 2;
  }

  if (mode == "serve") return cmd_serve(socket_path, opt);
  if (mode != "client") {
    usage();
    return 2;
  }

  Request req;
  req.id = 1;
  req.tenant = tenant;
  req.seed = seed;
  if (command == "ping") {
    req.type = MsgType::Ping;
  } else if (command == "metrics") {
    req.type = MsgType::Metrics;
  } else if (command == "drain") {
    req.type = MsgType::Drain;
  } else if (command == "migrate") {
    req.type = MsgType::Migrate;
    req.design = scenario_design(seed);
  } else if (command == "netlist") {
    req.type = MsgType::Netlist;
    req.design = scenario_design(seed);
    req.cell = "top";
    req.dialect = dialect;
  } else if (command == "flow") {
    req.type = MsgType::FlowRun;
    req.flow = "fanout";
    req.width = width;
    req.latency_us = latency_us;
  } else {
    usage();
    return 2;
  }
  return cmd_client(socket_path, std::move(req));
}
