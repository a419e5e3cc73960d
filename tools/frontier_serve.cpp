// frontier_serve — sampling as a service: a long-running daemon that
// multiplexes concurrent crawl sessions over one shared (typically
// mmap'd) graph.
//
//   frontier_serve <graph> (--socket PATH | --port N) [options]
//       Serve the wire protocol (serve/protocol.hpp, newline-delimited
//       JSON) on a Unix socket or loopback TCP. Each session is one
//       streaming crawl built from the same CrawlSpec path as
//       `frontier_cli stream` — a served session is bit-identical to an
//       offline run of the same (method, budget, dimension, seed,
//       motifs) tuple. Admission control (--max-sessions,
//       --max-per-tenant, --max-budget), fair scheduling
//       (--slice-events), idle eviction to spool checkpoints
//       (--idle-timeout), and graceful drain on SIGTERM/SIGINT or
//       {"op":"shutdown"} — every open session is checkpointed to
//       --spool before exit and resumes with {"op":"open",...,
//       "resume":true}.
//
//   frontier_serve --connect (--socket PATH | --port N) [--script FILE]
//                  [--save-estimates DIR] [--expect-ok] [--retry N]
//       Scripted client, one request line per response line: sends each
//       non-comment line of FILE (default stdin) and prints the
//       response. --expect-ok exits nonzero on the first {"ok":false}
//       response; --save-estimates writes every estimates response as
//       DIR/<session>.json in exactly the format `frontier_cli stream
//       --estimates-json` writes, so CI can cmp served and offline
//       estimates byte for byte. --retry N survives daemon crashes:
//       the client reconnects with exponential backoff
//       (--retry-backoff-ms) and idempotently re-opens its sessions
//       with resume:true before replaying the interrupted request —
//       the crash harness drives exactly this path.
//
// The full protocol specification lives in docs/SERVER.md.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "core/frontier.hpp"
#include "stats/json.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FRONTIER_SERVE_HAS_SOCKETS 1
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define FRONTIER_SERVE_HAS_SOCKETS 0
#endif

namespace {

using namespace frontier;

using cli::CommandSpec;
using cli::OptionType;
using cli::ParsedArgs;

volatile std::sig_atomic_t g_stop = 0;

void handle_stop(int) { g_stop = 1; }

CommandSpec daemon_spec() {
  return {
      .program = "frontier_serve",
      .summary = "serve concurrent sampling sessions over a socket",
      .positionals = {{.name = "graph"}},
      .options = {
          {.name = "socket",
           .type = OptionType::kPath,
           .value_name = "PATH",
           .help = "listen on a Unix socket at PATH"},
          {.name = "port",
           .type = OptionType::kU64,
           .value_name = "N",
           .help = "listen on 127.0.0.1:N instead of a Unix socket",
           .min_u64 = 1},
          {.name = "spool",
           .type = OptionType::kPath,
           .value_name = "DIR",
           .help = "checkpoint spool directory (default serve-spool)"},
          {.name = "mmap",
           .type = OptionType::kFlag,
           .help = "require a zero-copy mmap load (.bin v2 snapshot)"},
          {.name = "max-sessions",
           .type = OptionType::kU64,
           .value_name = "N",
           .help = "server-wide open-session cap (default 64)",
           .min_u64 = 1},
          {.name = "max-per-tenant",
           .type = OptionType::kU64,
           .value_name = "N",
           .help = "per-tenant open-session cap (default 16)",
           .min_u64 = 1},
          {.name = "max-budget",
           .type = OptionType::kDouble,
           .value_name = "B",
           .help = "per-session budget cap (default 1e9)",
           .min_double = 0.0,
           .has_min_double = true,
           .exclusive_min = true},
          {.name = "max-step-events",
           .type = OptionType::kU64,
           .value_name = "N",
           .help = "largest single step request (default 1048576)",
           .min_u64 = 1},
          {.name = "slice-events",
           .type = OptionType::kU64,
           .value_name = "N",
           .help = "scheduler slice per session (default 16384)",
           .min_u64 = 1},
          {.name = "idle-timeout",
           .type = OptionType::kDouble,
           .value_name = "SEC",
           .help = "evict idle sessions to the spool (default 0 = never)",
           .min_double = 0.0,
           .has_min_double = true},
          {.name = "max-line-bytes",
           .type = OptionType::kU64,
           .value_name = "N",
           .help = "request line length cap (default 65536)",
           .min_u64 = 64},
          {.name = "metrics",
           .type = OptionType::kPath,
           .value_name = "FILE",
           .help = "write a schema-v1 telemetry snapshot at shutdown"},
      }};
}

CommandSpec client_spec() {
  return {
      .program = "frontier_serve",
      .summary = "scripted client for a running frontier_serve daemon",
      .options = {
          {.name = "connect",
           .type = OptionType::kFlag,
           .help = "client mode: send a request script, print responses"},
          {.name = "socket",
           .type = OptionType::kPath,
           .value_name = "PATH",
           .help = "connect to a Unix socket at PATH"},
          {.name = "port",
           .type = OptionType::kU64,
           .value_name = "N",
           .help = "connect to 127.0.0.1:N instead of a Unix socket",
           .min_u64 = 1},
          {.name = "script",
           .type = OptionType::kPath,
           .value_name = "FILE",
           .help = "request lines, one per line (default stdin; # comments)"},
          {.name = "save-estimates",
           .type = OptionType::kPath,
           .value_name = "DIR",
           .help = "write estimates responses as DIR/<session>.json"},
          {.name = "expect-ok",
           .type = OptionType::kFlag,
           .help = "exit nonzero on the first {\"ok\":false} response"},
          {.name = "retry",
           .type = OptionType::kU64,
           .value_name = "N",
           .help = "reconnect up to N times after a dropped connection, "
                   "resuming open sessions from the spool (default 0)"},
          {.name = "retry-backoff-ms",
           .type = OptionType::kU64,
           .value_name = "MS",
           .help = "initial reconnect backoff, doubled per consecutive "
                   "attempt (default 200)",
           .min_u64 = 1},
      }};
}

/// Both modes: exactly one of --socket / --port, checked up front so the
/// failure is a usage error, not a late socket error.
void require_one_endpoint(const CommandSpec& spec, const ParsedArgs& args) {
  if (args.has("socket") == args.has("port")) {
    throw cli::UsageError("exactly one of --socket and --port is required\n" +
                          spec.usage());
  }
  if (args.has("port") && args.get_u64("port", 0) > 65535) {
    throw cli::UsageError("--port must be at most 65535\n" + spec.usage());
  }
}

int run_daemon(const CommandSpec& spec, const ParsedArgs& args) {
  require_one_endpoint(spec, args);
  // Parse FS_BLOCK at startup: a bad value stops the daemon with "bad
  // argument:" instead of failing every later session open.
  (void)default_block_capacity();
  const std::string metrics_path = args.get_path("metrics");
  // Enable the library seams (graph-load telemetry) before the graph loads.
  if (!metrics_path.empty()) set_metrics_enabled(true);
  std::unique_ptr<MetricsExporter> exporter;
  if (!metrics_path.empty()) {
    exporter = std::make_unique<MetricsExporter>(MetricsRegistry::global(),
                                                 metrics_path, 0.0);
  }

  Graph g = cli::load_graph(args.positional()[0], args.get_flag("mmap"));
  std::cerr << "frontier_serve: " << g.summary()
            << (g.is_memory_mapped() ? " (mmap)" : "") << "\n";

  serve::ServeLimits limits;
  limits.max_sessions = args.get_u64("max-sessions", limits.max_sessions);
  limits.max_sessions_per_tenant =
      args.get_u64("max-per-tenant", limits.max_sessions_per_tenant);
  limits.max_budget = args.get_double("max-budget", limits.max_budget);
  limits.max_step_events =
      args.get_u64("max-step-events", limits.max_step_events);
  limits.slice_events = args.get_u64("slice-events", limits.slice_events);
  limits.idle_timeout_seconds =
      args.get_double("idle-timeout", limits.idle_timeout_seconds);
  limits.max_line_bytes =
      args.get_u64("max-line-bytes", limits.max_line_bytes);

  serve::ServeCore core(std::move(g), limits,
                        args.get_path("spool", "serve-spool"),
                        serve::ServeCore::Clock::now(),
                        &MetricsRegistry::global());
  serve::SocketServer server(
      core,
      serve::SocketConfig{
          .unix_socket = args.get_path("socket"),
          .tcp_port = static_cast<int>(args.get_u64("port", 0))},
      &std::cerr);

  std::signal(SIGTERM, handle_stop);
  std::signal(SIGINT, handle_stop);
#ifdef SIGPIPE
  // A client that disconnects mid-response must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
#endif

  (void)server.run(&g_stop);
  if (exporter) exporter->export_now();
  return 0;
}

#if FRONTIER_SERVE_HAS_SOCKETS

int connect_to(const CommandSpec& spec, const ParsedArgs& args) {
  require_one_endpoint(spec, args);
  int fd = -1;
  if (args.has("socket")) {
    const std::string path = args.get_path("socket");
    if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw IoError("connect: unix path too long: " + path);
    }
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
      throw IoError("connect: " + path + ": " + std::strerror(errno));
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(static_cast<std::uint16_t>(args.get_u64("port", 0)));
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
      throw IoError("connect: 127.0.0.1:" +
                    std::to_string(args.get_u64("port", 0)) + ": " +
                    std::strerror(errno));
    }
  }
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("connect: write: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string recv_line(int fd, std::string& buffer) {
  while (true) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("connect: read: ") + std::strerror(errno));
    }
    if (n == 0) throw IoError("connect: server closed the connection");
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Extracts the estimates-file payload from an estimates response. The
/// response is `{"ok":true,"op":"estimates","session":S,"events":...}`;
/// the file format `frontier_cli stream --estimates-json` writes is
/// `{"events":...}` — the same renderer (estimates_fields) produced both
/// textures, so slicing the envelope off reproduces the offline file
/// byte for byte.
std::string estimates_file_body(const std::string& response) {
  const std::size_t start = response.find("\"events\":");
  if (start == std::string::npos || response.empty() ||
      response.back() != '}') {
    throw IoError("connect: malformed estimates response: " + response);
  }
  std::string body = "{";
  body.append(response, start, response.size() - start - 1);
  body += "}\n";
  return body;
}

/// Best-effort (op, session) of a request line; empty fields when the
/// line is not valid JSON (the server will answer with bad-request).
struct RequestInfo {
  std::string op;
  std::string session;
};

RequestInfo classify_request(const std::string& line) {
  RequestInfo info;
  try {
    const json::Value doc = json::parse(line, "request");
    for (const auto& [key, value] : doc.members) {
      if (value.kind != json::Value::Kind::kString) continue;
      if (key == "op") info.op = value.text;
      if (key == "session") info.session = value.text;
    }
  } catch (const json::ParseError&) {
    // Not ours to validate; leave empty.
  }
  return info;
}

/// Rewrites an `open` request to `"resume":true` for replay after a
/// reconnect (the parser rejects duplicate keys, so the existing member
/// is replaced in place when present).
std::string with_resume(const std::string& open_line) {
  const std::size_t pos = open_line.find("\"resume\":");
  if (pos != std::string::npos) {
    std::size_t end = pos + std::string("\"resume\":").size();
    while (end < open_line.size() && open_line[end] != ',' &&
           open_line[end] != '}') {
      ++end;
    }
    return open_line.substr(0, pos) + "\"resume\":true" +
           open_line.substr(end);
  }
  const std::size_t brace = open_line.rfind('}');
  if (brace == std::string::npos) return open_line;
  return open_line.substr(0, brace) + ",\"resume\":true" +
         open_line.substr(brace);
}

/// The reconnecting client: connection drops are retried with
/// exponential backoff, and every session this script opened (and has
/// not closed) is re-established first — `resume:true` against the
/// daemon's spool, falling back to a fresh open when the daemon died
/// before its first spool write. Because a resumed engine restores the
/// exact checkpointed state and completion is budget-determined, the
/// replayed crawl converges to the same final bytes as an uncrashed
/// run (the crash harness cmp's exactly this).
class ClientConnection {
 public:
  ClientConnection(const CommandSpec& spec, const ParsedArgs& args)
      : spec_(spec),
        args_(args),
        retries_(args.get_u64("retry", 0)),
        backoff_ms_(args.get_u64("retry-backoff-ms", 200)) {
    fd_ = connect_to(spec_, args_);
  }
  ~ClientConnection() {
    if (fd_ >= 0) (void)::close(fd_);
  }
  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;

  /// Sends one script line and returns the response, reconnecting and
  /// replaying session opens when the connection drops mid-request.
  std::string request(const std::string& line) {
    const RequestInfo info = classify_request(line);
    std::uint64_t attempts = 0;
    while (true) {
      try {
        const std::string response = roundtrip(line);
        track(info, response);
        return response;
      } catch (const IoError& e) {
        if (attempts >= retries_) throw;
        ++attempts;
        std::cerr << "connect: connection lost (" << e.what()
                  << "); retry " << attempts << "/" << retries_ << "\n";
        try {
          reconnect(attempts);
        } catch (const IoError& re) {
          // The daemon is not back yet (connection refused while it
          // restarts): the attempt is spent, the next loop iteration
          // fails fast on the dead fd and backs off longer.
          std::cerr << "connect: reconnect failed (" << re.what() << ")\n";
        }
      }
    }
  }

 private:
  std::string roundtrip(const std::string& line) {
    send_all(fd_, line + "\n");
    return recv_line(fd_, buffer_);
  }

  /// Remembers which sessions are open and the line that opened them,
  /// so reconnects know what to re-establish.
  void track(const RequestInfo& info, const std::string& response) {
    if (response.rfind("{\"ok\":true", 0) != 0) return;
    if (info.op == "open" && !info.session.empty()) {
      open_lines_[info.session] = last_open_line_;
    } else if (info.op == "close" && !info.session.empty()) {
      open_lines_.erase(info.session);
    }
  }

  void reconnect(std::uint64_t attempt) {
    if (fd_ >= 0) (void)::close(fd_);
    fd_ = -1;
    buffer_.clear();
    const std::uint64_t shift = std::min<std::uint64_t>(attempt - 1, 16);
    const auto delay = std::chrono::milliseconds(backoff_ms_ << shift);
    std::this_thread::sleep_for(delay);
    fd_ = connect_to(spec_, args_);  // throws IoError; request() counts it
    replay_opens();
  }

  /// Re-establishes every open session on the fresh connection. Replay
  /// responses go to stderr so stdout stays one response per script
  /// line.
  void replay_opens() {
    for (const auto& [session, open_line] : open_lines_) {
      std::string response = roundtrip(with_resume(open_line));
      if (response.rfind("{\"ok\":false,\"error\":\"bad-checkpoint\"", 0) ==
          0) {
        // The daemon died before this session's first spool write:
        // nothing to resume, so start it fresh — deterministic from the
        // seed, so the final bytes still match an uncrashed run.
        response = roundtrip(open_line);
      }
      std::cerr << "connect: re-established \"" << session
                << "\": " << response << "\n";
    }
  }

  const CommandSpec& spec_;
  const ParsedArgs& args_;
  std::uint64_t retries_;
  std::uint64_t backoff_ms_;
  int fd_ = -1;
  std::string buffer_;
  std::map<std::string, std::string> open_lines_;

 public:
  /// request() needs the raw line that performed an open; the caller
  /// sets it just before calling (kept out of the signature so the
  /// retry loop replays the same bytes).
  std::string last_open_line_;
};

int run_client(const CommandSpec& spec, const ParsedArgs& args) {
  const std::string script_path = args.get_path("script");
  std::ifstream script_file;
  if (!script_path.empty()) {
    script_file.open(script_path);
    if (!script_file) {
      throw IoError("connect: cannot open script " + script_path);
    }
  }
  std::istream& script = script_path.empty() ? std::cin : script_file;

  const std::string estimates_dir = args.get_path("save-estimates");
  if (!estimates_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(estimates_dir, ec);
    if (ec) {
      throw IoError("connect: cannot create " + estimates_dir + ": " +
                    ec.message());
    }
  }
  const bool expect_ok = args.get_flag("expect-ok");

#ifdef SIGPIPE
  // A daemon killed mid-request must surface as a retryable IoError from
  // write(2) (EPIPE), not as SIGPIPE terminating the client.
  std::signal(SIGPIPE, SIG_IGN);
#endif

  ClientConnection conn(spec, args);
  std::string line;
  int status = 0;
  while (std::getline(script, line)) {
    if (line.empty() || line[0] == '#') continue;
    conn.last_open_line_ = line;
    const std::string response = conn.request(line);
    std::cout << response << "\n";
    if (expect_ok && response.rfind("{\"ok\":false", 0) == 0) {
      std::cerr << "connect: request failed: " << line << "\n";
      status = 1;
      break;
    }
    if (!estimates_dir.empty() &&
        response.rfind("{\"ok\":true,\"op\":\"estimates\"", 0) == 0) {
      // The session id names the output file; parse-don't-scan for it.
      const json::Value doc = json::parse(response, "serve response");
      const std::string session =
          json::get_string(doc, "session", "serve response");
      const std::string path = estimates_dir + "/" + session + ".json";
      durable_write_file(path, estimates_file_body(response));
    }
  }
  return status;
}

#else  // !FRONTIER_SERVE_HAS_SOCKETS

int run_client(const CommandSpec&, const ParsedArgs&) {
  throw IoError("connect: no socket support on this platform");
}

#endif  // FRONTIER_SERVE_HAS_SOCKETS

}  // namespace

int main(int argc, char** argv) {
  bool client = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--connect") client = true;
  }
  try {
    const CommandSpec spec = client ? client_spec() : daemon_spec();
    const ParsedArgs args = spec.parse(argc, argv, 1);
    return client ? run_client(spec, args) : run_daemon(spec, args);
  } catch (const IoError& e) {
    std::cerr << "io error: " << e.what() << "\n";
    return 1;
  } catch (const std::invalid_argument& e) {
    std::cerr << "bad argument: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
