// serve: the real frontier_serve daemon on the seed graph's v2 snapshot
// (--mmap), over a Unix socket, driven by one client process in a closed
// loop over kConns connections. Each connection owns one session per
// cursor (fs/srw/mrw/mh/rwj) and sends a seeded script of small steps
// interleaved with estimates reads, a checkpoint every kCheckpointEvery
// events a session steps and, every other time, close + open(resume:true)
// after it (the client model in workloads.hpp).
//
// The layer sweep replays the same scripts in-process against ServeCore,
// timing parse_request, handle_line and pump_slice from outside.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "graph/io.hpp"
#include "random/rng.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "stats/json.hpp"
#include "stream/spec.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace frontier;
using serve::Op;

constexpr std::size_t kConns = 3;
constexpr std::size_t kSetupReps = 25;
constexpr double kWarmSeconds = 0.5;
constexpr std::size_t kRateWindows = 40;
constexpr double kSessionBudget = 1e8;

struct SessionDef {
  std::string id;
  CrawlSpec spec;
};

/// kConns x 5 sessions; connection c owns sessions [5c, 5c + 5).
std::vector<SessionDef> session_defs(std::uint64_t seed) {
  std::vector<SessionDef> out;
  for (std::size_t c = 0; c < kConns; ++c) {
    for (std::size_t k = 0; k < CrawlSpec::methods().size(); ++k) {
      CrawlSpec spec;
      spec.method = CrawlSpec::methods()[k];
      spec.budget = kSessionBudget;
      spec.seed = seed * 1000 + c * 10 + k;
      std::string id = "c";
      id.append(std::to_string(c)).append("-").append(spec.method);
      out.push_back({std::move(id), spec.normalized()});
    }
  }
  return out;
}

std::string open_line(const SessionDef& s, bool resume) {
  return "{\"op\":\"open\",\"session\":" + json::quote(s.id) +
         ",\"method\":" + json::quote(s.spec.method) +
         ",\"budget\":" + json::number(s.spec.budget) +
         ",\"seed\":" + std::to_string(s.spec.seed) +
         ",\"dimension\":" + std::to_string(s.spec.dimension) +
         (resume ? ",\"resume\":true}" : "}");
}

std::string session_line(const char* op, const std::string& id) {
  return std::string("{\"op\":\"") + op + "\",\"session\":" + json::quote(id) +
         "}";
}

struct Request {
  Op op = Op::kStats;
  std::size_t session = 0;  ///< index into session_defs
  bool resume = false;
  std::string line;
};

/// One connection's request script, drawn from the seed with the client
/// model in workloads.hpp.
class Script {
 public:
  Script(const std::vector<SessionDef>& defs, std::size_t conn,
         std::uint64_t seed)
      : defs_(defs),
        first_(conn * CrawlSpec::methods().size()),
        rng_(Rng(seed ^ 0x5e7e5c71ULL).split_stream(conn)),
        cadence_(CrawlSpec::methods().size()) {
    for (Cadence& c : cadence_) {
      c.stepped = uniform_index(rng_, kCheckpointEvery);
      c.checkpoints = uniform_index(rng_, kResumeEveryCheckpoints);
    }
  }

  /// The opens that start the connection's sessions.
  [[nodiscard]] std::vector<Request> opens() const {
    std::vector<Request> out;
    for (std::size_t k = 0; k < CrawlSpec::methods().size(); ++k) {
      out.push_back({Op::kOpen, first_ + k, false,
                     open_line(defs_[first_ + k], false)});
    }
    return out;
  }

  /// True while a close/open cycle is half done (stopping now would
  /// leave a session closed).
  [[nodiscard]] bool mid_cycle() const noexcept { return !pending_.empty(); }

  Request next() {
    if (!pending_.empty()) {
      Request r = std::move(pending_.front());
      pending_.pop_front();
      return r;
    }
    const std::size_t s =
        first_ + uniform_index(rng_, CrawlSpec::methods().size());
    const std::string& id = defs_[s].id;
    Cadence& cadence = cadence_[s - first_];
    if (cadence.stepped >= kCheckpointEvery) {
      cadence.stepped -= kCheckpointEvery;
      if (++cadence.checkpoints % kResumeEveryCheckpoints == 0) {
        pending_.push_back({Op::kClose, s, false, session_line("close", id)});
        pending_.push_back({Op::kOpen, s, true, open_line(defs_[s], true)});
      }
      return {Op::kCheckpoint, s, false, session_line("checkpoint", id)};
    }
    if (uniform01(rng_) < kEstimatesShare) {
      return {Op::kEstimates, s, false, session_line("estimates", id)};
    }
    const std::uint64_t events =
        kMinStep + uniform_index(rng_, kMaxStep - kMinStep + 1);
    cadence.stepped += events;
    return {Op::kStep, s, false,
            "{\"op\":\"step\",\"session\":" + json::quote(id) +
                ",\"events\":" + std::to_string(events) + "}"};
  }

 private:
  /// Where a session is in its checkpoint cadence.
  struct Cadence {
    std::uint64_t stepped = 0;  ///< events requested since its checkpoint
    std::uint64_t checkpoints = 0;
  };

  const std::vector<SessionDef>& defs_;
  std::size_t first_;
  Rng rng_;
  std::vector<Cadence> cadence_;  // by session, from first_
  std::deque<Request> pending_;
};

/// Integer field `"key":N` of a response line; nullopt when absent.
std::optional<std::uint64_t> field_u64(const std::string& line,
                                       std::string_view key) {
  std::string needle = "\"";
  needle.append(key).append("\":");
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::uint64_t v = 0;
  std::size_t i = at + needle.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return std::nullopt;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    v = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
  }
  return v;
}

bool is_ok(const std::string& line) {
  return line.rfind("{\"ok\":true", 0) == 0;
}

/// What an offline engine of the session, pumped to `events`, answers to
/// {"op":"estimates"} — built by the same make_engine path.
std::string offline_estimates(const SessionDef& s, const Graph& g,
                              std::uint64_t events) {
  const auto engine = s.spec.make_engine(g);
  engine->pump(events);
  return serve::ok_response(Op::kEstimates,
                            "\"session\":" + json::quote(s.id) + "," +
                                estimates_fields(s.spec, *engine));
}

/// Checks every session's final estimates response against an offline
/// replay, on up to `threads` workers. Returns the mismatching ids.
std::vector<std::string> verify_estimates(
    const std::vector<SessionDef>& defs, const Graph& g,
    const std::vector<std::string>& responses, unsigned threads) {
  std::vector<char> bad(defs.size(), 0);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < defs.size(); i = next++) {
        const auto events = field_u64(responses[i], "events");
        bad[i] = !events || offline_estimates(defs[i], g, *events) !=
                                responses[i];
      }
    });
  }
  for (auto& t : pool) t.join();
  std::vector<std::string> out;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (bad[i] != 0) out.push_back(defs[i].id);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The daemon process and the client transport.

class Daemon {
 public:
  /// Starts the daemon; the socket and spool paths must not exist
  /// (see clear_paths).
  Daemon(const Options& opt, const std::string& graph,
         const std::string& socket, const std::string& spool) {
    const std::string log = opt.run_dir + "/serve-daemon.log";
    std::vector<std::string> args = {opt.serve_bin, graph,  "--mmap",
                                     "--socket",    socket, "--spool",
                                     spool};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid_, opt.serve_bin.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      throw std::runtime_error("spawn " + opt.serve_bin + ": " +
                               std::strerror(rc));
    }
  }
  /// Removes what an earlier daemon left at these paths.
  static void clear_paths(const std::string& socket,
                          const std::string& spool) {
    std::filesystem::remove(socket);
    std::filesystem::remove_all(spool);
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      (void)wait(5.0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits up to `timeout_s` for the process to exit; true iff it exited
  /// with status 0.
  bool wait(double timeout_s) {
    const std::uint64_t start = now_ns();
    while (pid_ > 0) {
      int status = 0;
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      if (r < 0 || seconds_since(start) > timeout_s) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  [[nodiscard]] bool running() {
    if (pid_ > 0 && ::waitpid(pid_, nullptr, WNOHANG) == pid_) pid_ = -1;
    return pid_ > 0;
  }

  /// VmHWM (peak resident set) from /proc, MiB.
  [[nodiscard]] double peak_rss_mib() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // kB
      }
    }
    return 0.0;
  }

 private:
  pid_t pid_ = -1;
};

class Conn {
 public:
  /// Connects to a Unix socket, retrying while the daemon starts up.
  Conn(const std::string& path, Daemon& daemon) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const std::uint64_t start = now_ns();
    while (true) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      if (!daemon.running() || seconds_since(start) > 30.0) {
        throw std::runtime_error("cannot connect to the daemon at " + path);
      }
      // Retry at once: a sleep's timer slack would add up to ~0.1 ms of
      // noise to the millisecond-scale set-up time.
      std::this_thread::yield();
    }
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }

  void send(const std::string& line) {
    std::string data = line + "\n";
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::write(fd_, data.data() + sent, data.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("write to the daemon failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// A complete buffered line, if any.
  std::optional<std::string> take_line() {
    const std::size_t nl = buf_.find('\n');
    if (nl == std::string::npos) return std::nullopt;
    std::string line = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return line;
  }

  /// Reads what is available (after poll said readable).
  void fill() {
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) return;
    if (n <= 0) throw std::runtime_error("the daemon closed the connection");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Closed loop: every idle connection sends next(c) (an empty optional
/// means "nothing more on c"); each reply is handed to on_reply(c, request,
/// response, latency_ns). Returns when no connection has anything left.
template <typename Next, typename OnReply>
void closed_loop(std::vector<std::unique_ptr<Conn>>& conns, Next next,
                 OnReply on_reply) {
  struct InFlight {
    Request req;
    std::uint64_t sent = 0;
  };
  std::vector<std::optional<InFlight>> inflight(conns.size());
  while (true) {
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (inflight[c]) continue;
      std::optional<Request> req = next(c);
      if (!req) continue;
      inflight[c] = InFlight{std::move(*req), now_ns()};
      conns[c]->send(inflight[c]->req.line);
    }
    std::vector<pollfd> fds;
    std::vector<std::size_t> which;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (!inflight[c]) continue;
      fds.push_back({conns[c]->fd(), POLLIN, 0});
      which.push_back(c);
    }
    if (fds.empty()) return;
    // Spin on zero-timeout polls: a client blocked in poll() would add a
    // cross-CPU wakeup (a VM exit, on a virtual machine) to every round
    // trip, which is mostly noise.
    const std::uint64_t wait_start = now_ns();
    while (::poll(fds.data(), fds.size(), 0) <= 0) {
      if (seconds_since(wait_start) > 30.0) {
        throw std::runtime_error("no reply from the daemon within 30 s");
      }
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const std::size_t c = which[i];
      conns[c]->fill();
      if (auto line = conns[c]->take_line()) {
        const std::uint64_t latency = now_ns() - inflight[c]->sent;
        const Request req = std::move(inflight[c]->req);
        inflight[c].reset();
        on_reply(c, req, *line, latency);
      }
    }
  }
}

/// Sends each connection's `lists[c]` in order, closed loop; returns the
/// replies in the same shape. Connections past lists.size() send nothing.
std::vector<std::vector<std::string>> send_lists(
    std::vector<std::unique_ptr<Conn>>& conns,
    const std::vector<std::vector<Request>>& lists) {
  std::vector<std::size_t> pos(conns.size(), 0);
  std::vector<std::vector<std::string>> replies(conns.size());
  closed_loop(
      conns,
      [&](std::size_t c) -> std::optional<Request> {
        if (c >= lists.size() || pos[c] >= lists[c].size()) {
          return std::nullopt;
        }
        return lists[c][pos[c]++];
      },
      [&](std::size_t c, const Request&, const std::string& line,
          std::uint64_t) { replies[c].push_back(line); });
  return replies;
}

std::vector<std::unique_ptr<Conn>> connect_all(const std::string& socket,
                                               Daemon& daemon,
                                               std::size_t n) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (std::size_t c = 0; c < n; ++c) {
    conns.push_back(std::make_unique<Conn>(socket, daemon));
  }
  return conns;
}

/// Sends {"op":"shutdown"} and waits for the daemon to drain and exit.
bool shut_down(std::vector<std::unique_ptr<Conn>>& conns, Daemon& daemon) {
  const auto replies = send_lists(
      conns, {{Request{Op::kShutdown, 0, false, "{\"op\":\"shutdown\"}"}}});
  conns.clear();
  return is_ok(replies[0].at(0)) && daemon.wait(30.0);
}

/// Reads a file once so the timed runs start from a warm page cache.
void warm_page_cache(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> buf(1 << 20);
  while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         in.gcount() > 0) {
  }
}

}  // namespace

Report serve_end_to_end(const Options& opt, const Inputs& in) {
  Report rep;
  const std::vector<SessionDef> defs = session_defs(opt.seed);
  std::vector<Script> scripts;
  for (std::size_t c = 0; c < kConns; ++c) {
    scripts.emplace_back(defs, c, opt.seed);
  }
  warm_page_cache(in.ba_bin);
  const std::string socket = "serve.sock";  // relative: run_dir is the cwd

  // Set-up: daemon exec until every session is open, kSetupReps times;
  // the last daemon serves the timed window. The others are killed, not
  // shut down: a shutdown drains 15 fsync'd checkpoints, and with that
  // disk traffic between starts the starts took about twice as long.
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Conn>> conns;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    if (daemon) {
      conns.clear();
      daemon.reset();  // SIGKILL, then waits for the exit
    }
    const std::string spool = "spool-" + std::to_string(k);
    Daemon::clear_paths(socket, spool);
    const std::uint64_t t0 = now_ns();
    daemon = std::make_unique<Daemon>(opt, in.ba_bin, socket, spool);
    conns = connect_all(socket, *daemon, kConns);
    std::vector<std::vector<Request>> opens;
    for (const Script& s : scripts) opens.push_back(s.opens());
    const auto replies = send_lists(conns, opens);
    setup.push_back(seconds_since(t0));
    for (const auto& list : replies) {
      for (const std::string& r : list) {
        rep.attempted();
        rep.check(is_ok(r), "serve: open failed: " + r);
      }
    }
  }

  // Per-session stepped tallies; every reply is checked.
  std::vector<std::uint64_t> tally(defs.size(), 0);
  LatencyLog step_us(1000);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> completions;
  bool timing = false;
  std::uint64_t resumes = 0;
  std::map<Op, std::uint64_t> issued;  // timed window's requests by op
  const auto on_reply = [&](std::size_t, const Request& req,
                            const std::string& line, std::uint64_t ns) {
    rep.attempted();
    if (!is_ok(line)) {
      rep.fail("serve: " + req.line + " -> " + line);
      return;
    }
    resumes += req.resume ? 1 : 0;
    if (timing) ++issued[req.op];
    if (req.op != Op::kStep) return;
    const std::uint64_t stepped = field_u64(line, "stepped").value_or(0);
    tally[req.session] += stepped;
    if (timing) {
      completions.emplace_back(now_ns(), stepped);
      step_us.add(static_cast<double>(ns) * 1e-3);
    }
  };
  const auto run_script_until = [&](double seconds, auto&& extra_done) {
    const std::uint64_t start = now_ns();
    closed_loop(
        conns,
        [&](std::size_t c) -> std::optional<Request> {
          if ((seconds_since(start) >= seconds && extra_done()) &&
              !scripts[c].mid_cycle()) {
            return std::nullopt;
          }
          return scripts[c].next();
        },
        on_reply);
  };

  // Warm-up: one step per session, then the script, untimed.
  {
    std::vector<std::vector<Request>> warm(kConns);
    for (std::size_t i = 0; i < defs.size(); ++i) {
      warm[i / CrawlSpec::methods().size()].push_back(
          {Op::kStep, i, false,
           "{\"op\":\"step\",\"session\":" + json::quote(defs[i].id) +
               ",\"events\":64}"});
    }
    std::vector<std::size_t> pos(kConns, 0);
    closed_loop(
        conns,
        [&](std::size_t c) -> std::optional<Request> {
          if (pos[c] >= warm[c].size()) return std::nullopt;
          return warm[c][pos[c]++];
        },
        on_reply);
    run_script_until(kWarmSeconds, [] { return true; });
  }

  timing = true;
  const std::uint64_t window_start = now_ns();
  // The window also runs until a close/resume cycle has been checked.
  run_script_until(opt.seconds, [&] {
    return step_us.count() >= kMinLatencySamples && resumes > 0;
  });
  const double window = seconds_since(window_start);
  timing = false;
  std::cout << "serve: timed window requests:";
  for (const auto& [op, n] : issued) {
    std::cout << " " << serve::op_name(op) << "=" << n;
  }
  std::cout << "\n";

  // Final estimates of every session, then the daemon's peak RSS, then
  // drain and exit.
  std::vector<std::vector<Request>> finals(kConns);
  for (std::size_t i = 0; i < defs.size(); ++i) {
    finals[i / CrawlSpec::methods().size()].push_back(
        {Op::kEstimates, i, false, session_line("estimates", defs[i].id)});
  }
  const auto final_replies = send_lists(conns, finals);
  std::vector<std::string> responses;
  for (const auto& list : final_replies) {
    responses.insert(responses.end(), list.begin(), list.end());
  }
  const double rss = daemon->peak_rss_mib();
  rep.attempted();
  rep.check(shut_down(conns, *daemon), "serve: daemon did not shut down");
  daemon.reset();

  // Served estimates == offline make_engine replays at the same count, and
  // no stepped event went missing across close/resume cycles.
  const Graph g = read_binary_file(in.ba_bin);
  for (std::size_t i = 0; i < defs.size(); ++i) {
    rep.attempted();
    rep.check(field_u64(responses[i], "events") == tally[i],
              "serve: " + defs[i].id + " events != stepped tally");
  }
  for (const std::string& id :
       verify_estimates(defs, g, responses, opt.threads)) {
    rep.fail("serve: served estimates of " + id + " differ from offline");
  }

  // Throughput: the median over kRateWindows equal sub-windows.
  std::vector<double> window_events(kRateWindows, 0.0);
  for (const auto& [t, stepped] : completions) {
    const double at = static_cast<double>(t - window_start) * 1e-9;
    const auto w = std::min<std::size_t>(
        kRateWindows - 1, static_cast<std::size_t>(
                              at / window * static_cast<double>(kRateWindows)));
    window_events[w] += static_cast<double>(stepped);
  }
  for (double& e : window_events) {
    e /= window / static_cast<double>(kRateWindows);
  }

  rep.metric("setup_s", median(setup), "s");
  rep.metric("events_per_s", median(window_events), "1/s");
  rep.metric("peak_rss_mib", rss, "MiB");
  rep.metric("step_p50_us", step_us.p50(), "us");
  rep.metric("step_p90_us", step_us.p90(), "us");
  return rep;
}

Report serve_layers(const Options& opt, const Inputs& in, double seconds,
                    bool main) {
  Report rep;
  const std::vector<SessionDef> defs = session_defs(opt.seed);

  std::vector<double> load_ms;
  std::optional<Graph> g;
  for (std::size_t k = 0; k < (main ? 9u : 3u); ++k) {
    g.reset();
    const std::uint64_t t0 = now_ns();
    g.emplace(read_binary_file(in.ba_bin));
    load_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  rep.metric("graph.mmap_load_ms", median(load_ms), "ms");
  // Touch the mapped CSR so page faults stay out of the timed loop.
  std::uint64_t touch = 0;
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    for (VertexId w : g->neighbors(v)) touch += w;
  }
  rep.check(touch > 0, "serve: empty graph");

  std::filesystem::remove_all("spool-inproc");
  serve::ServeCore core(*g, serve::ServeLimits{}, "spool-inproc",
                        Clock::now());
  std::vector<Script> scripts;
  for (std::size_t c = 0; c < kConns; ++c) {
    scripts.emplace_back(defs, c, opt.seed);
  }

  SpanLog log(0);
  const std::uint32_t parse_id = log.name_id("serve.protocol.parse_request");
  const std::uint32_t pump_id = log.name_id("serve.core.pump_slice");
  std::uint32_t handle_id[7];
  for (int op = 0; op <= static_cast<int>(Op::kShutdown); ++op) {
    handle_id[op] = log.name_id("serve.core.handle_line." +
                                std::string(serve::op_name(Op(op))));
  }

  std::vector<double> open_us;
  std::vector<double> resume_us;
  std::map<Op, std::vector<double>> handle_ns;
  std::vector<double> queue_wait_us;
  std::uint64_t traced_lines = 0;
  std::uint64_t traced_stepped = 0;
  std::vector<std::string> last_estimates(defs.size());

  struct SimConn {
    bool busy = false;
    std::uint64_t deferred_at = 0;
    std::uint64_t pump_ns = 0;
    Request req;
  };
  std::vector<SimConn> sim(kConns);
  std::deque<std::size_t> fifo;  // connections with a deferred step job

  const auto reply = [&](std::size_t c, const std::string& line) {
    rep.attempted();
    sim[c].busy = false;
    if (!is_ok(line)) rep.fail("serve (in-process): " + sim[c].req.line +
                               " -> " + line);
  };

  // Opens (timed: serve.session.open_us).
  for (std::size_t c = 0; c < kConns; ++c) {
    for (const Request& r : scripts[c].opens()) {
      sim[c].req = r;
      const std::uint64_t t0 = now_ns();
      const auto out = core.handle_line(c, r.line, Clock::now());
      open_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      reply(c, out.response);
    }
  }

  // One phase of the simulated closed loop: every idle connection issues
  // its next request, then one scheduler slice runs. Returns events stepped.
  const auto run_phase = [&](double phase_seconds, bool traced) {
    std::uint64_t stepped_total = 0;
    const std::uint64_t start = now_ns();
    while (seconds_since(start) < phase_seconds || !fifo.empty() ||
           std::any_of(scripts.begin(), scripts.end(),
                       [](const Script& s) { return s.mid_cycle(); })) {
      const bool stopping = seconds_since(start) >= phase_seconds;
      for (std::size_t c = 0; c < kConns; ++c) {
        if (sim[c].busy || (stopping && !scripts[c].mid_cycle())) continue;
        sim[c].req = scripts[c].next();
        sim[c].busy = true;
        const std::string& line = sim[c].req.line;
        if (traced) {
          log.open(parse_id);
          try {
            (void)serve::parse_request(line);
          } catch (const serve::WireError&) {
          }
          log.close();
          ++traced_lines;
        }
        const std::uint64_t t0 = now_ns();
        if (traced) log.open_at(handle_id[static_cast<int>(sim[c].req.op)], t0);
        const auto out = core.handle_line(c, line, Clock::now());
        const std::uint64_t t1 = now_ns();
        if (traced) {
          log.close_at(t1);
          handle_ns[sim[c].req.op].push_back(static_cast<double>(t1 - t0));
        }
        if (sim[c].req.resume) {
          resume_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        }
        if (out.deferred) {
          sim[c].deferred_at = t1;
          sim[c].pump_ns = 0;
          fifo.push_back(c);
        } else {
          reply(c, out.response);
        }
      }
      if (!core.has_runnable()) continue;
      const std::uint64_t t0 = now_ns();
      if (traced) log.open_at(pump_id, t0);
      const auto done = core.pump_slice(Clock::now());
      const std::uint64_t t1 = now_ns();
      if (traced) log.close_at(t1);
      const std::size_t c = fifo.front();
      sim[c].pump_ns += t1 - t0;
      if (!done) continue;
      fifo.pop_front();
      rep.check(done->conn == c, "serve (in-process): slice order");
      const std::uint64_t stepped =
          field_u64(done->response, "stepped").value_or(0);
      stepped_total += stepped;
      if (traced) {
        traced_stepped += stepped;
        queue_wait_us.push_back(
            static_cast<double>(t1 - sim[c].deferred_at - sim[c].pump_ns) *
            1e-3);
      }
      reply(c, done->response);
    }
    return static_cast<double>(stepped_total) / seconds_since(start);
  };

  // Untimed warm-up, then alternating untraced / traced phases.
  (void)run_phase(kWarmSeconds / 2, false);
  log.clear();
  std::vector<double> rate_off;
  std::vector<double> rate_on;
  const std::uint64_t start = now_ns();
  while (seconds_since(start) < seconds ||
         queue_wait_us.size() < kMinLatencySamples ||
         handle_ns[Op::kCheckpoint].empty() || resume_us.empty()) {
    rate_off.push_back(run_phase(0.25, false));
    rate_on.push_back(run_phase(0.25, true));
  }

  // Checkpoint layer: every session's state saved and restored in memory.
  std::uint64_t ckpt_bytes = 0;
  std::uint64_t save_ns = 0;
  std::uint64_t load_ns = 0;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const serve::Session* s = core.registry().find(defs[i].id);
    if (s == nullptr) {
      rep.fail("serve (in-process): session " + defs[i].id + " missing");
      continue;
    }
    for (int k = 0; k < 3; ++k) {
      std::ostringstream os;
      std::uint64_t t0 = now_ns();
      s->engine().save_checkpoint(os);
      save_ns += now_ns() - t0;
      const std::string bytes = os.str();
      ckpt_bytes += bytes.size();
      const auto engine = defs[i].spec.make_engine(*g);
      std::istringstream is(bytes);
      t0 = now_ns();
      engine->load_checkpoint(is);
      load_ns += now_ns() - t0;
    }
    const auto out = core.handle_line(
        0, session_line("estimates", defs[i].id), Clock::now());
    last_estimates[i] = out.response;
  }
  for (const std::string& id :
       verify_estimates(defs, *g, last_estimates, opt.threads)) {
    rep.fail("serve (in-process): estimates of " + id +
             " differ from offline");
  }

  // Transport: the stats round trip against the real daemon.
  std::vector<double> stats_us;
  {
    Daemon::clear_paths("stats.sock", "spool-stats");
    Daemon daemon(opt, in.ba_bin, "stats.sock", "spool-stats");
    auto conns = connect_all("stats.sock", daemon, 1);
    const Request stats{Op::kStats, 0, false, "{\"op\":\"stats\"}"};
    std::size_t sent = 0;
    closed_loop(
        conns,
        [&](std::size_t) -> std::optional<Request> {
          if (sent++ >= 2200) return std::nullopt;
          return stats;
        },
        [&](std::size_t, const Request&, const std::string& line,
            std::uint64_t ns) {
          rep.attempted();
          rep.check(is_ok(line), "serve: stats failed: " + line);
          if (sent > 200) stats_us.push_back(static_cast<double>(ns) * 1e-3);
        });
    rep.check(shut_down(conns, daemon), "serve: daemon did not shut down");
  }

  const auto events = static_cast<double>(traced_stepped);
  rep.metric("serve.protocol.parse_ns_per_line",
             static_cast<double>(log.total("serve.protocol.parse_request")
                                     .total_ns) /
                 static_cast<double>(traced_lines),
             "ns");
  rep.metric("serve.core.handle_ns.step", median(handle_ns[Op::kStep]), "ns");
  rep.metric("serve.core.handle_ns.estimates",
             median(handle_ns[Op::kEstimates]), "ns");
  rep.metric("serve.core.handle_ns.checkpoint",
             median(handle_ns[Op::kCheckpoint]), "ns");
  rep.metric("serve.core.pump_ns_per_event",
             static_cast<double>(log.total("serve.core.pump_slice").total_ns) /
                 events,
             "ns");
  rep.metric("serve.core.queue_wait_p50_us", median(queue_wait_us), "us");
  rep.metric("serve.core.queue_wait_p99_us", quantile(queue_wait_us, 0.99),
             "us");
  rep.metric("serve.socket.stats_rtt_us", median(stats_us), "us");
  rep.metric("serve.session.open_us", median(open_us), "us");
  rep.metric("serve.session.resume_us", median(resume_us), "us");
  rep.metric("stream.checkpoint.bytes",
             static_cast<double>(ckpt_bytes) / (3.0 * defs.size()), "bytes");
  rep.metric("stream.checkpoint.save_ns_per_byte",
             static_cast<double>(save_ns) / static_cast<double>(ckpt_bytes),
             "ns");
  rep.metric("stream.checkpoint.load_ns_per_byte",
             static_cast<double>(load_ns) / static_cast<double>(ckpt_bytes),
             "ns");
  if (main) {
    rep.metric("trace.overhead_pct",
               (median(rate_off) / median(rate_on) - 1.0) * 100.0, "%");
  }
  write_spans(opt.run_dir + "/spans-serve.jsonl", {&log});
  return rep;
}

}  // namespace perfbench
