// Workload `serve`: a real `rtpd --jobs=2` under closed-loop traffic from
// 3 connections of this process (each caller waits for its reply), so 3
// outstanding requests on 2 workers build a real queue. The corpus is
// exam documents of 256 candidates; the mix is fixed paper queries:
// eval (marks, R3), checkfd (fd1, fd2, fd5) and matrix (fd5 x U with the
// exam schema). Every reply is compared with the same query evaluated
// in-process on the same document text.
//
// setup_s runs from spawn until the last corpus load is acknowledged;
// readiness is rtpd's "serving on" line. It is the median of several
// fresh servers; the last one takes the measured traffic.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "exam_corpus.h"
#include "fd/fd_checker.h"
#include "harness.h"
#include "independence/criterion.h"
#include "pattern/evaluator.h"
#include "pattern/pattern_parser.h"
#include "serve/client.h"
#include "workload/paper_patterns.h"
#include "xml/xml_io.h"

extern char** environ;

namespace perfbench {
namespace {

using rtp::StatusOr;
using rtp::serve::Client;

constexpr uint32_t kCandidates = 256;
constexpr int kDocs = 8;
constexpr int kConnections = 3;
constexpr int kSetupRepeats = 15;
const char kTenant[] = "bench";

// No call may block forever; a slow reply fails the op instead.
StatusOr<Client> Connect(const std::string& socket_path) {
  rtp::serve::ClientOptions options;
  options.call_timeout_ms = 60000;
  return Client::Connect(socket_path, options);
}

enum class Kind { kEvalMarks, kEvalR3, kCheckFd1, kCheckFd2, kCheckFd5,
                  kMatrix };
constexpr int kNumKinds = 6;
const char* const kKindNames[] = {"eval_marks", "eval_r3", "checkfd_fd1",
                                  "checkfd_fd2", "checkfd_fd5", "matrix"};
// Query text per kind: a marks query, then the paper's R3, fd1, fd2 and
// fd5; the matrix pairs fd5 with the paper's U.
const std::string& QueryText(Kind kind) {
  static const std::vector<std::string> texts = {
      "root { session/candidate/exam { s = mark; } } select s;",
      PatternText(rtp::workload::PaperR3),
      PatternText(rtp::workload::PaperFd1),
      PatternText(rtp::workload::PaperFd2),
      PatternText(rtp::workload::PaperFd5),
      PatternText(rtp::workload::PaperFd5)};
  return texts[static_cast<int>(kind)];
}

const std::string& UpdateUText() {
  static const std::string text = PatternText(rtp::workload::PaperUpdateU);
  return text;
}

// One op of the mix: 9 in 10 are eval/checkfd, drawn uniformly over
// the five queries and the corpus; 1 in 10 is the matrix.
struct Op {
  Kind kind;
  int doc;
};

Op DrawOp(std::mt19937_64* rng) {
  if ((*rng)() % 10 == 0) return {Kind::kMatrix, 0};
  Kind kind = static_cast<Kind>((*rng)() % 5);
  return {kind, static_cast<int>((*rng)() % kDocs)};
}

// What the server must answer, computed in-process from the same text.
struct Expected {
  // [kind][doc]: eval tuples, or {satisfied, mappings, groups}.
  std::vector<std::vector<std::vector<std::string>>> eval[2];
  std::vector<rtp::fd::CheckResult> checkfd[3];
  bool matrix_independent = false;
  int64_t matrix_product_size = 0;
};

bool ComputeExpected(const std::vector<std::string>& docs, Expected* out) {
  rtp::Alphabet alphabet;
  for (const std::string& text : docs) {
    auto doc = rtp::xml::ParseXml(&alphabet, text);
    if (!doc.ok()) return false;
    std::shared_ptr<const rtp::xml::DocIndex> index = doc->Snapshot();
    for (int e = 0; e < 2; ++e) {
      auto parsed = rtp::pattern::ParsePattern(
          &alphabet, QueryText(static_cast<Kind>(e)));
      if (!parsed.ok()) return false;
      auto tuples = rtp::pattern::EvaluateSelected(parsed->pattern, *index);
      // The server's output contract: document order, then serialization.
      std::sort(tuples.begin(), tuples.end(),
                [&doc](const auto& a, const auto& b) {
                  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
                    uint32_t pa = doc->PreorderIndex(a[i]);
                    uint32_t pb = doc->PreorderIndex(b[i]);
                    if (pa != pb) return pa < pb;
                  }
                  return a.size() < b.size();
                });
      std::vector<std::vector<std::string>> rows;
      for (const auto& tuple : tuples) {
        std::vector<std::string> row;
        for (rtp::xml::NodeId n : tuple) {
          row.push_back(rtp::xml::WriteXmlSubtree(*doc, n, false));
        }
        rows.push_back(std::move(row));
      }
      out->eval[e].push_back(std::move(rows));
    }
    int f = 0;
    for (Kind kind : {Kind::kCheckFd1, Kind::kCheckFd2, Kind::kCheckFd5}) {
      auto fd = ParseFd(&alphabet, QueryText(kind));
      if (!fd) return false;
      out->checkfd[f++].push_back(rtp::fd::CheckFd(*fd, *index));
    }
  }
  auto fd = ParseFd(&alphabet, QueryText(Kind::kMatrix));
  auto u = ParseUpdateClass(&alphabet, UpdateUText());
  if (!fd || !u) return false;
  auto verdict =
      rtp::independence::CheckIndependence(*fd, *u, nullptr, &alphabet);
  if (!verdict.ok()) return false;
  out->matrix_independent = verdict->independent;
  out->matrix_product_size = verdict->product_size;
  return true;
}

// A spawned rtpd; killed and reaped on destruction unless shut down.
class Rtpd {
 public:
  Rtpd(const std::string& binary, const std::string& socket_path,
       const std::string& log_path)
      : socket_path_(socket_path), log_path_(log_path) {
    unlink(socket_path_.c_str());
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 2, log_path_.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    std::string socket_flag = "--socket=" + socket_path_;
    char* argv[] = {const_cast<char*>(binary.c_str()),
                    const_cast<char*>(socket_flag.c_str()),
                    const_cast<char*>("--jobs=2"), nullptr};
    if (posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv,
                    environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }
  ~Rtpd() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    unlink(socket_path_.c_str());
    unlink(log_path_.c_str());
  }
  Rtpd(const Rtpd&) = delete;
  Rtpd& operator=(const Rtpd&) = delete;

  pid_t pid() const { return pid_; }

  // Polls rtpd's stderr for the "serving on" line.
  bool WaitReady(int timeout_ms) {
    int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
    while (pid_ > 0 && NowNs() < deadline) {
      std::ifstream in(log_path_);
      std::string line;
      while (std::getline(in, line)) {
        if (line.find("serving on") != std::string::npos) return true;
      }
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      usleep(200);
    }
    return false;
  }

  // Graceful stop through the shutdown op, then reap. When the op fails
  // the process is killed instead, so reaping never blocks.
  bool Shutdown(Client* client) {
    if (pid_ <= 0) return false;
    bool ok = client->Shutdown().ok();
    if (!ok) kill(pid_, SIGKILL);
    int status = 0;
    ok = waitpid(pid_, &status, 0) == pid_ && ok && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
    pid_ = -1;
    return ok;
  }

 private:
  std::string socket_path_;
  std::string log_path_;
  pid_t pid_ = -1;
};

struct Server {
  std::unique_ptr<Rtpd> rtpd;
  std::optional<Client> control;
  double ready_s = 0;  // spawn until "serving on"
};

// Path prefix of the socket and log of the tag-th server of this run.
std::string ServerBase(const Options& options, int tag) {
  return options.scratch_dir + "/perfbench-" + std::to_string(getpid()) +
         "-" + std::to_string(tag);
}

// Spawn, readiness, connect, load every document: the timed set-up.
bool StartServer(const Options& options, int tag,
                 const std::vector<std::string>& docs, Server* server) {
  std::string base = ServerBase(options, tag);
  int64_t start = NowNs();
  server->rtpd = std::make_unique<Rtpd>(options.rtpd_path, base + ".sock",
                                        base + ".log");
  if (!server->rtpd->WaitReady(10000)) {
    std::fprintf(stderr, "serve: rtpd did not come up\n");
    return false;
  }
  server->ready_s = static_cast<double>(NowNs() - start) / 1e9;
  auto client = Connect(base + ".sock");
  if (!client.ok()) {
    std::fprintf(stderr, "serve: %s\n", client.status().ToString().c_str());
    return false;
  }
  server->control.emplace(std::move(client).value());
  for (int d = 0; d < kDocs; ++d) {
    rtp::Status st = server->control->Load(kTenant, "doc" + std::to_string(d),
                                           docs[d]);
    if (!st.ok()) {
      std::fprintf(stderr, "serve: load: %s\n", st.ToString().c_str());
      return false;
    }
  }
  return true;
}

// Sends one op and checks the reply; returns whether it was right.
bool SendAndCheck(Client* client, const Op& op, const Expected& expected) {
  std::string doc = "doc" + std::to_string(op.doc);
  switch (op.kind) {
    case Kind::kEvalMarks:
    case Kind::kEvalR3: {
      auto r = client->Eval(kTenant, doc, QueryText(op.kind));
      int e = op.kind == Kind::kEvalMarks ? 0 : 1;
      return r.ok() && r->tuples == expected.eval[e][op.doc];
    }
    case Kind::kCheckFd1:
    case Kind::kCheckFd2:
    case Kind::kCheckFd5: {
      auto r = client->CheckFd(kTenant, doc, QueryText(op.kind));
      int f = static_cast<int>(op.kind) - static_cast<int>(Kind::kCheckFd1);
      const rtp::fd::CheckResult& want = expected.checkfd[f][op.doc];
      return r.ok() && r->satisfied == want.satisfied &&
             r->mappings == static_cast<int64_t>(want.num_mappings) &&
             r->groups == static_cast<int64_t>(want.num_groups);
    }
    case Kind::kMatrix: {
      auto r = client->Matrix(kTenant, {QueryText(Kind::kMatrix)},
                              {UpdateUText()});
      return r.ok() && r->cells.size() == 1 &&
             r->cells[0].independent == expected.matrix_independent &&
             r->cells[0].product_size == expected.matrix_product_size;
    }
  }
  return false;
}

// Per-connection record of the measured phase.
struct ConnectionLog {
  std::vector<double> latency_ms;
  std::vector<double> kind_ms[kNumKinds];
  int64_t failed = 0;
  bool connected = true;
};

// Metrics of rtpd's registry via `stats` with metrics:true.
struct ServerMetrics {
  std::map<std::string, double> counters;
  std::map<std::string, double> histogram_sums;
  std::map<std::string, double> histogram_counts;
};

bool FetchMetrics(Client* client, ServerMetrics* out) {
  rtp::serve::Request req;
  req.op = "stats";
  req.metrics = true;
  auto reply = client->Call(req);
  if (!reply.ok()) return false;
  const rtp::serve::JsonValue* metrics = reply->Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) return false;
  if (const auto* counters = metrics->Find("counters")) {
    for (const auto& [name, value] : counters->object_items()) {
      out->counters[name] = value.number_value();
    }
  }
  if (const auto* hists = metrics->Find("histograms")) {
    for (const auto& [name, h] : hists->object_items()) {
      out->histogram_sums[name] = static_cast<double>(h.FindInt("sum"));
      out->histogram_counts[name] = static_cast<double>(h.FindInt("count"));
    }
  }
  return true;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

}  // namespace

bool RunServe(const Options& options, Result* result) {
  if (options.rtpd_path.empty()) {
    std::fprintf(stderr, "serve: --rtpd is required\n");
    return false;
  }
  std::vector<std::string> docs;
  for (int d = 0; d < kDocs; ++d) {
    docs.push_back(GenerateExamXml(kCandidates, options.seed * 131 + d));
  }
  Expected expected;
  if (!ComputeExpected(docs, &expected)) {
    std::fprintf(stderr, "serve: in-process reference failed\n");
    return false;
  }

  Server server;
  std::vector<double> setup_times, ready_times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server.rtpd != nullptr &&
        !server.rtpd->Shutdown(&*server.control)) {
      std::fprintf(stderr, "serve: rtpd did not shut down cleanly\n");
      return false;
    }
    server = Server();
    int64_t t0 = NowNs();
    if (!StartServer(options, i, docs, &server)) return false;
    setup_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    ready_times.push_back(server.ready_s);
  }
  const double setup_s = Percentile(&setup_times, 0.5);
  const std::string socket =
      ServerBase(options, kSetupRepeats - 1) + ".sock";

  // Warm-up, untimed: every query once, so the automaton cache holds the
  // matrix's pattern automata before measuring.
  for (int k = 0; k < kNumKinds; ++k) {
    Op op = {static_cast<Kind>(k), 0};
    if (!SendAndCheck(&*server.control, op, expected)) {
      std::fprintf(stderr, "serve: warm-up %s failed\n", kKindNames[k]);
      result->checks_passed = false;
    }
  }

  ServerMetrics before, after;
  bool have_metrics = options.trace && FetchMetrics(&*server.control, &before);

  std::vector<ConnectionLog> logs(kConnections);
  std::vector<Tracer> tracers;
  for (int c = 0; c < kConnections; ++c) {
    tracers.emplace_back(options.trace, c + 1);
  }
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(options.seconds * 1e9);
  const int64_t ops_per_connection =
      options.max_ops > 0 ? (options.max_ops + kConnections - 1) / kConnections
                          : 0;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      ConnectionLog& log = logs[c];
      auto client = Connect(socket);
      if (!client.ok()) {
        log.connected = false;
        return;
      }
      std::mt19937_64 rng(options.seed * 1000003 + c);
      for (int64_t i = 0; ops_per_connection > 0 ? i < ops_per_connection
                                                 : NowNs() < deadline;
           ++i) {
        Op op = DrawOp(&rng);
        int64_t t0 = NowNs();
        bool ok;
        {
          ScopedSpan span(&tracers[c], kKindNames[static_cast<int>(op.kind)],
                          i);
          ok = SendAndCheck(&*client, op, expected);
        }
        double ms = NsToMs(NowNs() - t0);
        log.latency_ms.push_back(ms);
        log.kind_ms[static_cast<int>(op.kind)].push_back(ms);
        if (!ok) ++log.failed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  // rtpd reaps connections idle for 30 s, as the control connection was
  // during the traffic; stats and shutdown go over a fresh one.
  auto control = Connect(socket);
  if (!control.ok()) {
    std::fprintf(stderr, "serve: %s\n", control.status().ToString().c_str());
    return false;
  }
  server.control.emplace(std::move(control).value());
  have_metrics = have_metrics && FetchMetrics(&*server.control, &after);
  const double peak_rss = PeakRssMiB(std::to_string(server.rtpd->pid()));
  if (!server.rtpd->Shutdown(&*server.control)) {
    std::fprintf(stderr, "serve: rtpd did not shut down cleanly\n");
    result->checks_passed = false;
  }

  std::vector<double> latency_ms;
  std::vector<double> kind_ms[kNumKinds];
  int64_t failed = 0;
  for (const ConnectionLog& log : logs) {
    if (!log.connected) {
      std::fprintf(stderr, "serve: a load connection failed to connect\n");
      result->checks_passed = false;
    }
    latency_ms.insert(latency_ms.end(), log.latency_ms.begin(),
                      log.latency_ms.end());
    for (int k = 0; k < kNumKinds; ++k) {
      kind_ms[k].insert(kind_ms[k].end(), log.kind_ms[k].begin(),
                        log.kind_ms[k].end());
    }
    failed += log.failed;
  }
  if (failed > 0) {
    std::fprintf(stderr, "serve: %lld replies were errors or differed from "
                 "the in-process result\n", static_cast<long long>(failed));
  }
  const int64_t ops = static_cast<int64_t>(latency_ms.size());
  result->attempted = ops;
  result->failed = failed;
  const double client_mean = Mean(latency_ms);
  LatencySummary latency = Summarize(latency_ms);

  std::ostringstream detail;
  detail << "{\"op_samples\":" << latency.samples
         << ",\"connections\":" << kConnections << ",\"rtpd_jobs\":2"
         << ",\"documents\":" << kDocs
         << ",\"spawn_ready_s\":" << Percentile(&ready_times, 0.5)
         << ",\"kinds\":{";
  for (int k = 0; k < kNumKinds; ++k) {
    std::vector<double> v = kind_ms[k];
    detail << (k ? "," : "") << "\"" << kKindNames[k] << "\":{\"n\":"
           << v.size() << ",\"p50_ms\":" << Percentile(&v, 0.5) << "}";
  }
  detail << "},\"measured_s\":" << wall_s << "}";
  result->detail_json = detail.str();

  if (!options.trace) {
    AddEndToEnd(result, setup_s, ops, wall_s, latency, peak_rss);
    return true;
  }
  auto kind_mean = [&](std::initializer_list<Kind> kinds) {
    std::vector<double> v;
    for (Kind k : kinds) {
      const auto& src = kind_ms[static_cast<int>(k)];
      v.insert(v.end(), src.begin(), src.end());
    }
    return Mean(v);
  };
  result->Add("serve.client.eval_ms",
              kind_mean({Kind::kEvalMarks, Kind::kEvalR3}), "ms");
  result->Add("serve.client.checkfd_ms",
              kind_mean({Kind::kCheckFd1, Kind::kCheckFd2, Kind::kCheckFd5}),
              "ms");
  result->Add("serve.client.matrix_ms", kind_mean({Kind::kMatrix}), "ms");
  if (!have_metrics) {
    std::fprintf(stderr, "serve: stats with metrics failed\n");
    return false;
  }
  auto delta = [&](const std::string& name) {
    return after.counters[name] - before.counters[name];
  };
  // Milliseconds recorded into histogram `name` between the two stats
  // calls, divided by `per`.
  auto histogram_ms = [&](const std::string& name, double per) {
    double ns = after.histogram_sums[name] - before.histogram_sums[name];
    return per > 0 ? ns / per / 1e6 : 0;
  };
  // The request delta also holds the first stats request itself
  // (recorded after its snapshot was taken); one cheap request among
  // thousands.
  double server_ms = histogram_ms(
      "serve.request_ns", after.histogram_counts["serve.request_ns"] -
                              before.histogram_counts["serve.request_ns"]);
  result->Add("serve.server_ms", server_ms, "ms");
  result->Add("serve.wire_ms", client_mean - server_ms, "ms");
  double hits = delta("exec.cache.hits");
  double misses = delta("exec.cache.misses");
  result->Add("exec.cache.hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0, "1");
  result->Add("serve.shed", delta("serve.requests.shed"), "count");
  double checkfds = static_cast<double>(
      kind_ms[static_cast<int>(Kind::kCheckFd1)].size() +
      kind_ms[static_cast<int>(Kind::kCheckFd2)].size() +
      kind_ms[static_cast<int>(Kind::kCheckFd5)].size());
  result->Add("fd.traces_per_op",
              checkfds > 0 ? delta("fd.check.traces_enumerated") / checkfds
                           : 0,
              "count");
  result->Add("fd.check_ms", histogram_ms("fd.check.ns", checkfds), "ms");
  result->Add("automata.emptiness_ms",
              histogram_ms("automata.emptiness.ns",
                           static_cast<double>(
                               kind_ms[static_cast<int>(Kind::kMatrix)]
                                   .size())),
              "ms");
  result->Add("trace.ops_per_s", static_cast<double>(ops) / wall_s, "1/s");
  std::vector<const Tracer*> all;
  for (const Tracer& t : tracers) all.push_back(&t);
  if (!options.trace_out.empty() &&
      !Tracer::WriteJson(options.trace_out, all)) {
    std::fprintf(stderr, "serve: cannot write %s\n",
                 options.trace_out.c_str());
    return false;
  }
  return true;
}

}  // namespace perfbench
