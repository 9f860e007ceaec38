#include "serve/server.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <optional>

#include "exec/automaton_cache.h"
#include "fd/fd_checker.h"
#include "independence/matrix.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "pattern/evaluator.h"
#include "pattern/pattern_parser.h"
#include "serve/framing.h"
#include "serve/json.h"
#include "serve/ops.h"
#include "xml/xml_io.h"

// POLLRDHUP (peer closed its write side) is the reliable mid-request
// disconnect signal on Linux; glibc exposes it under _GNU_SOURCE, which
// g++ defines for C++, but guard the definition for other libcs.
#ifndef POLLRDHUP
#define POLLRDHUP 0x2000
#endif

namespace rtp::serve {
namespace {

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool PeerDisconnected(int fd) {
  struct pollfd p;
  p.fd = fd;
  p.events = POLLRDHUP;
  p.revents = 0;
  if (::poll(&p, 1, 0) <= 0) return false;
  return (p.revents & (POLLRDHUP | POLLHUP | POLLERR | POLLNVAL)) != 0;
}

// Per-op request counters; one macro call site per op so each caches its
// own counter pointer.
void CountOp(const std::string& op) {
  if (op == "load") RTP_OBS_COUNT("serve.requests.load");
  else if (op == "eval") RTP_OBS_COUNT("serve.requests.eval");
  else if (op == "checkfd") RTP_OBS_COUNT("serve.requests.checkfd");
  else if (op == "matrix") RTP_OBS_COUNT("serve.requests.matrix");
  else if (op == "stats") RTP_OBS_COUNT("serve.requests.stats");
  else if (op == "drop") RTP_OBS_COUNT("serve.requests.drop");
  else if (op == "quota") RTP_OBS_COUNT("serve.requests.quota");
  else if (op == "shutdown") RTP_OBS_COUNT("serve.requests.shutdown");
}

// Embeds a QueryProfile into a response as structured JSON (the profile's
// own serializer emits one JSON object).
void AttachProfile(JsonValue* response, const obs::QueryProfile& profile) {
  auto parsed = JsonValue::Parse(profile.ToJson());
  response->Add("profile", parsed.ok() ? std::move(parsed).value()
                                       : JsonValue::Null());
}

}  // namespace

// One accepted client. The connection thread owns the socket for reads
// and writes; pool tasks only touch the CancelToken (via pointer) and
// never the fd.
struct Server::Connection {
  int fd = -1;
  std::thread thread;
  guard::CancelToken cancel;
  std::atomic<bool> done{false};
};

Server::Server(ServerOptions options) : options_(std::move(options)) {}

StatusOr<std::unique_ptr<Server>> Server::Start(const ServerOptions& options) {
  std::unique_ptr<Server> server(new Server(options));
  RTP_RETURN_IF_ERROR(server->Listen());
  server->pool_ = std::make_unique<exec::ThreadPool>(
      std::max(1, options.jobs), options.queue_capacity);
  server->accept_thread_ = std::thread(&Server::AcceptLoop, server.get());
  RTP_LOG(INFO) << "rtpd listening on " << options.socket_path << " ("
                << std::max(1, options.jobs) << " workers)";
  return server;
}

Server::~Server() { Stop(); }

Status Server::Listen() {
  if (options_.socket_path.empty()) {
    return InvalidArgumentError("socket_path must not be empty");
  }
  struct sockaddr_un addr;
  memset(&addr, 0, sizeof(addr));
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return InvalidArgumentError("socket path '" + options_.socket_path +
                                "' exceeds the AF_UNIX path limit");
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return InternalError(std::string("socket(): ") + strerror(errno));
  }
  // A stale socket file from a crashed predecessor would make bind fail
  // with EADDRINUSE; the path is ours by contract, so replace it.
  ::unlink(options_.socket_path.c_str());
  addr.sun_family = AF_UNIX;
  memcpy(addr.sun_path, options_.socket_path.c_str(),
         options_.socket_path.size());
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return InternalError("bind('" + options_.socket_path +
                         "'): " + strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return InternalError(std::string("listen(): ") + strerror(errno));
  }
  if (::pipe(wake_pipe_) != 0) {
    return InternalError(std::string("pipe(): ") + strerror(errno));
  }
  return Status::OK();
}

void Server::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
}

bool Server::WaitFor(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return stop_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           [this] { return stop_requested_; });
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
    stop_cv_.notify_all();
    if (stopped_) return;  // another caller already tore down
    stopped_ = true;
  }
  if (wake_pipe_[1] >= 0) {
    char byte = 0;
    ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
    (void)ignored;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(connections_);
  }
  // Unblock every connection thread's recv; their in-flight pool tasks see
  // the cancel token fire when the thread notices the closed socket.
  for (auto& conn : conns) ::shutdown(conn->fd, SHUT_RDWR);
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
  pool_.reset();  // drains any still-queued tasks
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  RTP_LOG(INFO) << "rtpd stopped (" << options_.socket_path << ")";
}

void Server::Drain(int grace_ms) {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    Stop();
    return;
  }
  RTP_OBS_COUNT("serve.drain.started");
  RTP_LOG(INFO) << "rtpd draining (" << options_.socket_path << ", grace "
                << grace_ms << "ms)";
  // New connects must fail immediately: removing the path leaves existing
  // connections (and anything already in the listen backlog) untouched
  // while clients attempting fresh connects get a structured UNAVAILABLE.
  ::unlink(options_.socket_path.c_str());
  int64_t deadline_ns =
      guard::MonotonicNowNs() + int64_t{grace_ms} * 1'000'000;
  while (guard::MonotonicNowNs() < deadline_ns) {
    bool any_live = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& conn : connections_) {
        if (!conn->done.load(std::memory_order_acquire)) {
          any_live = true;
          break;
        }
      }
    }
    if (!any_live) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& conn : connections_) {
      if (!conn->done.load(std::memory_order_acquire)) {
        // Grace expired with work still in flight; Stop() below severs it.
        RTP_OBS_COUNT("serve.drain.forced");
        break;
      }
    }
  }
  Stop();
  RTP_OBS_COUNT("serve.drain.completed");
}

int64_t Server::RetryAfterMsHint() const {
  size_t depth = pool_ != nullptr ? pool_->queue_depth() : 0;
  return std::min<int64_t>(static_cast<int64_t>(depth) + 1,
                           options_.max_retry_after_ms);
}

void Server::AcceptLoop() {
  while (true) {
    struct pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = wake_pipe_[0];
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_requested_) break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_requested_) {
        ::close(fd);
        break;
      }
      // Reap connections whose threads already finished, so a long-lived
      // server does not accumulate dead fds/threads.
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          ::close((*it)->fd);
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
      connections_.push_back(std::move(conn));
      // Spawned under the lock so Stop()'s swap always observes a
      // joinable thread for every registered connection.
      raw->thread = std::thread([this, raw] { ServeConnection(raw); });
      RTP_OBS_GAUGE_SET("serve.connections.active", connections_.size());
    }
    RTP_OBS_COUNT("serve.connections.accepted");
  }
}

void Server::ServeConnection(Connection* conn) {
  // Framing is tolerant of arbitrarily torn input: bytes arrive in any
  // chunking (tests split one request across many delayed writes) and the
  // framer reassembles complete lines, bounding memory for oversized ones.
  LineFramer framer(options_.max_line_bytes);
  bool alive = true;
  char chunk[4096];
  int64_t last_activity_ns = guard::MonotonicNowNs();
  while (alive) {
    while (alive) {
      std::optional<LineFramer::Line> line = framer.Next();
      if (!line.has_value()) break;
      if (line->oversized) {
        RTP_OBS_COUNT("serve.errors.oversized");
        std::string response =
            MakeErrorResponse(
                0, ResourceExhaustedError(
                       "request line exceeds " +
                       std::to_string(options_.max_line_bytes) + " bytes"))
                .Serialize();
        response.push_back('\n');
        alive = SendAll(conn->fd, response);
        continue;
      }
      std::string response = HandleLine(conn, line->text);
      if (response.empty()) continue;  // reply already sent (shutdown)
      response.push_back('\n');
      alive = SendAll(conn->fd, response);
      last_activity_ns = guard::MonotonicNowNs();
    }
    if (!alive) break;
    // Block with a tick so the thread notices drain and idle timeouts
    // even when the peer sends nothing.
    struct pollfd p;
    p.fd = conn->fd;
    p.events = POLLIN | POLLRDHUP;
    p.revents = 0;
    int ready = ::poll(&p, 1, 50);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      // Idle tick. A draining server closes connections with nothing
      // buffered (in-flight requests already finished above).
      if (draining_.load(std::memory_order_acquire) &&
          !framer.HasBufferedData()) {
        break;
      }
      if (options_.idle_timeout_ms > 0 &&
          guard::MonotonicNowNs() - last_activity_ns >
              int64_t{options_.idle_timeout_ms} * 1'000'000) {
        RTP_OBS_COUNT("serve.connections.idle_reaped");
        break;
      }
      continue;
    }
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // disconnect, error, or Stop()'s shutdown()
    framer.Feed(std::string_view(chunk, static_cast<size_t>(n)));
    last_activity_ns = guard::MonotonicNowNs();
  }
  // The fd itself is closed by the acceptor's reap (or Stop), but the
  // peer must see EOF now — an idle-reaped or drained connection would
  // otherwise look alive until the next accept.
  ::shutdown(conn->fd, SHUT_RDWR);
  RTP_OBS_COUNT("serve.connections.closed");
  conn->done.store(true, std::memory_order_release);
}

std::string Server::HandleLine(Connection* conn, const std::string& line) {
  int64_t arrival_ns = guard::MonotonicNowNs();
  auto parsed_or = JsonValue::Parse(line);
  if (!parsed_or.ok()) {
    RTP_OBS_COUNT("serve.errors.protocol");
    return MakeErrorResponse(0, parsed_or.status()).Serialize();
  }
  // Echo the id even for requests that fail validation, as long as the
  // line was at least JSON with a numeric id.
  int64_t fallback_id =
      parsed_or->is_object() ? parsed_or->FindInt("id") : 0;
  auto req_or = DecodeRequest(*parsed_or);
  if (!req_or.ok()) {
    RTP_OBS_COUNT("serve.errors.protocol");
    return MakeErrorResponse(fallback_id, req_or.status()).Serialize();
  }
  Request req = std::move(req_or).value();
  CountOp(req.op);

  JsonValue response;
  if (req.op == "stats") {
    response = HandleStats(req);
  } else if (req.op == "shutdown") {
    // Reply before raising the stop flag: once Stop() runs it shuts this
    // socket down, so the acknowledgement must already be in flight.
    response = MakeOkResponse(req.id);
    response.Add("stopping", JsonValue::Bool(true));
    std::string framed = response.Serialize();
    framed.push_back('\n');
    SendAll(conn->fd, framed);
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
    stop_cv_.notify_all();
    return std::string();
  } else if (req.op == "drop" || req.op == "quota") {
    // Registry-only ops: cheap enough to run on the connection thread.
    response = HandleRequest(conn, req, arrival_ns);
  } else {
    // Heavy ops run on the shared pool; a full queue sheds the request
    // instead of queueing the connection thread behind it.
    struct Pending {
      std::mutex m;
      std::condition_variable cv;
      bool done = false;
      JsonValue response;
    };
    auto pending = std::make_shared<Pending>();
    auto shared_req = std::make_shared<Request>(std::move(req));
    // queue_capacity == 0 is "always shed" (the pool itself clamps its
    // queue to >= 1, so the degenerate config is enforced here).
    bool admitted =
        options_.queue_capacity > 0 &&
        pool_->TrySubmit([this, conn, shared_req, arrival_ns, pending] {
          JsonValue result = HandleRequest(conn, *shared_req, arrival_ns);
          std::lock_guard<std::mutex> lock(pending->m);
          pending->response = std::move(result);
          pending->done = true;
          pending->cv.notify_all();
        });
    if (!admitted) {
      RTP_OBS_COUNT("serve.requests.shed");
      response = MakeShedResponse(shared_req->id, RetryAfterMsHint());
    } else {
      // Await completion while watching the socket: a peer that hangs up
      // mid-request cancels the connection token, and every guard wired
      // to it trips, so abandoned work drains instead of running to the
      // bitter end.
      std::unique_lock<std::mutex> lock(pending->m);
      while (!pending->done) {
        pending->cv.wait_for(lock, std::chrono::milliseconds(50));
        if (pending->done) break;
        lock.unlock();
        if (PeerDisconnected(conn->fd)) conn->cancel.Cancel();
        lock.lock();
      }
      response = std::move(pending->response);
    }
  }
  RTP_OBS_HISTOGRAM_RECORD("serve.request_ns",
                           guard::MonotonicNowNs() - arrival_ns);
  return response.Serialize();
}

JsonValue Server::HandleRequest(Connection* conn, const Request& req,
                                int64_t arrival_ns) {
  std::shared_ptr<Tenant> tenant;
  if (req.op == "load" || req.op == "quota") {
    tenant = tenants_.GetOrCreate(req.tenant);
  } else {
    tenant = tenants_.Find(req.tenant);
    if (tenant == nullptr) {
      RTP_OBS_COUNT("serve.errors.request");
      return MakeErrorResponse(
          req.id, NotFoundError("unknown tenant '" + req.tenant + "'"));
    }
  }
  tenant->requests.fetch_add(1, std::memory_order_relaxed);
  if (tenant->m_requests != nullptr) tenant->m_requests->Add(1);

  guard::ExecutionBudget budget = req.budget;
  if (!req.has_budget) {
    std::shared_lock<std::shared_mutex> lock(tenant->mu);
    budget = tenant->default_budget.Limited() ? tenant->default_budget
                                              : options_.default_budget;
  }

  JsonValue response;
  if (req.op == "load") {
    response = HandleLoad(*tenant, req, budget, &conn->cancel, arrival_ns);
  } else if (req.op == "eval") {
    response = HandleEval(*tenant, req, budget, &conn->cancel, arrival_ns);
  } else if (req.op == "checkfd") {
    response = HandleCheckFd(*tenant, req, budget, &conn->cancel, arrival_ns);
  } else if (req.op == "matrix") {
    response = HandleMatrix(*tenant, req, budget, &conn->cancel);
  } else if (req.op == "drop") {
    response = HandleDrop(*tenant, req);
  } else if (req.op == "quota") {
    response = HandleQuota(*tenant, req);
  } else {
    response = MakeErrorResponse(req.id, InternalError("unroutable op"));
  }

  const JsonValue* ok = response.Find("ok");
  if (ok != nullptr && ok->is_bool() && !ok->bool_value()) {
    tenant->errors.fetch_add(1, std::memory_order_relaxed);
    if (tenant->m_errors != nullptr) tenant->m_errors->Add(1);
    const JsonValue* error = response.Find("error");
    StatusCode code = error != nullptr
                          ? StatusCodeFromName(error->FindString("code"))
                          : StatusCode::kInternal;
    if (guard::IsResourceCode(code)) {
      tenant->trips.fetch_add(1, std::memory_order_relaxed);
      if (tenant->m_trips != nullptr) tenant->m_trips->Add(1);
      RTP_OBS_COUNT("serve.trips");
    } else {
      RTP_OBS_COUNT("serve.errors.request");
    }
  }
  return response;
}

JsonValue Server::HandleLoad(Tenant& tenant, const Request& req,
                             const guard::ExecutionBudget& budget,
                             guard::CancelToken* cancel, int64_t arrival_ns) {
  if (req.doc.empty() || req.text.empty()) {
    return MakeErrorResponse(
        req.id, InvalidArgumentError("load requires 'doc' and 'text'"));
  }
  obs::QueryProfile profile;
  Status status;
  size_t live_nodes = 0;
  {
    // Exclusive: parsing interns labels into the tenant alphabet, and the
    // lazy Document caches (preorder index, Snapshot) must be warmed
    // before any concurrent reader can see the entry.
    std::unique_lock<std::shared_mutex> lock(tenant.mu);
    guard::GuardContext ctx(budget, cancel, arrival_ns);
    guard::ScopedGuard scope(&ctx);
    obs::ProfileScope prof("serve.load", req.profile ? &profile : nullptr);
    auto doc_or = xml::ParseXml(&tenant.alphabet, req.text);
    if (!doc_or.ok()) {
      status = doc_or.status();
    } else {
      auto doc = std::make_unique<xml::Document>(std::move(doc_or).value());
      doc->PreorderIndex(doc->root());
      std::shared_ptr<const xml::DocIndex> index = doc->Snapshot();
      status = guard::CurrentStatus();
      if (status.ok()) {
        auto entry = std::make_shared<CorpusEntry>();
        entry->name = req.doc;
        entry->live_nodes = doc->LiveNodeCount();
        entry->index = std::move(index);
        entry->doc = std::move(doc);
        live_nodes = entry->live_nodes;
        tenant.docs[req.doc] = std::move(entry);  // replaces any previous
      }
    }
  }
  if (!status.ok()) {
    JsonValue response = MakeErrorResponse(req.id, status);
    if (req.profile) AttachProfile(&response, profile);
    return response;
  }
  JsonValue response = MakeOkResponse(req.id);
  response.Add("doc", JsonValue::String(req.doc));
  response.Add("nodes", JsonValue::Int(static_cast<int64_t>(live_nodes)));
  if (req.profile) AttachProfile(&response, profile);
  return response;
}

JsonValue Server::HandleEval(Tenant& tenant, const Request& req,
                             const guard::ExecutionBudget& budget,
                             guard::CancelToken* cancel, int64_t arrival_ns) {
  if (req.doc.empty() || req.text.empty()) {
    return MakeErrorResponse(
        req.id, InvalidArgumentError("eval requires 'doc' and 'text'"));
  }
  std::shared_ptr<const CorpusEntry> entry;
  std::optional<StatusOr<pattern::ParsedPattern>> parsed;
  {
    std::unique_lock<std::shared_mutex> lock(tenant.mu);
    auto it = tenant.docs.find(req.doc);
    if (it == tenant.docs.end()) {
      return MakeErrorResponse(
          req.id, NotFoundError("tenant '" + tenant.name +
                                "' has no document '" + req.doc + "'"));
    }
    entry = it->second;
    parsed.emplace(pattern::ParsePattern(&tenant.alphabet, req.text));
  }
  if (!parsed->ok()) return MakeErrorResponse(req.id, parsed->status());

  obs::QueryProfile profile;
  EvalResult result;
  {
    // Shared: evaluation and serialization read the alphabet and the
    // frozen index; loads of other documents can intern concurrently
    // only under the exclusive lock.
    std::shared_lock<std::shared_mutex> lock(tenant.mu);
    guard::GuardContext ctx(budget, cancel, arrival_ns);
    guard::ScopedGuard scope(&ctx);
    auto tuples = pattern::EvaluateSelected(parsed->value().pattern,
                                            *entry->index,
                                            req.profile ? &profile : nullptr);
    Status status = guard::CurrentStatus();
    if (!status.ok()) {
      JsonValue response = MakeErrorResponse(req.id, status);
      if (req.profile) AttachProfile(&response, profile);
      return response;
    }
    result = MakeEvalResult(entry->index->doc(), std::move(tuples));
  }
  JsonValue response = MakeOkResponse(req.id);
  EncodeEvalResult(std::move(result), &response);
  if (req.profile) AttachProfile(&response, profile);
  return response;
}

JsonValue Server::HandleCheckFd(Tenant& tenant, const Request& req,
                                const guard::ExecutionBudget& budget,
                                guard::CancelToken* cancel,
                                int64_t arrival_ns) {
  if (req.doc.empty() || req.text.empty()) {
    return MakeErrorResponse(
        req.id, InvalidArgumentError("checkfd requires 'doc' and 'text'"));
  }
  std::shared_ptr<const CorpusEntry> entry;
  std::optional<fd::FunctionalDependency> fd;
  {
    std::unique_lock<std::shared_mutex> lock(tenant.mu);
    auto it = tenant.docs.find(req.doc);
    if (it == tenant.docs.end()) {
      return MakeErrorResponse(
          req.id, NotFoundError("tenant '" + tenant.name +
                                "' has no document '" + req.doc + "'"));
    }
    entry = it->second;
    auto fd_or = ParseFd(&tenant.alphabet, req.text);
    if (!fd_or.ok()) return MakeErrorResponse(req.id, fd_or.status());
    fd.emplace(std::move(fd_or).value());
  }

  obs::QueryProfile profile;
  fd::CheckResult result;
  CheckFdResult checked;
  {
    std::shared_lock<std::shared_mutex> lock(tenant.mu);
    guard::GuardContext ctx(budget, cancel, arrival_ns);
    guard::ScopedGuard scope(&ctx);
    fd::CheckOptions options;
    options.profile = req.profile ? &profile : nullptr;
    result = fd::CheckFd(*fd, *entry->index, options);
    if (result.status.ok()) {
      checked = MakeCheckFdResult(result, entry->index->doc(), *fd);
    }
  }
  if (!result.status.ok()) {
    JsonValue response = MakeErrorResponse(req.id, result.status);
    if (req.profile) AttachProfile(&response, profile);
    return response;
  }
  JsonValue response = MakeOkResponse(req.id);
  EncodeCheckFdResult(checked, &response);
  if (req.profile) AttachProfile(&response, profile);
  return response;
}

JsonValue Server::HandleMatrix(Tenant& tenant, const Request& req,
                               const guard::ExecutionBudget& budget,
                               guard::CancelToken* cancel) {
  if (req.fds.empty() || req.classes.empty()) {
    return MakeErrorResponse(
        req.id,
        InvalidArgumentError("matrix requires 'fds' and 'classes' arrays"));
  }
  std::optional<StatusOr<MatrixInputs>> inputs;
  {
    std::unique_lock<std::shared_mutex> lock(tenant.mu);
    inputs.emplace(ParseMatrixInputs(&tenant.alphabet, req.fds, req.classes,
                                     req.schema));
  }
  if (!inputs->ok()) return MakeErrorResponse(req.id, inputs->status());

  std::vector<obs::QueryProfile> cell_profiles;
  std::optional<StatusOr<independence::IndependenceMatrix>> matrix_or;
  {
    std::shared_lock<std::shared_mutex> lock(tenant.mu);
    exec::BatchOptions options;
    options.pool = pool_.get();
    exec::AutomatonCache* cache = nullptr;
    if (budget.Limited()) {
      // Budgeted: per-pair guards, per-cell degradation, and the shared
      // cancel token. The criterion bypasses the shared AutomatonCache
      // under a guard (a tripped build must never be memoized), so the
      // cache stays warm and un-poisoned for unbudgeted requests.
      options.budget = budget;
      options.cancel = cancel;
    } else {
      // Unbudgeted: run against the process-wide warm cache. No cancel
      // token — wiring one would force the cache bypass and cost every
      // fast request its warm automata to support a rare disconnect.
      cache = &exec::AutomatonCache::Global();
    }
    if (req.profile) options.profiles = &cell_profiles;
    matrix_or.emplace(
        inputs->value().Compute(&tenant.alphabet, options, cache));
  }
  if (!matrix_or->ok()) return MakeErrorResponse(req.id, matrix_or->status());
  MatrixResult result = MakeMatrixResult(matrix_or->value());

  size_t tripped = 0;
  for (const MatrixCell& cell : result.cells) {
    if (cell.status != StatusCode::kOk) ++tripped;
  }
  if (tripped > 0) {
    // Per-cell resource degradation: the response is still ok (tripped
    // cells carry the conservative not-independent verdict), but the
    // trips are tallied like request-level ones.
    tenant.trips.fetch_add(tripped, std::memory_order_relaxed);
    if (tenant.m_trips != nullptr) tenant.m_trips->Add(tripped);
    RTP_OBS_COUNT_N("serve.trips", tripped);
  }

  JsonValue response = MakeOkResponse(req.id);
  EncodeMatrixResult(result, &response);
  if (req.profile) {
    JsonValue profiles = JsonValue::Array();
    for (const obs::QueryProfile& p : cell_profiles) {
      auto parsed = JsonValue::Parse(p.ToJson());
      profiles.Push(parsed.ok() ? std::move(parsed).value()
                                : JsonValue::Null());
    }
    response.Add("profiles", std::move(profiles));
  }
  return response;
}

JsonValue Server::HandleStats(const Request& req) {
  JsonValue response = MakeOkResponse(req.id);
  JsonValue tenants = JsonValue::Array();
  for (const std::shared_ptr<Tenant>& tenant : tenants_.All()) {
    JsonValue t = JsonValue::Object();
    t.Add("name", JsonValue::String(tenant->name));
    size_t num_docs;
    {
      std::shared_lock<std::shared_mutex> lock(tenant->mu);
      num_docs = tenant->docs.size();
    }
    t.Add("docs", JsonValue::Int(static_cast<int64_t>(num_docs)));
    t.Add("requests", JsonValue::Int(static_cast<int64_t>(
                          tenant->requests.load(std::memory_order_relaxed))));
    t.Add("errors", JsonValue::Int(static_cast<int64_t>(
                        tenant->errors.load(std::memory_order_relaxed))));
    t.Add("trips", JsonValue::Int(static_cast<int64_t>(
                       tenant->trips.load(std::memory_order_relaxed))));
    tenants.Push(std::move(t));
  }
  response.Add("tenants", std::move(tenants));
  if (req.metrics) {
    auto parsed = JsonValue::Parse(obs::DumpJson());
    response.Add("metrics", parsed.ok() ? std::move(parsed).value()
                                        : JsonValue::Null());
  }
  return response;
}

JsonValue Server::HandleDrop(Tenant& tenant, const Request& req) {
  if (req.doc.empty()) {
    return MakeErrorResponse(req.id,
                             InvalidArgumentError("drop requires 'doc'"));
  }
  bool dropped;
  {
    std::unique_lock<std::shared_mutex> lock(tenant.mu);
    dropped = tenant.docs.erase(req.doc) > 0;
  }
  JsonValue response = MakeOkResponse(req.id);
  response.Add("dropped", JsonValue::Bool(dropped));
  return response;
}

JsonValue Server::HandleQuota(Tenant& tenant, const Request& req) {
  if (!req.has_budget) {
    return MakeErrorResponse(
        req.id, InvalidArgumentError("quota requires a 'budget' object"));
  }
  {
    std::unique_lock<std::shared_mutex> lock(tenant.mu);
    tenant.default_budget = req.budget;
  }
  JsonValue response = MakeOkResponse(req.id);
  JsonValue budget = JsonValue::Object();
  budget.Add("deadline_ms", JsonValue::Int(req.budget.deadline_ms));
  budget.Add("max_states", JsonValue::Int(req.budget.max_automaton_states));
  budget.Add("max_steps", JsonValue::Int(req.budget.max_steps));
  budget.Add("max_memory_mb",
             JsonValue::Int(req.budget.max_memory_bytes >> 20));
  response.Add("budget", std::move(budget));
  return response;
}

}  // namespace rtp::serve
