#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace probe::server {

namespace {

// Cap on buffered HTTP request bytes; headers past this are hostile.
constexpr size_t kMaxHttpRequest = 8192;

// Receive-timeout tick: blocked reads wake this often to check shutdown
// and session-idle deadlines.
constexpr int kRecvTickMs = 50;

// k-NN request cap: a hostile k cannot force an arbitrarily large
// response allocation.
constexpr uint32_t kMaxKnnK = 1u << 16;

void SetRecvTimeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

Server::Server(ShardedEngine* engine, const ServerOptions& options)
    : engine_(engine),
      options_(options),
      sessions_(options.idle_timeout),
      pool_(std::max(1, options.worker_threads)) {
  obs::Registry& reg = obs::Registry::Default();
  m_requests_ = reg.GetCounter("probe_server_requests_total");
  m_errors_ = reg.GetCounter("probe_server_errors_total");
  m_busy_ = reg.GetCounter("probe_server_busy_total");
  m_bytes_read_ = reg.GetCounter("probe_server_bytes_read_total");
  m_bytes_written_ = reg.GetCounter("probe_server_bytes_written_total");
  m_sessions_ = reg.GetGauge("probe_server_sessions");
  m_connections_ = reg.GetGauge("probe_server_connections");
  m_request_ms_ = reg.GetHistogram("probe_server_request_ms", {},
                                   obs::Histogram::LatencyBucketsMs());
}

Server::~Server() { Stop(); }

bool Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  // invariant-lint waiver(raw-thread): dedicated acceptor (see server.h).
  acceptor_ = std::thread([this]() { AcceptLoop(); });
  return true;
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (Stop) or fatal
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ServeConnection(fd);
  }
}

void Server::ServeConnection(int fd) {
  connections_total_.fetch_add(1);
  if (stopping_.load() ||
      active_connections_.load() >= options_.max_connections) {
    // Refuse at the door: a kBusy frame, then close. Nothing queues.
    busy_total_.fetch_add(1);
    m_busy_->Increment();
    ErrorResponse busy;
    busy.status = stopping_.load() ? Status::kShuttingDown : Status::kBusy;
    busy.message = StatusName(busy.status);
    std::vector<uint8_t> bytes;
    EncodeResponse(busy.ToFrame(0), &bytes);
    WriteAll(fd, bytes.data(), bytes.size());
    ::close(fd);
    return;
  }
  active_connections_.fetch_add(1);
  m_connections_->Add(1);
  RegisterFd(fd);
  pool_.Submit([this, fd]() { HandleConnection(fd); });
}

void Server::HandleConnection(int fd) {
  SetRecvTimeout(fd, kRecvTickMs);
  Conn conn;
  conn.fd = fd;
  conn.last_frame = std::chrono::steady_clock::now();

  // Protocol discrimination: read until the first byte arrives. 'z' (the
  // frame magic) selects the binary protocol; anything else is HTTP.
  std::vector<uint8_t> buf;
  for (;;) {
    uint8_t first = 0;
    const ssize_t n = ::recv(fd, &first, 1, 0);
    if (n == 1) {
      buf.push_back(first);
      break;
    }
    if (n == 0 || stopping_.load() ||
        (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      buf.clear();
      break;
    }
    if (std::chrono::steady_clock::now() - conn.last_frame >
        sessions_.idle_timeout()) {
      buf.clear();
      break;
    }
  }
  if (!buf.empty()) {
    if (buf[0] == kMagic0) {
      ServeBinary(&conn, std::move(buf));
    } else {
      ServeHttp(&conn, std::move(buf));
    }
  }

  if (conn.session_id != 0) {
    if (sessions_.Close(conn.session_id)) m_sessions_->Add(-1);
  }
  UnregisterFd(fd);
  ::close(fd);
  active_connections_.fetch_sub(1);
  m_connections_->Add(-1);
}

void Server::ServeBinary(Conn* conn, std::vector<uint8_t> buf) {
  size_t off = 0;
  uint8_t chunk[16384];
  for (;;) {
    // Drain every complete frame already buffered, batching the encoded
    // responses into one write (what makes pipelining pay).
    std::vector<uint8_t> out;
    bool keep_open = true;
    while (keep_open) {
      Frame frame;
      size_t consumed = 0;
      Status error = Status::kOk;
      const DecodeResult r = DecodeFrame(
          std::span<const uint8_t>(buf.data() + off, buf.size() - off), &frame,
          &consumed, &error);
      if (r == DecodeResult::kNeedMore) break;
      if (r == DecodeResult::kError) {
        // The stream is unsynchronized: report and hang up.
        errors_total_.fetch_add(1);
        m_errors_->Increment();
        SendError(&out, 0, error, StatusName(error));
        keep_open = false;
        break;
      }
      off += consumed;
      conn->last_frame = std::chrono::steady_clock::now();
      if (error != Status::kOk) {
        // Intact frame, unknown type: answer per-frame and stay open.
        errors_total_.fetch_add(1);
        m_errors_->Increment();
        SendError(&out, frame.request_id, error, StatusName(error));
        continue;
      }
      keep_open = HandleFrame(conn, frame, &out);
    }
    if (!out.empty()) {
      m_bytes_written_->Increment(out.size());
      if (!WriteAll(conn->fd, out.data(), out.size())) return;
    }
    if (!keep_open) return;
    if (off > 0) {
      buf.erase(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(off));
      off = 0;
    }

    // Refill.
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      m_bytes_read_->Increment(static_cast<uint64_t>(n));
      buf.insert(buf.end(), chunk, chunk + n);
      continue;
    }
    if (n == 0) return;  // peer closed
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return;
    // Timeout tick: shutdown and idle checks.
    if (stopping_.load()) {
      std::vector<uint8_t> bye;
      SendError(&bye, 0, Status::kShuttingDown, "server stopping");
      WriteAll(conn->fd, bye.data(), bye.size());
      return;
    }
    if (conn->session_id != 0 && sessions_.Expired(conn->session_id)) {
      std::vector<uint8_t> expired;
      SendError(&expired, 0, Status::kSessionExpired, "idle timeout");
      WriteAll(conn->fd, expired.data(), expired.size());
      if (sessions_.Close(conn->session_id)) m_sessions_->Add(-1);
      conn->session_id = 0;
      return;
    }
    if (std::chrono::steady_clock::now() - conn->last_frame >
        sessions_.idle_timeout()) {
      return;  // idle connection with no session: just hang up
    }
  }
}

bool Server::HandleFrame(Conn* conn, const Frame& frame,
                         std::vector<uint8_t>* out) {
  requests_total_.fetch_add(1);
  m_requests_->Increment();
  const auto started = std::chrono::steady_clock::now();
  bool keep_open = true;

  switch (frame.type) {
    case FrameType::kPing: {
      Frame pong;
      pong.type = FrameType::kPong;
      pong.request_id = frame.request_id;
      EncodeResponse(pong, out);
      break;
    }
    case FrameType::kHello: {
      HelloRequest req;
      if (!HelloRequest::FromPayload(frame.payload, &req)) {
        errors_total_.fetch_add(1);
        m_errors_->Increment();
        SendError(out, frame.request_id, Status::kBadPayload, "bad HELLO");
        break;
      }
      if (conn->session_id != 0) {
        errors_total_.fetch_add(1);
        m_errors_->Increment();
        SendError(out, frame.request_id, Status::kDoubleHello,
                  "session already established");
        break;
      }
      conn->session_id =
          sessions_.Create(req.max_element_depth, req.client_name);
      m_sessions_->Add(1);
      HelloResponse resp;
      resp.session_id = conn->session_id;
      resp.dims = static_cast<uint8_t>(engine_->grid().dims);
      resp.bits_per_dim = static_cast<uint8_t>(engine_->grid().bits_per_dim);
      resp.shards = static_cast<uint16_t>(engine_->shard_count());
      resp.point_count = engine_->size();
      EncodeResponse(resp.ToFrame(frame.request_id), out);
      break;
    }
    case FrameType::kGoodbye: {
      if (conn->session_id == 0) {
        errors_total_.fetch_add(1);
        m_errors_->Increment();
        SendError(out, frame.request_id, Status::kNoSession, "no session");
        break;
      }
      if (sessions_.Close(conn->session_id)) m_sessions_->Add(-1);
      conn->session_id = 0;
      Frame bye;
      bye.type = FrameType::kGoodbyeOk;
      bye.request_id = frame.request_id;
      EncodeResponse(bye, out);
      break;
    }
    case FrameType::kRange:
    case FrameType::kBox:
    case FrameType::kCount:
    case FrameType::kKnn:
    case FrameType::kExplain: {
      if (!EncodeResponse(ExecuteQuery(conn, frame), out)) {
        errors_total_.fetch_add(1);
        m_errors_->Increment();
      }
      break;
    }
    default: {
      errors_total_.fetch_add(1);
      m_errors_->Increment();
      SendError(out, frame.request_id, Status::kUnknownType,
                "response type sent as request");
      break;
    }
  }

  m_request_ms_->Observe(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - started)
                             .count());
  return keep_open;
}

Frame Server::ExecuteQuery(Conn* conn, const Frame& frame) {
  auto error = [&](Status status, const std::string& message) {
    errors_total_.fetch_add(1);
    m_errors_->Increment();
    if (status == Status::kBusy) {
      busy_total_.fetch_add(1);
      m_busy_->Increment();
    }
    ErrorResponse resp;
    resp.status = status;
    resp.message = message;
    return resp.ToFrame(frame.request_id);
  };

  if (conn->session_id == 0) return error(Status::kNoSession, "HELLO first");
  Session* session = sessions_.Touch(conn->session_id);
  if (session == nullptr) {
    // Touch refuses expired sessions but leaves them registered; finish
    // the job here so expiry is deterministic at the next query, not at
    // whichever sweep runs first.
    if (sessions_.Close(conn->session_id)) m_sessions_->Add(-1);
    conn->session_id = 0;
    return error(Status::kSessionExpired, "session expired");
  }

  // Admission: refuse (retryably) instead of queueing once the engine has
  // max_inflight queries on it.
  if (inflight_.fetch_add(1) >= options_.max_inflight) {
    inflight_.fetch_sub(1);
    session->stats().errors++;
    return error(Status::kBusy, "over max_inflight, retry");
  }
  struct InflightGuard {
    std::atomic<int>* counter;
    ~InflightGuard() { counter->fetch_sub(1); }
  } guard{&inflight_};

  index::SearchOptions search;
  search.max_element_depth = session->max_element_depth();

  session->stats().queries++;
  switch (frame.type) {
    case FrameType::kRange: {
      RangeRequest req;
      if (!RangeRequest::FromPayload(frame.payload, &req) ||
          !engine_->ValidBox(req.box)) {
        session->stats().errors++;
        return error(Status::kBadPayload, "bad RANGE box");
      }
      RangeResponse resp;
      resp.ids = engine_->CreateView().RangeSearch(req.box, nullptr, search);
      session->stats().rows += resp.ids.size();
      return resp.ToFrame(frame.request_id);
    }
    case FrameType::kBox: {
      BoxRequest req;
      if (!BoxRequest::FromPayload(frame.payload, &req) ||
          !engine_->ValidBox(req.box)) {
        session->stats().errors++;
        return error(Status::kBadPayload, "bad BOX box");
      }
      BoxResponse resp;
      resp.rows =
          engine_->CreateView().RangeSearchRows(req.box, nullptr, search);
      session->stats().rows += resp.rows.size();
      return resp.ToFrame(frame.request_id);
    }
    case FrameType::kCount: {
      CountRequest req;
      if (!CountRequest::FromPayload(frame.payload, &req) ||
          !engine_->ValidBox(req.box)) {
        session->stats().errors++;
        return error(Status::kBadPayload, "bad COUNT box");
      }
      CountResponse resp;
      resp.count = engine_->CreateView().CountBox(req.box, nullptr, search);
      session->stats().rows += 1;
      return resp.ToFrame(frame.request_id);
    }
    case FrameType::kKnn: {
      KnnRequest req;
      if (!KnnRequest::FromPayload(frame.payload, &req) ||
          !engine_->ValidPoint(req.center) || req.k > kMaxKnnK) {
        session->stats().errors++;
        return error(Status::kBadPayload, "bad KNN request");
      }
      KnnResponse resp;
      resp.neighbors = engine_->CreateView().KNearest(req.center, req.k);
      session->stats().rows += resp.neighbors.size();
      return resp.ToFrame(frame.request_id);
    }
    case FrameType::kExplain: {
      ExplainRequest req;
      if (!ExplainRequest::FromPayload(frame.payload, &req) ||
          !engine_->ValidBox(req.box)) {
        session->stats().errors++;
        return error(Status::kBadPayload, "bad EXPLAIN box");
      }
      ExplainResponse resp;
      resp.text = engine_->Explain(req.box, req.count != 0);
      session->stats().rows += 1;
      return resp.ToFrame(frame.request_id);
    }
    default:
      session->stats().errors++;
      return error(Status::kUnknownType, "not a query");
  }
}

void Server::ServeHttp(Conn* conn, std::vector<uint8_t> buf) {
  http_total_.fetch_add(1);
  // Read until the header terminator (or cap / timeout); the request line
  // is all we route on.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(1000);
  auto has_terminator = [&]() {
    const std::string_view view(reinterpret_cast<const char*>(buf.data()),
                                buf.size());
    return view.find("\r\n\r\n") != std::string_view::npos ||
           view.find("\n\n") != std::string_view::npos;
  };
  uint8_t chunk[2048];
  while (!has_terminator() && buf.size() < kMaxHttpRequest &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf.insert(buf.end(), chunk, chunk + n);
      continue;
    }
    if (n == 0) break;
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return;
  }
  const std::string_view request(reinterpret_cast<const char*>(buf.data()),
                                 buf.size());

  std::string body;
  std::string status = "200 OK";
  std::string content_type = "text/plain; version=0.0.4";
  if (request.starts_with("GET /metrics")) {
    body = obs::Registry::Default().RenderText();
  } else if (request.starts_with("GET /healthz")) {
    content_type = "application/json";
    body = "{\"status\":\"ok\",\"shards\":" +
           std::to_string(engine_->shard_count()) +
           ",\"points\":" + std::to_string(engine_->size()) +
           ",\"sessions\":" + std::to_string(sessions_.active()) + "}\n";
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }
  std::string response = "HTTP/1.0 " + status +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  WriteAll(conn->fd, reinterpret_cast<const uint8_t*>(response.data()),
           response.size());
}

void Server::SendError(std::vector<uint8_t>* out, uint32_t request_id,
                       Status status, const std::string& message) {
  ErrorResponse resp;
  resp.status = status;
  resp.message = message;
  EncodeResponse(resp.ToFrame(request_id), out);
}

bool Server::WriteAll(int fd, const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

void Server::RegisterFd(int fd) {
  util::MutexLock lock(&fds_mutex_);
  open_fds_.insert(fd);
}

void Server::UnregisterFd(int fd) {
  util::MutexLock lock(&fds_mutex_);
  open_fds_.erase(fd);
}

bool Server::Stop() {
  if (stopped_.exchange(true)) return true;
  stopping_.store(true);
  if (listen_fd_ >= 0) {
    // shutdown+close wakes the acceptor's blocked accept(); the fd number
    // itself stays untouched until the acceptor has joined, so the
    // acceptor never reads listen_fd_ concurrently with a write.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (acceptor_.joinable()) acceptor_.join();
  listen_fd_ = -1;
  {
    // Wake every blocked read; handlers notice stopping_ and exit. The
    // handler (owner) does the close — shutdown only unblocks it.
    util::MutexLock lock(&fds_mutex_);
    for (int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  const bool drained = pool_.Shutdown(options_.shutdown_deadline);
  sessions_.ExpireIdle();
  return drained;
}

ServerCounters Server::counters() const {
  ServerCounters c;
  c.connections = connections_total_.load();
  c.requests = requests_total_.load();
  c.errors = errors_total_.load();
  c.busy = busy_total_.load();
  c.http_requests = http_total_.load();
  return c;
}

}  // namespace probe::server
