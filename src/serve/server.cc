#include "src/serve/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <optional>
#include <utility>

#include "src/model/serialize.h"
#include "src/model/zoo.h"
#include "src/obs/exposition.h"
#include "src/obs/metrics.h"
#include "src/tensor/quantizer.h"
#include "src/zkml/proof_plan.h"

namespace zkml {
namespace serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

uint64_t MicrosBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  if (b <= a) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

double SecondsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return b <= a ? 0.0 : std::chrono::duration<double>(b - a).count();
}

// One bucket layout for every per-stage latency histogram: sub-millisecond
// admission waits through minute-long proofs.
const std::vector<double> kStageSecondsBuckets = {
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60};

}  // namespace

// One admitted prove job. The handler thread blocks on `done`; the worker
// fills exactly one of response/error before fulfilling the promise, so the
// future's happens-before edge publishes the result fields without a lock.
struct ZkmlServer::Job {
  uint64_t id = 0;
  uint64_t request_id = 0;
  ProveRequest request;
  uint32_t deadline_ms = 0;
  // The wire version the client spoke; responses (and coalescing
  // eligibility — a batched artifact needs a v3-aware reader) honour it.
  uint8_t wire_version = kWireVersion;

  // shared_ptr so the watchdog can hold the token while the worker runs.
  std::shared_ptr<CancelToken> cancel = std::make_shared<CancelToken>();
  SteadyClock::time_point enqueued;
  SteadyClock::time_point deadline_tp;
  std::atomic<bool> reaped{false};

  // Live progress for /statusz: the pipeline stage the worker is in and which
  // worker holds the job. Written by the worker, read by the admin thread.
  std::atomic<uint8_t> stage{static_cast<uint8_t>(WireStage::kAdmission)};
  std::atomic<int> worker{-1};
  // Sharded-prove progress (zero total = single-circuit job). shards_done is
  // bumped from pool threads as shard proofs land, read by /statusz.
  std::atomic<uint32_t> shards_total{0};
  std::atomic<uint32_t> shards_done{0};

  std::promise<void> done_promise;
  std::shared_future<void> done;

  bool ok = false;
  ProveResponse response;
  WireError error;
};

struct ZkmlServer::Connection {
  Socket sock;
  std::atomic<bool> finished{false};
};

// Server-local counters (stats() must not bleed across server instances in
// tests) mirrored into the process-global serve.* metrics on every bump.
struct ZkmlServer::Counters {
  struct Stat {
    std::atomic<uint64_t> value{0};
    obs::Counter* global = nullptr;
    void Inc(uint64_t d = 1) {
      value.fetch_add(d, std::memory_order_relaxed);
      global->Increment(d);
    }
    uint64_t Get() const { return value.load(std::memory_order_relaxed); }
  };

  Stat connections_accepted, connections_rejected, protocol_errors, slow_clients_closed;
  Stat jobs_accepted, jobs_completed, jobs_shed_overload, jobs_deadline_exceeded;
  Stat jobs_cancelled, jobs_rejected_malformed, jobs_failed_internal, watchdog_reaped;
  obs::Gauge* queue_depth = nullptr;
  obs::Gauge* running_jobs = nullptr;
  obs::Histogram* job_seconds = nullptr;

  // Per-stage serve latency (admission = queue wait, respond = write-back).
  obs::Histogram* stage_admission = nullptr;
  obs::Histogram* stage_compile = nullptr;
  obs::Histogram* stage_witness = nullptr;
  obs::Histogram* stage_prove = nullptr;
  obs::Histogram* stage_respond = nullptr;

  // Rejections keyed by the WireStage named in the error frame (every
  // SendError lands in exactly one slot).
  static constexpr size_t kNumStages = 8;
  Stat rejections[kNumStages];

  Counters() {
    auto& reg = obs::MetricsRegistry::Global();
    connections_accepted.global = &reg.counter("serve.connections_accepted");
    connections_rejected.global = &reg.counter("serve.connections_rejected");
    protocol_errors.global = &reg.counter("serve.protocol_errors");
    slow_clients_closed.global = &reg.counter("serve.slow_clients_closed");
    jobs_accepted.global = &reg.counter("serve.jobs_accepted");
    jobs_completed.global = &reg.counter("serve.jobs_completed");
    jobs_shed_overload.global = &reg.counter("serve.jobs_shed_overload");
    jobs_deadline_exceeded.global = &reg.counter("serve.jobs_deadline_exceeded");
    jobs_cancelled.global = &reg.counter("serve.jobs_cancelled");
    jobs_rejected_malformed.global = &reg.counter("serve.jobs_rejected_malformed");
    jobs_failed_internal.global = &reg.counter("serve.jobs_failed_internal");
    watchdog_reaped.global = &reg.counter("serve.watchdog_reaped");
    queue_depth = &reg.gauge("serve.queue_depth");
    running_jobs = &reg.gauge("serve.running_jobs");
    job_seconds = &reg.histogram("serve.job_seconds",
                                 {0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 30, 60});
    stage_admission = &reg.histogram("serve.stage_seconds.admission", kStageSecondsBuckets);
    stage_compile = &reg.histogram("serve.stage_seconds.compile", kStageSecondsBuckets);
    stage_witness = &reg.histogram("serve.stage_seconds.witness", kStageSecondsBuckets);
    stage_prove = &reg.histogram("serve.stage_seconds.prove", kStageSecondsBuckets);
    stage_respond = &reg.histogram("serve.stage_seconds.respond", kStageSecondsBuckets);
    for (size_t i = 0; i < kNumStages; ++i) {
      rejections[i].global = &reg.counter(
          std::string("serve.rejections.") + WireStageName(static_cast<WireStage>(i)));
    }
  }

  Stat& RejectionsFor(WireStage stage) {
    const size_t i = static_cast<size_t>(stage);
    return rejections[i < kNumStages ? i : kNumStages - 1];
  }
};

ZkmlServer::ZkmlServer(const ServeOptions& options)
    : options_(options),
      cache_(options.cache_capacity),
      trace_ring_(options.trace_ring_capacity),
      counters_(std::make_unique<Counters>()) {}

ZkmlServer::~ZkmlServer() { Stop(); }

Status ZkmlServer::Start() {
  ZKML_ASSIGN_OR_RETURN(listener_, ListenSocket::Listen(options_.port));
  started_at_ = SteadyClock::now();
  if (!options_.event_log_path.empty()) {
    ZKML_ASSIGN_OR_RETURN(
        event_log_, obs::EventLog::Open(options_.event_log_path, options_.event_log_max_bytes));
  }
  if (options_.admin_port >= 0) {
    ZKML_RETURN_IF_ERROR(StartAdmin());
  }
  started_.store(true, std::memory_order_relaxed);
  acceptor_ = std::thread(&ZkmlServer::AcceptLoop, this);
  const int n = std::max(1, options_.num_workers);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back(&ZkmlServer::WorkerLoop, this, i);
  }
  watchdog_ = std::thread(&ZkmlServer::WatchdogLoop, this);
  obs::Json fields = obs::Json::Object();
  fields.Set("port", static_cast<uint64_t>(port()));
  fields.Set("admin_port", static_cast<uint64_t>(admin_port()));
  fields.Set("workers", static_cast<uint64_t>(n));
  fields.Set("queue_capacity", static_cast<uint64_t>(options_.queue_capacity));
  LogEvent("server_started", std::move(fields));
  return Status::Ok();
}

void ZkmlServer::RequestDrain() {
  if (!draining_.exchange(true, std::memory_order_relaxed)) {
    LogEvent("drain_started", obs::Json::Object());
  }
}

void ZkmlServer::Stop() {
  if (!started_.exchange(false)) {
    return;
  }
  RequestDrain();

  // Let queued + running jobs finish within the drain budget, then cancel
  // whatever remains (cancelled jobs still flow through a worker so their
  // handlers get an explicit CANCELLED response).
  const auto drain_deadline =
      SteadyClock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
  bool cancelled_stragglers = false;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (queue_.empty() && running_.empty()) {
        break;
      }
      if (!cancelled_stragglers && SteadyClock::now() >= drain_deadline) {
        for (auto& job : queue_) job->cancel->Cancel();
        for (auto& job : running_) job->cancel->Cancel();
        cancelled_stragglers = true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Workers exit once the stop flag is up and the queue is dry.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_.store(true, std::memory_order_relaxed);
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  // Handler threads notice stopping_ at their next poll tick; every pending
  // future is already fulfilled, so the longest wait is one io_timeout write.
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& t : conn_threads_) {
      if (t.joinable()) t.join();
    }
    conn_threads_.clear();
  }
  if (watchdog_.joinable()) watchdog_.join();
  listener_.Close();
  PublishMetrics();

  obs::Json fields = obs::Json::Object();
  fields.Set("jobs_completed", counters_->jobs_completed.Get());
  fields.Set("uptime_s", SecondsBetween(started_at_, SteadyClock::now()));
  LogEvent("server_stopped", std::move(fields));
  // The admin plane outlives the prover path so operators can watch the drain;
  // it goes down last.
  if (admin_ != nullptr) {
    admin_->Stop();
  }
}

ServerStats ZkmlServer::stats() const {
  ServerStats s;
  const Counters& c = *counters_;
  s.connections_accepted = c.connections_accepted.Get();
  s.connections_rejected = c.connections_rejected.Get();
  s.protocol_errors = c.protocol_errors.Get();
  s.slow_clients_closed = c.slow_clients_closed.Get();
  s.jobs_accepted = c.jobs_accepted.Get();
  s.jobs_completed = c.jobs_completed.Get();
  s.jobs_shed_overload = c.jobs_shed_overload.Get();
  s.jobs_deadline_exceeded = c.jobs_deadline_exceeded.Get();
  s.jobs_cancelled = c.jobs_cancelled.Get();
  s.jobs_rejected_malformed = c.jobs_rejected_malformed.Get();
  s.jobs_failed_internal = c.jobs_failed_internal.Get();
  s.watchdog_reaped = c.watchdog_reaped.Get();
  const CacheStats cs = cache_.stats();
  s.cache_hits = cs.hits;
  s.cache_misses = cs.misses;
  {
    std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(queue_mu_));
    s.queue_depth = queue_.size();
    s.running_jobs = running_.size();
  }
  s.open_connections = open_connections_.load(std::memory_order_relaxed);
  return s;
}

void ZkmlServer::PublishMetrics() {
  size_t depth, running;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    depth = queue_.size();
    running = running_.size();
  }
  counters_->queue_depth->Set(static_cast<double>(depth));
  counters_->running_jobs->Set(static_cast<double>(running));
}

Status ZkmlServer::StartAdmin() {
  AdminOptions opts;
  opts.port = static_cast<uint16_t>(options_.admin_port);
  admin_ = std::make_unique<AdminServer>(opts);
  admin_->AddRoute("/metrics", "text/plain; version=0.0.4",
                   [this] { return std::make_pair(200, MetricsText()); });
  admin_->AddRoute("/healthz", "text/plain", [this] {
    return draining() ? std::make_pair(503, std::string("draining\n"))
                      : std::make_pair(200, std::string("ok\n"));
  });
  admin_->AddRoute("/statusz", "application/json",
                   [this] { return std::make_pair(200, StatusJson().DumpPretty() + "\n"); });
  admin_->AddRoute("/tracez", "application/json", [this] {
    obs::Json doc = obs::Json::Object();
    doc.Set("schema", "zkml.tracez/v1");
    doc.Set("capacity", static_cast<uint64_t>(trace_ring_.capacity()));
    doc.Set("sampled_total", trace_ring_.added());
    obs::Json traces = obs::Json::Array();
    for (obs::Json& t : trace_ring_.Snapshot()) {
      traces.Append(std::move(t));
    }
    doc.Set("traces", std::move(traces));
    return std::make_pair(200, doc.DumpPretty() + "\n");
  });
  return admin_->Start();
}

std::string ZkmlServer::MetricsText() const {
  // A scrape observes the same freshness the watchdog maintains: gauges and
  // rate windows are re-sampled at the moment of exposition.
  const_cast<ZkmlServer*>(this)->PublishMetrics();
  SampleRates();
  return obs::RenderPrometheus(obs::MetricsRegistry::Global().Snapshot());
}

void ZkmlServer::SampleRates() const {
  const auto now = obs::RateWindows::Clock::now();
  const Counters& c = *counters_;
  rates_.Sample("jobs_accepted", c.jobs_accepted.Get(), now);
  rates_.Sample("jobs_completed", c.jobs_completed.Get(), now);
  rates_.Sample("jobs_shed_overload", c.jobs_shed_overload.Get(), now);
  rates_.Sample("jobs_deadline_exceeded", c.jobs_deadline_exceeded.Get(), now);
  rates_.Sample("protocol_errors", c.protocol_errors.Get(), now);
  rates_.Sample("connections_accepted", c.connections_accepted.Get(), now);
}

void ZkmlServer::LogEvent(const std::string& event, obs::Json fields) const {
  if (event_log_ != nullptr) {
    event_log_->Log(event, std::move(fields));
  }
}

namespace {

obs::Json RatesJson(const obs::RateWindows::Rates& r) {
  obs::Json j = obs::Json::Object();
  j.Set("1s", r.per_sec_1s);
  j.Set("10s", r.per_sec_10s);
  j.Set("60s", r.per_sec_60s);
  return j;
}

// p50/p90/p99 summary for one histogram out of a registry snapshot; null
// when the histogram has not been registered yet.
obs::Json QuantilesJson(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [hname, h] : snap.histograms) {
    if (hname != name) continue;
    obs::Json j = obs::Json::Object();
    j.Set("count", h.count);
    j.Set("sum_s", h.sum);
    j.Set("p50_s", obs::HistogramQuantile(h, 0.5));
    j.Set("p90_s", obs::HistogramQuantile(h, 0.9));
    j.Set("p99_s", obs::HistogramQuantile(h, 0.99));
    return j;
  }
  return obs::Json();
}

}  // namespace

obs::Json ZkmlServer::StatusJson() const {
  const auto now = SteadyClock::now();
  SampleRates();

  obs::Json doc = obs::Json::Object();
  doc.Set("schema", "zkml.statusz/v1");
  doc.Set("uptime_s", SecondsBetween(started_at_, now));
  doc.Set("draining", draining());
  doc.Set("port", static_cast<uint64_t>(port()));
  doc.Set("admin_port", static_cast<uint64_t>(admin_port()));

  // Worker table: every worker is either idle or holds exactly one running
  // job; queued jobs have no worker yet and show up only in queue_depth.
  const int n = std::max(1, options_.num_workers);
  std::vector<obs::Json> worker_rows(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    obs::Json row = obs::Json::Object();
    row.Set("worker", static_cast<uint64_t>(i));
    row.Set("state", "idle");
    worker_rows[static_cast<size_t>(i)] = std::move(row);
  }
  size_t queue_depth = 0, running_jobs = 0;
  {
    auto& mu = const_cast<std::mutex&>(queue_mu_);
    std::lock_guard<std::mutex> lock(mu);
    queue_depth = queue_.size();
    running_jobs = running_.size();
    for (const auto& job : running_) {
      const int w = job->worker.load(std::memory_order_relaxed);
      if (w < 0 || w >= n) continue;
      obs::Json row = obs::Json::Object();
      row.Set("worker", static_cast<uint64_t>(w));
      row.Set("state", "running");
      row.Set("job_id", job->id);
      row.Set("request_id", job->request_id);
      row.Set("stage", WireStageName(static_cast<WireStage>(
                           job->stage.load(std::memory_order_relaxed))));
      const uint32_t shards_total = job->shards_total.load(std::memory_order_relaxed);
      if (shards_total > 0) {
        // Per-shard stage marker, e.g. "2/4" = two of four shard proofs done.
        row.Set("shard", std::to_string(job->shards_done.load(std::memory_order_relaxed)) +
                             "/" + std::to_string(shards_total));
      }
      row.Set("elapsed_s", SecondsBetween(job->enqueued, now));
      row.Set("deadline_in_s", SecondsBetween(now, job->deadline_tp));
      row.Set("reaped", job->reaped.load(std::memory_order_relaxed));
      worker_rows[static_cast<size_t>(w)] = std::move(row);
    }
  }
  obs::Json workers = obs::Json::Array();
  for (auto& row : worker_rows) {
    workers.Append(std::move(row));
  }
  doc.Set("workers", std::move(workers));

  obs::Json queue = obs::Json::Object();
  queue.Set("depth", static_cast<uint64_t>(queue_depth));
  queue.Set("capacity", static_cast<uint64_t>(options_.queue_capacity));
  queue.Set("running", static_cast<uint64_t>(running_jobs));
  queue.Set("open_connections",
            static_cast<uint64_t>(open_connections_.load(std::memory_order_relaxed)));
  doc.Set("queue", std::move(queue));

  const CacheStats cs = cache_.stats();
  obs::Json cache = obs::Json::Object();
  cache.Set("entries", static_cast<uint64_t>(cs.entries));
  cache.Set("capacity", static_cast<uint64_t>(options_.cache_capacity));
  cache.Set("hits", cs.hits);
  cache.Set("misses", cs.misses);
  cache.Set("evictions", cs.evictions);
  doc.Set("cache", std::move(cache));

  const Counters& c = *counters_;
  obs::Json counters = obs::Json::Object();
  counters.Set("connections_accepted", c.connections_accepted.Get());
  counters.Set("connections_rejected", c.connections_rejected.Get());
  counters.Set("protocol_errors", c.protocol_errors.Get());
  counters.Set("slow_clients_closed", c.slow_clients_closed.Get());
  counters.Set("jobs_accepted", c.jobs_accepted.Get());
  counters.Set("jobs_completed", c.jobs_completed.Get());
  counters.Set("jobs_shed_overload", c.jobs_shed_overload.Get());
  counters.Set("jobs_deadline_exceeded", c.jobs_deadline_exceeded.Get());
  counters.Set("jobs_cancelled", c.jobs_cancelled.Get());
  counters.Set("jobs_rejected_malformed", c.jobs_rejected_malformed.Get());
  counters.Set("jobs_failed_internal", c.jobs_failed_internal.Get());
  counters.Set("watchdog_reaped", c.watchdog_reaped.Get());
  doc.Set("counters", std::move(counters));

  obs::Json rejections = obs::Json::Object();
  for (size_t i = 0; i < Counters::kNumStages; ++i) {
    rejections.Set(WireStageName(static_cast<WireStage>(i)), c.rejections[i].Get());
  }
  doc.Set("rejections_by_stage", std::move(rejections));

  obs::Json rates = obs::Json::Object();
  for (const char* name : {"jobs_accepted", "jobs_completed", "jobs_shed_overload",
                           "jobs_deadline_exceeded", "protocol_errors",
                           "connections_accepted"}) {
    rates.Set(name, RatesJson(rates_.RatesFor(name, obs::RateWindows::Clock::now())));
  }
  doc.Set("rates_per_sec", std::move(rates));

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  obs::Json latency = obs::Json::Object();
  latency.Set("job", QuantilesJson(snap, "serve.job_seconds"));
  for (const char* stage : {"admission", "compile", "witness", "prove", "respond"}) {
    latency.Set(stage, QuantilesJson(snap, std::string("serve.stage_seconds.") + stage));
  }
  doc.Set("latency_seconds", std::move(latency));

  obs::Json tracez = obs::Json::Object();
  tracez.Set("capacity", static_cast<uint64_t>(trace_ring_.capacity()));
  tracez.Set("held", static_cast<uint64_t>(trace_ring_.size()));
  tracez.Set("sampled_total", trace_ring_.added());
  tracez.Set("sample_every", static_cast<uint64_t>(options_.trace_sample_every));
  doc.Set("traces", std::move(tracez));

  obs::Json events = obs::Json::Object();
  if (event_log_ != nullptr) {
    const obs::EventLog::Stats es = event_log_->stats();
    events.Set("path", event_log_->path());
    events.Set("events", es.events);
    events.Set("rotations", es.rotations);
    events.Set("write_failures", es.write_failures);
  } else {
    events.Set("path", obs::Json());
  }
  doc.Set("event_log", std::move(events));

  if (admin_ != nullptr) {
    doc.Set("admin_requests_served", admin_->requests_served());
  }
  return doc;
}

void ZkmlServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    StatusOr<Socket> sock = listener_.Accept(options_.poll_interval_ms);
    if (!sock.ok()) {
      if (sock.status().code() == StatusCode::kDeadlineExceeded) {
        continue;  // poll tick: re-check the stop flag
      }
      break;  // listener closed
    }
    if (draining_.load(std::memory_order_relaxed)) {
      continue;  // drop: socket closes, peer sees EOF instead of a hang
    }
    if (open_connections_.load(std::memory_order_relaxed) >= options_.max_connections) {
      counters_->connections_rejected.Inc();
      continue;
    }
    counters_->connections_accepted.Inc();
    auto conn = std::make_shared<Connection>();
    conn->sock = std::move(*sock);
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conns_mu_);
    // Reap handler threads that already finished so a long-lived daemon does
    // not accumulate one zombie std::thread per past connection.
    // (Pairs finished-flag checks with the thread at the same index.)
    for (size_t i = 0; i < conn_threads_.size();) {
      if (conn_refs_[i]->finished.load(std::memory_order_acquire)) {
        conn_threads_[i].join();
        conn_threads_[i] = std::move(conn_threads_.back());
        conn_threads_.pop_back();
        conn_refs_[i] = std::move(conn_refs_.back());
        conn_refs_.pop_back();
      } else {
        ++i;
      }
    }
    conn_refs_.push_back(conn);
    conn_threads_.emplace_back([this, conn] {
      HandleConnection(conn);
      open_connections_.fetch_sub(1, std::memory_order_relaxed);
      conn->finished.store(true, std::memory_order_release);
    });
  }
}

bool ZkmlServer::SendFrame(Connection& conn, FrameType type, uint64_t request_id,
                           const std::vector<uint8_t>& payload, uint8_t version) {
  std::vector<uint8_t> out;
  EncodeFrame(&out, type, request_id, payload, version);
  Status s = conn.sock.WriteFull(out.data(), out.size(), options_.io_timeout_ms);
  if (!s.ok()) {
    if (s.code() == StatusCode::kDeadlineExceeded) {
      counters_->slow_clients_closed.Inc();
    }
    return false;
  }
  return true;
}

bool ZkmlServer::SendError(Connection& conn, uint64_t request_id, const WireError& err,
                           uint8_t version) {
  counters_->RejectionsFor(err.stage).Inc();
  return SendFrame(conn, FrameType::kError, request_id, EncodeWireError(err), version);
}

void ZkmlServer::HandleConnection(std::shared_ptr<Connection> conn) {
  uint8_t header[kFrameHeaderSize];
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Idle wait for the first byte of a frame polls the stop flag; once bytes
    // start flowing the rest of the frame must land within io_timeout_ms, so
    // a slowloris peer is cut off rather than pinning this thread.
    Status s = conn->sock.ReadFull(header, 1, options_.poll_interval_ms);
    if (!s.ok()) {
      if (s.code() == StatusCode::kDeadlineExceeded) {
        continue;  // idle connection
      }
      return;  // peer closed or socket error
    }
    s = conn->sock.ReadFull(header + 1, kFrameHeaderSize - 1, options_.io_timeout_ms);
    if (!s.ok()) {
      if (s.code() == StatusCode::kDeadlineExceeded) {
        counters_->slow_clients_closed.Inc();
      }
      return;
    }

    WireErrorCode wire_code = WireErrorCode::kInternal;
    StatusOr<FrameHeader> hdr =
        DecodeFrameHeader(header, options_.max_frame_bytes, &wire_code);
    if (!hdr.ok()) {
      // The byte stream cannot be resynchronized after a corrupt header:
      // answer (request id 0 — the id field is untrusted garbage) and close.
      counters_->protocol_errors.Inc();
      SendError(*conn, 0, {wire_code, WireStage::kFrameHeader, hdr.status().message()});
      return;
    }

    std::vector<uint8_t> payload(hdr->payload_len);
    if (hdr->payload_len > 0) {
      s = conn->sock.ReadFull(payload.data(), payload.size(), options_.io_timeout_ms);
      if (!s.ok()) {
        if (s.code() == StatusCode::kDeadlineExceeded) {
          counters_->slow_clients_closed.Inc();
        }
        return;
      }
    }
    Status crc = CheckPayloadCrc(*hdr, payload);
    if (!crc.ok()) {
      counters_->protocol_errors.Inc();
      SendError(*conn, hdr->request_id,
                {WireErrorCode::kBadCrc, WireStage::kFramePayload, crc.message()});
      return;  // payload bytes are untrustworthy — close
    }

    switch (hdr->type) {
      case FrameType::kPing:
        if (!SendFrame(*conn, FrameType::kPong, hdr->request_id, {}, hdr->version)) return;
        continue;
      case FrameType::kProveRequest:
        break;
      default:
        // Server-to-client frame types arriving at the server are misuse.
        counters_->protocol_errors.Inc();
        SendError(*conn, hdr->request_id,
                  {WireErrorCode::kBadFrameType, WireStage::kFrameHeader,
                   "frame type is not a client request"},
                  hdr->version);
        return;
    }

    // The payload is decoded against the version the frame declared: a
    // down-level frame carrying fields it never defined is rejected here.
    StatusOr<ProveRequest> req = DecodeProveRequest(payload, hdr->version);
    if (!req.ok()) {
      // Structurally invalid payload behind a valid CRC: the framing is still
      // sound, so reject the request but keep the connection.
      counters_->jobs_rejected_malformed.Inc();
      if (!SendError(*conn, hdr->request_id,
                     {WireErrorCode::kMalformedRequest, WireStage::kFramePayload,
                      req.status().message()},
                     hdr->version)) {
        return;
      }
      continue;
    }

    WireError admit_err;
    std::shared_ptr<Job> job =
        AdmitJob(std::move(*req), hdr->request_id, hdr->version, &admit_err);
    if (job == nullptr) {
      if (!SendError(*conn, hdr->request_id, admit_err, hdr->version)) return;
      continue;
    }

    // Bounded wait: the job's deadline plus the watchdog grace guarantee the
    // worker fulfills the promise.
    job->done.wait();
    const auto respond_start = SteadyClock::now();
    bool sent;
    if (job->ok) {
      sent = SendFrame(*conn, FrameType::kProveResponse, hdr->request_id,
                       EncodeProveResponse(job->response, hdr->version), hdr->version);
    } else {
      sent = SendError(*conn, hdr->request_id, job->error, hdr->version);
    }
    counters_->stage_respond->Record(SecondsBetween(respond_start, SteadyClock::now()));
    if (!sent) return;
  }
}

std::shared_ptr<ZkmlServer::Job> ZkmlServer::AdmitJob(ProveRequest request,
                                                      uint64_t request_id,
                                                      uint8_t wire_version, WireError* err) {
  auto job = std::make_shared<Job>();
  job->id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  job->request_id = request_id;
  job->wire_version = wire_version;
  job->deadline_ms = request.deadline_ms == 0
                         ? options_.default_deadline_ms
                         : std::min(request.deadline_ms, options_.max_deadline_ms);
  job->request = std::move(request);
  job->done = job->done_promise.get_future().share();

  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (draining_.load(std::memory_order_relaxed)) {
      *err = {WireErrorCode::kShuttingDown, WireStage::kAdmission,
              "daemon is draining; no new work accepted"};
      return nullptr;
    }
    if (queue_.size() >= options_.queue_capacity) {
      counters_->jobs_shed_overload.Inc();
      *err = {WireErrorCode::kOverloaded, WireStage::kAdmission,
              "job queue full (" + std::to_string(queue_.size()) + " queued); retry later"};
      depth = queue_.size();
      job = nullptr;
    } else {
      // The deadline clock starts at admission: queue wait, compile, witness,
      // and proving all spend from the same budget. Stamping under the lock
      // keeps queue order and admission order one, so among jobs with equal
      // budgets the queue front always holds the earliest deadline.
      job->enqueued = SteadyClock::now();
      job->deadline_tp = job->enqueued + std::chrono::milliseconds(job->deadline_ms);
      job->cancel->SetDeadline(job->deadline_tp);
      queue_.push_back(job);
      counters_->jobs_accepted.Inc();
      depth = queue_.size();
    }
  }
  // Event I/O stays outside queue_mu_ so a slow disk never blocks workers.
  obs::Json fields = obs::Json::Object();
  if (job != nullptr) fields.Set("job_id", job->id);
  fields.Set("request_id", request_id);
  fields.Set("queue_depth", static_cast<uint64_t>(depth));
  if (job == nullptr) {
    LogEvent("job_shed", std::move(fields));
    return nullptr;
  }
  fields.Set("deadline_ms", static_cast<uint64_t>(job->deadline_ms));
  LogEvent("job_admitted", std::move(fields));
  queue_cv_.notify_one();
  return job;
}

void ZkmlServer::WorkerLoop(int worker_index) {
  // A job is coalescable when it asks for exactly one inference of one
  // circuit and its client can read a zkml.batched_proof/v1 response (v3+).
  const auto coalescable = [](const Job& j) {
    return j.wire_version >= 3 && j.request.shards <= 1 && j.request.batch <= 1;
  };
  for (;;) {
    std::vector<std::shared_ptr<Job>> group;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] {
        return stopping_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      if (queue_.empty()) {
        return;  // stopping_ and nothing left to drain
      }
      group.push_back(std::move(queue_.front()));
      queue_.pop_front();
      group.front()->worker.store(worker_index, std::memory_order_relaxed);
      running_.push_back(group.front());
      // Request coalescing: claim queued jobs for the same (model, backend)
      // so one batched circuit proves them all. Only whole jobs whose
      // deadline is no earlier than the lead's are claimed, so a member with
      // a shorter budget never cuts the group's clock below the lead's own;
      // anything else stays queued for another worker.
      if (options_.coalesce_max > 1 && coalescable(*group.front())) {
        const Job& lead = *group.front();
        for (auto it = queue_.begin();
             it != queue_.end() && group.size() < options_.coalesce_max;) {
          Job& j = **it;
          if (coalescable(j) && j.request.backend == lead.request.backend &&
              j.request.model_text == lead.request.model_text &&
              j.deadline_tp >= lead.deadline_tp) {
            j.worker.store(worker_index, std::memory_order_relaxed);
            running_.push_back(*it);
            group.push_back(std::move(*it));
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
      }
    }

    ExecuteGroup(group);

    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      for (const auto& job : group) {
        running_.erase(std::remove(running_.begin(), running_.end(), job), running_.end());
      }
    }
    for (const auto& job : group) {
      job->done_promise.set_value();
    }
  }
}

namespace {

// Inferences one request asks for: its batch, or one.
size_t InferenceCount(const ProveRequest& r) { return r.batch > 1 ? r.batch : 1; }

}  // namespace

void ZkmlServer::ExecuteGroup(const std::vector<std::shared_ptr<Job>>& group) {
  // Trace sampling, keyed on the lead job: every Nth admitted job's group
  // runs under its own Tracer; the scope must close before export so all
  // spans are complete.
  const Job& lead = *group.front();
  const bool sampled = options_.trace_sample_every > 0 &&
                       (lead.id - 1) % options_.trace_sample_every == 0;
  std::optional<obs::Tracer> tracer;
  if (sampled) tracer.emplace();
  {
    std::optional<obs::TracerScope> scope;
    if (tracer) scope.emplace(&*tracer);
    RunGroup(group);
  }
  if (tracer) {
    obs::Json doc = tracer->ToReportJson();
    doc.Set("job_id", lead.id);
    doc.Set("request_id", lead.request_id);
    doc.Set("outcome", lead.ok ? "ok" : WireErrorCodeName(lead.error.code));
    if (!lead.ok) doc.Set("error_stage", WireStageName(lead.error.stage));
    trace_ring_.Add(std::move(doc));
  }

  if (event_log_ == nullptr) return;
  for (const auto& job : group) {
    obs::Json fields = obs::Json::Object();
    fields.Set("job_id", job->id);
    fields.Set("request_id", job->request_id);
    if (group.size() > 1) fields.Set("coalesced", static_cast<uint64_t>(group.size()));
    fields.Set("elapsed_s", SecondsBetween(job->enqueued, SteadyClock::now()));
    const char* event = "job_completed";
    if (!job->ok) {
      fields.Set("error", WireErrorCodeName(job->error.code));
      fields.Set("stage", WireStageName(job->error.stage));
      switch (job->error.code) {
        case WireErrorCode::kDeadlineExceeded: event = "job_deadline_exceeded"; break;
        case WireErrorCode::kCancelled:
          event = job->reaped.load(std::memory_order_relaxed) ? "job_reaped" : "job_cancelled";
          break;
        default: event = "job_failed"; break;
      }
    }
    LogEvent(event, std::move(fields));
  }
}

void ZkmlServer::RunGroup(const std::vector<std::shared_ptr<Job>>& group) {
  const auto started = SteadyClock::now();
  // Members still in the running; a member that fails leaves the group
  // alone, and a failure after compile takes every live member with it.
  std::vector<Job*> live;
  auto set_stage = [&](WireStage stage) {
    for (Job* job : live) job->stage.store(static_cast<uint8_t>(stage), std::memory_order_relaxed);
  };
  // Fails one member and bumps the counter its error code belongs to.
  auto fail = [&](Job& job, WireErrorCode code, WireStage stage, std::string message) {
    switch (code) {
      case WireErrorCode::kCancelled: counters_->jobs_cancelled.Inc(); break;
      case WireErrorCode::kDeadlineExceeded: counters_->jobs_deadline_exceeded.Inc(); break;
      case WireErrorCode::kInternal: counters_->jobs_failed_internal.Inc(); break;
      default: counters_->jobs_rejected_malformed.Inc(); break;
    }
    job.ok = false;
    job.error = {code, stage, std::move(message)};
  };
  // Maps a failed Status onto the wire: watchdog/drain Cancel() → CANCELLED,
  // expired budget → DEADLINE_EXCEEDED (the message names the checkpoint
  // that noticed, e.g. "deadline exceeded at quotient"), anything else →
  // INTERNAL.
  auto fail_status = [&](Job& job, const Status& s, WireStage stage) {
    if (s.code() == StatusCode::kCancelled) {
      fail(job, WireErrorCode::kCancelled, stage,
           job.reaped.load(std::memory_order_relaxed) ? "reaped by watchdog: " + s.message()
                                                      : s.message());
    } else if (s.code() == StatusCode::kDeadlineExceeded) {
      fail(job, WireErrorCode::kDeadlineExceeded, stage, s.message());
    } else {
      fail(job, WireErrorCode::kInternal, stage, s.message());
    }
  };
  auto fail_live = [&](const Status& s, WireStage stage) {
    for (Job* job : live) fail_status(*job, s, stage);
    live.clear();
  };

  // 1. Admission: a member whose budget evaporated in the queue is shed
  // before any work.
  for (const auto& job : group) {
    counters_->stage_admission->Record(SecondsBetween(job->enqueued, started));
    const Status s = job->cancel->Check("queue-wait");
    if (s.ok()) {
      live.push_back(job.get());
    } else {
      fail_status(*job, s, WireStage::kAdmission);
    }
  }
  if (live.empty()) return;

  // 2. One parse serves the whole group (members share the model text).
  set_stage(WireStage::kModelParse);
  StatusOr<Model> model = DeserializeModel(live.front()->request.model_text);
  if (!model.ok()) {
    for (Job* job : live) {
      fail(*job, WireErrorCode::kMalformedModel, WireStage::kModelParse,
           model.status().message());
    }
    return;
  }

  // 3. Requests, member by member (the planner's request check, then the
  // explicit input size): a bad member fails alone, before any compile.
  ZkmlOptions zo;
  zo.backend = live.front()->request.backend == 1 ? PcsKind::kIpa : PcsKind::kKzg;
  zo.optimizer.min_columns = options_.optimizer_min_columns;
  zo.optimizer.max_columns = options_.optimizer_max_columns;
  zo.optimizer.max_k = options_.optimizer_max_k;
  const size_t per = static_cast<size_t>(model->input_shape.NumElements());
  size_t inferences = 0;
  std::vector<Job*> accepted;
  for (Job* job : live) {
    const ProveRequest& r = job->request;
    const size_t n = InferenceCount(r);
    if (Status s = CheckProofRequest(*model, r.shards, n, zo); !s.ok()) {
      fail(*job, WireErrorCode::kMalformedRequest, WireStage::kModelParse, s.message());
    } else if (!r.input.empty() && r.input.size() != n * per) {
      fail(*job, WireErrorCode::kInputMismatch, WireStage::kWitness,
           "input has " + std::to_string(r.input.size()) + " elements, model wants " +
               std::to_string(n * per) +
               (n > 1 ? " (batch " + std::to_string(n) + " x " + std::to_string(per) + ")"
                      : std::string()));
    } else {
      inferences += n;
      accepted.push_back(job);
    }
  }
  live = std::move(accepted);
  if (live.empty()) return;

  // The group proves under the token of the member whose deadline comes
  // first, so no member is answered OK after its own budget ran out.
  const Job& pacer = **std::min_element(live.begin(), live.end(), [](const Job* a, const Job* b) {
    return a->deadline_tp < b->deadline_tp;
  });
  Job& lead = *live.front();

  // 4. Plan (src/zkml decides the kind), then compile every circuit,
  // concurrently, through the cache under `hash + suffix + backend`. A pool
  // task may wait there on another job's in-flight compile; DESIGN.md §11
  // says why that cannot deadlock.
  set_stage(WireStage::kCompile);
  const auto compile_start = SteadyClock::now();
  StatusOr<ProofPlan> plan = PlanProof(*model, lead.request.shards, inferences, zo);
  if (!plan.ok()) {
    fail_live(plan.status(), WireStage::kCompile);
    return;
  }
  if (plan->shards > 1) lead.shards_total.store(plan->shards, std::memory_order_relaxed);
  const std::string model_hash = ModelHashHex(lead.request.model_text);
  const std::string backend = zo.backend == PcsKind::kIpa ? ":ipa" : ":kzg";
  std::atomic<bool> cache_hit{true};
  StatusOr<Circuits> circuits = [&] {
    obs::Span span("serve.compile");
    return plan->CompileAll([&](size_t i, const ProofPlan::CompileFn& compile) {
      return cache_.GetOrCompile(model_hash + plan->circuits[i].key_suffix + backend, [&] {
        cache_hit = false;
        return compile();
      });
    });
  }();
  const double compile_seconds = SecondsBetween(compile_start, SteadyClock::now());
  counters_->stage_compile->Record(compile_seconds);
  if (const Status s = circuits.ok() ? pacer.cancel->Check("compile") : circuits.status();
      !s.ok()) {
    fail_live(s, WireStage::kCompile);
    return;
  }

  // 5. Inputs: inference i of a member is the i-th slice of its explicit
  // input (inference-major), or else SyntheticInput(seed + i), so a batch is
  // reproducible but not N copies of one tensor.
  set_stage(WireStage::kWitness);
  const auto witness_start = SteadyClock::now();
  std::vector<Tensor<int64_t>> inputs;
  {
    obs::Span span("serve.witness");
    for (const Job* job : live) {
      const ProveRequest& r = job->request;
      for (size_t i = 0; i < InferenceCount(r); ++i) {
        if (r.input.empty()) {
          inputs.push_back(QuantizeTensor(SyntheticInput(*model, r.seed + i), model->quant));
        } else {
          const auto slice = r.input.begin() + static_cast<ptrdiff_t>(i * per);
          inputs.emplace_back(model->input_shape,
                              std::vector<int64_t>(slice, slice + static_cast<ptrdiff_t>(per)));
        }
      }
    }
  }
  counters_->stage_witness->Record(SecondsBetween(witness_start, SteadyClock::now()));

  // 6. Prove.
  set_stage(WireStage::kProve);
  const auto prove_start = SteadyClock::now();
  StatusOr<PlannedProof> proved = [&] {
    obs::Span span("serve.prove");
    return plan->Prove(*circuits, inputs, pacer.cancel.get(), compile_seconds,
                       [&lead](size_t done, size_t) {
                         lead.shards_done.store(static_cast<uint32_t>(done),
                                                std::memory_order_relaxed);
                       });
  }();
  const double prove_seconds = SecondsBetween(prove_start, SteadyClock::now());
  counters_->stage_prove->Record(prove_seconds);
  // The kind-labelled series next to the aggregate keeps scaling visible
  // per shard count / batch size (e.g. serve.stage_seconds.prove.shards4).
  if (!plan->label.empty()) {
    obs::MetricsRegistry::Global()
        .histogram("serve.stage_seconds.prove." + plan->label, kStageSecondsBuckets)
        .Record(prove_seconds);
  }
  if (!proved.ok()) {
    fail_live(proved.status(), WireStage::kProve);
    return;
  }

  // 7. One report per group, named after its first live member. Report I/O
  // must never fail a proved job.
  if (!options_.report_dir.empty()) {
    if (live.size() > 1) proved->report.Set("coalesced", static_cast<uint64_t>(live.size()));
    std::ofstream out(options_.report_dir + "/job_" + std::to_string(lead.id) + ".json");
    if (out) out << proved->report.DumpPretty() << "\n";
  }

  // 8. Fan out: every member gets the shared artifact and the full statement
  // (both are needed to verify), plus the outputs of its own inferences.
  set_stage(WireStage::kRespond);
  const auto finished = SteadyClock::now();
  size_t next = 0;
  for (Job* job : live) {
    ProveResponse& r = job->response;
    r.proof = proved->artifact;
    r.instance = proved->instance;
    r.output.clear();
    for (const size_t end = next + InferenceCount(job->request); next < end; ++next) {
      r.output.insert(r.output.end(), proved->outputs[next].begin(), proved->outputs[next].end());
    }
    r.queue_micros = MicrosBetween(job->enqueued, started);
    r.prove_micros = MicrosBetween(started, finished);
    r.cache_hit = cache_hit ? 1 : 0;
    r.shards = plan->shards;
    r.batch = plan->batch;
    job->ok = true;
    counters_->jobs_completed.Inc();
    counters_->job_seconds->Record(SecondsBetween(job->enqueued, finished));
  }
}

void ZkmlServer::WatchdogLoop() {
  const auto period = std::chrono::milliseconds(std::max(1, options_.watchdog_period_ms));
  const auto grace = std::chrono::milliseconds(options_.wedge_grace_ms);
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(period);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      const auto now = SteadyClock::now();
      for (auto& job : running_) {
        // Past-deadline jobs stop on their own at the next prover checkpoint;
        // the watchdog only steps in when one overstays the grace window
        // (wedged between checkpoints, or the deadline machinery failed).
        if (!job->reaped.load(std::memory_order_relaxed) && now >= job->deadline_tp + grace) {
          job->reaped.store(true, std::memory_order_relaxed);
          job->cancel->Cancel();
          counters_->watchdog_reaped.Inc();
        }
      }
    }
    PublishMetrics();
    SampleRates();
  }
}

}  // namespace serve
}  // namespace zkml
