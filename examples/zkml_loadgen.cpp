// Load generator + wire-protocol fault injector for zkml_serve.
//
// Load mode (default): open a connection per worker and fire prove requests
// at the daemon, reporting proofs/sec and tail latency plus a breakdown of
// every non-OK outcome (overloaded, deadline, ...). With --rate=R requests
// arrive open-loop at R/sec across workers (arrivals do not wait for
// completions, so queue backpressure is actually exercised); --rate=0 runs
// closed-loop.
//
//   zkml_loadgen --port=N [--host=H] [--zoo=mnist | --model=<file>]
//                [--requests=N] [--workers=N] [--rate=R] [--deadline-ms=N]
//                [--backend=kzg|ipa] [--shards=N] [--timeout-ms=N] [--seed=N]
//                [--out=<file>] [--admin-port=N] [--require-server-match]
//
// --shards=N (>1) asks the daemon for sharded proving: the response then
// carries a zkml.sharded_proof/v1 artifact and reports the shard count the
// server actually used after clamping to what the model's graph admits.
// --batch=N (>1) asks for batched multi-inference proving: each job proves N
// inferences in one circuit and answers with a zkml.batched_proof/v1
// artifact; throughput is reported both as proofs/sec and inferences/sec.
//
// Open-loop latencies are measured from each request's slot on the absolute
// send schedule (not from the moment the sender finally fired), so a
// generator that falls behind cannot hide queueing delay — the classic
// coordinated-omission bug. The scheduled-vs-actual send lag is reported
// and recorded in the artifact alongside the latencies.
//
// --out writes the full run as a JSON artifact (schema "zkml.loadgen/v1").
// --admin-port scrapes the daemon's /metrics page before and after the run
// and prints the server-side view (jobs_completed delta, p50/p99 from the
// serve_job_seconds bucket delta) next to the client-side numbers;
// --require-server-match exits 2 if the server's completed-job count
// disagrees with the client's.
//
// Fault mode (--fault=N): N seeded hostile interactions — truncated frames,
// oversize length prefixes, garbage behind a valid header, corrupt CRCs,
// slowloris byte-trickles, mid-stream disconnects, and ByteMutator-mangled
// valid frames — each followed by a liveness probe on a fresh connection.
// Exits 2 if the daemon ever stops answering or a rejection arrives without
// stage attribution; this is the crash/leak/hang harness CI runs under
// sanitizers.
//
// Exit codes: 0 success, 1 usage/connect failure, 2 assertion failure.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/byte_mutator.h"
#include "src/base/http.h"
#include "src/base/rng.h"
#include "src/model/serialize.h"
#include "src/model/zoo.h"
#include "src/obs/exposition.h"
#include "src/obs/json.h"
#include "src/serve/client.h"

namespace zkml {
namespace {

using serve::FrameType;
using serve::ZkmlClient;

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string zoo = "mnist";
  std::string model_file;
  int requests = 8;
  int workers = 2;
  double rate = 0;  // open-loop arrivals/sec; 0 = closed loop
  uint32_t deadline_ms = 0;
  uint8_t backend = 0;
  int timeout_ms = 120000;
  uint64_t seed = 1;
  int fault = 0;   // >0: run the fault injector with this many interactions
  int shards = 0;  // >1: request sharded proving (server clamps to the graph)
  int batch = 0;   // >1: request batched multi-inference proving per job

  std::string out_file;            // JSON artifact (zkml.loadgen/v1)
  int admin_port = 0;              // >0: scrape /metrics before + after
  bool require_server_match = false;
};

struct Outcomes {
  std::mutex mu;
  std::vector<double> latencies_s;
  // Open-loop only: how late each request actually left relative to its slot
  // on the absolute send schedule (scheduled-vs-actual lag). Nonzero lag
  // means the generator could not sustain the requested rate, so open-loop
  // latencies (measured from the schedule) already include it.
  std::vector<double> send_lags_s;
  uint64_t ok = 0;
  uint64_t inferences = 0;    // proven inferences (ok x batch actually run)
  uint64_t overloaded = 0;
  uint64_t deadline = 0;
  uint64_t other_error = 0;   // explicit error frames other than the above
  uint64_t transport = 0;     // disconnects, timeouts, corrupt responses
  uint64_t cache_hits = 0;
};

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[i];
}

// --- Server-side view via the admin plane ---

// One /metrics scrape, parsed and validated.
StatusOr<obs::PromText> ScrapeMetrics(const std::string& host, int port) {
  ZKML_ASSIGN_OR_RETURN(HttpResponse resp,
                        HttpGet(host, static_cast<uint16_t>(port), "/metrics", 5000));
  if (resp.status_code != 200) {
    return IoError("/metrics answered HTTP " + std::to_string(resp.status_code));
  }
  return obs::ParsePrometheusText(resp.body);
}

double SampleValue(const obs::PromText& page, std::string_view name) {
  const obs::PromSample* s = page.Find(name);
  return s == nullptr ? 0.0 : s->value;
}

// Rebuilds cumulative histogram state for `name` from its _bucket samples
// (page order preserves ascending le; the +Inf bucket lands in the overflow
// slot).
obs::HistogramSnapshot HistogramFromSamples(const obs::PromText& page, const std::string& name) {
  obs::HistogramSnapshot h;
  const std::string bucket_name = name + "_bucket";
  for (const obs::PromSample& s : page.samples) {
    if (s.name != bucket_name) continue;
    const std::string* le = s.LabelValue("le");
    if (le == nullptr) continue;
    if (*le == "+Inf") {
      h.cumulative.push_back(static_cast<uint64_t>(s.value));
    } else {
      h.bounds.push_back(std::strtod(le->c_str(), nullptr));
      h.cumulative.push_back(static_cast<uint64_t>(s.value));
    }
  }
  if (!h.cumulative.empty()) h.count = h.cumulative.back();
  h.sum = SampleValue(page, name + "_sum");
  return h;
}

// after - before, bucket-wise. Empty when the scrapes do not line up.
obs::HistogramSnapshot HistogramDelta(const obs::HistogramSnapshot& before,
                                      const obs::HistogramSnapshot& after) {
  obs::HistogramSnapshot d;
  if (before.bounds != after.bounds || before.cumulative.size() != after.cumulative.size()) {
    return after;  // fresh daemon or layout change: the after-state is the run
  }
  d.bounds = after.bounds;
  d.cumulative.resize(after.cumulative.size());
  for (size_t i = 0; i < after.cumulative.size(); ++i) {
    d.cumulative[i] =
        after.cumulative[i] >= before.cumulative[i] ? after.cumulative[i] - before.cumulative[i] : 0;
  }
  d.count = d.cumulative.empty() ? 0 : d.cumulative.back();
  d.sum = after.sum - before.sum;
  return d;
}

int RunLoad(const LoadgenOptions& opt, const std::string& model_text) {
  Outcomes out;
  std::atomic<int> next_request{0};

  // Pre-run scrape: against a long-lived daemon only the delta across this
  // run is ours, so both the counter and the latency buckets are differenced.
  bool scraped = false;
  obs::PromText before;
  if (opt.admin_port > 0) {
    StatusOr<obs::PromText> page = ScrapeMetrics(opt.host, opt.admin_port);
    if (page.ok()) {
      before = std::move(*page);
      scraped = true;
    } else {
      std::fprintf(stderr, "pre-run /metrics scrape failed: %s\n",
                   page.status().ToString().c_str());
    }
  }

  const auto t0 = std::chrono::steady_clock::now();

  auto worker = [&](int wid) {
    // Connected when a claimed request finds no connection: at the first
    // request and after every transport error. A request whose connect fails
    // counts as one transport error, so every claimed request is counted
    // exactly once and a worker never counts one it did not take.
    StatusOr<ZkmlClient> client = IoError("not connected");
    for (;;) {
      const int i = next_request.fetch_add(1);
      if (i >= opt.requests) return;
      std::chrono::steady_clock::time_point due{};
      if (opt.rate > 0) {
        // Open-loop: request i is due at i/rate seconds on an ABSOLUTE
        // schedule anchored at t0; sleep until then and fire regardless of
        // how many are still in flight elsewhere.
        due = t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(i) / opt.rate));
        std::this_thread::sleep_until(due);
      }
      if (!client.ok()) {
        client = ZkmlClient::Connect(opt.host, opt.port, opt.timeout_ms);
      }
      serve::ProveRequest req;
      req.model_text = model_text;
      req.backend = opt.backend;
      req.deadline_ms = opt.deadline_ms;
      req.seed = opt.seed + static_cast<uint64_t>(i);
      req.shards = opt.shards > 0 ? static_cast<uint32_t>(opt.shards) : 0;
      req.batch = opt.batch > 0 ? static_cast<uint32_t>(opt.batch) : 0;
      const auto start = std::chrono::steady_clock::now();
      // Open-loop latency is measured from the SCHEDULED send time, not from
      // `start`: when this thread falls behind its slots (a slow proof ahead
      // of this request on the same connection), measuring from the actual
      // send would silently drop that queueing delay from the tail — the
      // coordinated-omission mistake. The scheduled-vs-actual gap is also
      // recorded on its own so the artifact shows whether the generator
      // sustained the requested rate.
      const auto latency_origin = opt.rate > 0 ? due : start;
      const double send_lag_s =
          opt.rate > 0
              ? std::max(0.0, std::chrono::duration<double>(start - due).count())
              : 0.0;
      StatusOr<ZkmlClient::ProveOutcome> result =
          client.ok() ? client->Prove(req, static_cast<uint64_t>(i) + 1, opt.timeout_ms)
                      : StatusOr<ZkmlClient::ProveOutcome>(client.status());
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - latency_origin)
              .count();
      std::lock_guard<std::mutex> lock(out.mu);
      if (opt.rate > 0) out.send_lags_s.push_back(send_lag_s);
      if (!result.ok()) {
        out.transport += 1;
        // The connection is unusable after a transport error; the next
        // request reconnects.
        client = result.status();
        continue;
      }
      if (result->ok) {
        out.ok += 1;
        out.inferences += std::max<uint32_t>(1, result->response.batch);
        out.cache_hits += result->response.cache_hit;
        out.latencies_s.push_back(secs);
      } else if (result->error.code == serve::WireErrorCode::kOverloaded) {
        out.overloaded += 1;
      } else if (result->error.code == serve::WireErrorCode::kDeadlineExceeded) {
        out.deadline += 1;
      } else {
        out.other_error += 1;
        std::fprintf(stderr, "worker %d request %d rejected: %s\n", wid, i,
                     result->error.ToString().c_str());
      }
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < opt.workers; ++w) threads.emplace_back(worker, w);
  for (auto& t : threads) t.join();

  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::lock_guard<std::mutex> lock(out.mu);
  std::printf("loadgen: %d requests in %.2fs (%d workers, %s)\n", opt.requests, wall,
              opt.workers, opt.rate > 0 ? "open-loop" : "closed-loop");
  std::printf("  ok=%llu overloaded=%llu deadline=%llu error=%llu transport=%llu cache_hits=%llu\n",
              static_cast<unsigned long long>(out.ok),
              static_cast<unsigned long long>(out.overloaded),
              static_cast<unsigned long long>(out.deadline),
              static_cast<unsigned long long>(out.other_error),
              static_cast<unsigned long long>(out.transport),
              static_cast<unsigned long long>(out.cache_hits));
  const double p50 = Percentile(out.latencies_s, 0.5);
  const double p90 = Percentile(out.latencies_s, 0.9);
  const double p99 = Percentile(out.latencies_s, 0.99);
  const double pmax = Percentile(out.latencies_s, 1.0);
  if (!out.latencies_s.empty()) {
    std::printf("  client: proofs/sec=%.3f inferences/sec=%.3f p50=%.3fs p90=%.3fs p99=%.3fs max=%.3fs\n",
                static_cast<double>(out.ok) / wall,
                static_cast<double>(out.inferences) / wall, p50, p90, p99, pmax);
  }
  double lag_mean = 0, lag_p99 = 0, lag_max = 0;
  if (!out.send_lags_s.empty()) {
    for (double s : out.send_lags_s) lag_mean += s;
    lag_mean /= static_cast<double>(out.send_lags_s.size());
    lag_p99 = Percentile(out.send_lags_s, 0.99);
    lag_max = Percentile(out.send_lags_s, 1.0);
    std::printf("  schedule: send lag mean=%.4fs p99=%.4fs max=%.4fs "
                "(scheduled-vs-actual; latencies measured from the schedule)\n",
                lag_mean, lag_p99, lag_max);
  }

  // Post-run scrape: the server's own account of the same run.
  bool server_view = false;
  bool server_match = true;
  uint64_t server_completed = 0;
  obs::HistogramSnapshot server_hist;
  if (scraped) {
    StatusOr<obs::PromText> page = ScrapeMetrics(opt.host, opt.admin_port);
    if (page.ok()) {
      server_view = true;
      const double completed_before = SampleValue(before, "serve_jobs_completed");
      const double completed_after = SampleValue(*page, "serve_jobs_completed");
      server_completed = static_cast<uint64_t>(completed_after - completed_before);
      server_hist = HistogramDelta(HistogramFromSamples(before, "serve_job_seconds"),
                                   HistogramFromSamples(*page, "serve_job_seconds"));
      std::printf("  server: jobs_completed=%llu p50=%.3fs p99=%.3fs "
                  "(from serve_job_seconds bucket delta)\n",
                  static_cast<unsigned long long>(server_completed),
                  obs::HistogramQuantile(server_hist, 0.5),
                  obs::HistogramQuantile(server_hist, 0.99));
      if (server_completed != out.ok) {
        server_match = false;
        std::fprintf(stderr,
                     "loadgen: server counted %llu completed jobs, client saw %llu OK responses\n",
                     static_cast<unsigned long long>(server_completed),
                     static_cast<unsigned long long>(out.ok));
      }
    } else {
      std::fprintf(stderr, "post-run /metrics scrape failed: %s\n",
                   page.status().ToString().c_str());
    }
  }

  if (!opt.out_file.empty()) {
    obs::Json doc = obs::Json::Object();
    doc.Set("schema", "zkml.loadgen/v1");
    doc.Set("requests", static_cast<uint64_t>(opt.requests));
    doc.Set("workers", static_cast<uint64_t>(opt.workers));
    doc.Set("rate_per_sec", opt.rate);
    doc.Set("backend", opt.backend == 1 ? "ipa" : "kzg");
    doc.Set("shards", static_cast<uint64_t>(opt.shards > 0 ? opt.shards : 0));
    doc.Set("batch", static_cast<uint64_t>(opt.batch > 0 ? opt.batch : 0));
    doc.Set("deadline_ms", static_cast<uint64_t>(opt.deadline_ms));
    doc.Set("wall_s", wall);
    obs::Json outcomes = obs::Json::Object();
    outcomes.Set("ok", out.ok);
    outcomes.Set("inferences", out.inferences);
    outcomes.Set("overloaded", out.overloaded);
    outcomes.Set("deadline", out.deadline);
    outcomes.Set("other_error", out.other_error);
    outcomes.Set("transport", out.transport);
    outcomes.Set("cache_hits", out.cache_hits);
    doc.Set("outcomes", std::move(outcomes));
    obs::Json client = obs::Json::Object();
    client.Set("proofs_per_sec", wall > 0 ? static_cast<double>(out.ok) / wall : 0.0);
    client.Set("inferences_per_sec",
               wall > 0 ? static_cast<double>(out.inferences) / wall : 0.0);
    client.Set("p50_s", p50);
    client.Set("p90_s", p90);
    client.Set("p99_s", p99);
    client.Set("max_s", pmax);
    obs::Json lat = obs::Json::Array();
    for (double s : out.latencies_s) lat.Append(s);
    client.Set("latencies_s", std::move(lat));
    doc.Set("client", std::move(client));
    if (opt.rate > 0) {
      // Scheduled-vs-actual send lag: nonzero means open-loop latencies
      // already carry generator-side queueing (measured from the schedule).
      obs::Json sched = obs::Json::Object();
      sched.Set("send_lag_mean_s", lag_mean);
      sched.Set("send_lag_p99_s", lag_p99);
      sched.Set("send_lag_max_s", lag_max);
      sched.Set("latency_origin", "scheduled");
      doc.Set("schedule", std::move(sched));
    }
    if (server_view) {
      obs::Json server = obs::Json::Object();
      server.Set("jobs_completed", server_completed);
      server.Set("p50_s", obs::HistogramQuantile(server_hist, 0.5));
      server.Set("p99_s", obs::HistogramQuantile(server_hist, 0.99));
      server.Set("matches_client", server_match);
      doc.Set("server", std::move(server));
    }
    std::ofstream f(opt.out_file);
    f << doc.DumpPretty() << "\n";
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", opt.out_file.c_str());
      return 1;
    }
  }

  if (opt.require_server_match && (!server_view || !server_match)) {
    std::fprintf(stderr, "loadgen: --require-server-match failed (%s)\n",
                 server_view ? "count mismatch" : "scrape unavailable");
    return 2;
  }
  return out.ok > 0 || opt.requests == 0 ? 0 : 2;
}

// --- Fault injection ---

// A valid prove-request frame to use as mutation raw material (tiny bogus
// model text keeps it cheap: the server rejects it in model-parse, which is
// still a full exercise of the framing + admission path).
std::vector<uint8_t> TemplateFrame(uint64_t request_id) {
  serve::ProveRequest req;
  req.model_text = "not a model";
  std::vector<uint8_t> frame;
  serve::EncodeFrame(&frame, FrameType::kProveRequest, request_id, serve::EncodeProveRequest(req));
  return frame;
}

// One hostile interaction. Returns false only on local failure to connect
// (the liveness check decides whether the server survived).
bool InjectOne(const LoadgenOptions& opt, Rng& rng, ByteMutator& mutator, int kind,
               uint64_t* stage_attributed, uint64_t* error_frames) {
  StatusOr<ZkmlClient> client = ZkmlClient::Connect(opt.host, opt.port, 2000);
  if (!client.ok()) return false;
  Socket& sock = client->socket();
  std::vector<uint8_t> frame = TemplateFrame(rng.NextU64());

  switch (kind) {
    case 0:  // truncated frame, then disconnect
      mutator.Truncate(&frame);
      (void)sock.WriteFull(frame.data(), frame.size(), 2000);
      return true;  // close without reading: server must not block or leak
    case 1: {  // oversize length prefix (claims > max_frame_bytes)
      const uint32_t huge = 0xf0000000u;
      for (int i = 0; i < 4; ++i) frame[16 + i] = static_cast<uint8_t>(huge >> (8 * i));
      break;
    }
    case 2: {  // garbage behind a valid header: corrupt payload, keep length
      for (size_t i = serve::kFrameHeaderSize; i < frame.size(); ++i) {
        frame[i] = static_cast<uint8_t>(rng.NextU64());
      }
      break;
    }
    case 3:  // corrupt CRC field only
      frame[20 + rng.NextBelow(4)] ^= 0xff;
      break;
    case 4: {  // slowloris: trickle a prefix byte-by-byte, then hang up
      const size_t n = std::min<size_t>(frame.size(), 1 + rng.NextBelow(40));
      for (size_t i = 0; i < n; ++i) {
        if (!sock.WriteFull(frame.data() + i, 1, 500).ok()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1 + rng.NextBelow(5)));
      }
      return true;
    }
    case 5:  // random garbage, no structure at all
      frame.resize(1 + rng.NextBelow(64));
      for (auto& b : frame) b = static_cast<uint8_t>(rng.NextU64());
      break;
    case 6:  // mid-stream disconnect: header only, then close
      (void)sock.WriteFull(frame.data(), serve::kFrameHeaderSize, 2000);
      return true;
    default: {  // ByteMutator-mangled valid frame
      for (uint64_t m = 0, n = 1 + rng.NextBelow(3); m < n; ++m) {
        switch (rng.NextBelow(4)) {
          case 0: mutator.FlipBit(&frame); break;
          case 1: mutator.Truncate(&frame); break;
          case 2: mutator.Extend(&frame); break;
          default: mutator.Garbage(&frame); break;
        }
      }
      break;
    }
  }

  if (!frame.empty()) {
    (void)sock.WriteFull(frame.data(), frame.size(), 2000);
  }
  // A structurally broken frame earns an error frame before the server hangs
  // up. Mutations can also yield accidentally-valid frames (or prefixes the
  // server is still waiting on), so a read timeout here is not a failure —
  // the liveness probe is the real assertion.
  StatusOr<std::pair<serve::FrameHeader, std::vector<uint8_t>>> reply =
      client->ReadFrame(3000);
  if (reply.ok() && reply->first.type == FrameType::kError) {
    *error_frames += 1;
    StatusOr<serve::WireError> err = serve::DecodeWireError(reply->second);
    if (err.ok()) {
      *stage_attributed += 1;  // stage enum decoded: the rejection names its stage
    }
  }
  return true;
}

int RunFaults(const LoadgenOptions& opt) {
  Rng rng(opt.seed);
  ByteMutator mutator(&rng);
  uint64_t error_frames = 0, stage_attributed = 0, connect_failures = 0;
  for (int i = 0; i < opt.fault; ++i) {
    const int kind = static_cast<int>(rng.NextBelow(8));
    if (!InjectOne(opt, rng, mutator, kind, &stage_attributed, &error_frames)) {
      ++connect_failures;
    }
    // Liveness probe: the daemon must still answer a well-formed ping.
    StatusOr<ZkmlClient> probe = ZkmlClient::Connect(opt.host, opt.port, 2000);
    if (!probe.ok() || !probe->Ping(static_cast<uint64_t>(i) + 1, 3000).ok()) {
      std::fprintf(stderr, "FAULT INJECTOR: daemon unresponsive after interaction %d (kind %d)\n",
                   i, kind);
      return 2;
    }
  }
  std::printf("fault injector: %d hostile interactions, %llu explicit error frames "
              "(%llu stage-attributed), %llu connect failures, daemon alive throughout\n",
              opt.fault, static_cast<unsigned long long>(error_frames),
              static_cast<unsigned long long>(stage_attributed),
              static_cast<unsigned long long>(connect_failures));
  if (stage_attributed != error_frames) {
    std::fprintf(stderr, "FAULT INJECTOR: %llu error frames lacked stage attribution\n",
                 static_cast<unsigned long long>(error_frames - stage_attributed));
    return 2;
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: zkml_loadgen --port=N [--host=H] [--zoo=mnist | --model=<file>]\n"
               "                    [--requests=N] [--workers=N] [--rate=R] [--deadline-ms=N]\n"
               "                    [--backend=kzg|ipa] [--shards=N] [--batch=N] [--timeout-ms=N] [--seed=N] [--fault=N]\n"
               "                    [--out=<file>] [--admin-port=N] [--require-server-match]\n");
  return 1;
}

int Main(int argc, char** argv) {
  LoadgenOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* name) -> const char* {
      const std::string prefix = std::string("--") + name + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size() : nullptr;
    };
    if (const char* v = val("host")) opt.host = v;
    else if (const char* v = val("port")) opt.port = static_cast<uint16_t>(std::atoi(v));
    else if (const char* v = val("zoo")) opt.zoo = v;
    else if (const char* v = val("model")) opt.model_file = v;
    else if (const char* v = val("requests")) opt.requests = std::atoi(v);
    else if (const char* v = val("workers")) opt.workers = std::max(1, std::atoi(v));
    else if (const char* v = val("rate")) opt.rate = std::atof(v);
    else if (const char* v = val("deadline-ms")) opt.deadline_ms = static_cast<uint32_t>(std::atoi(v));
    else if (const char* v = val("backend")) opt.backend = std::strcmp(v, "ipa") == 0 ? 1 : 0;
    else if (const char* v = val("timeout-ms")) opt.timeout_ms = std::atoi(v);
    else if (const char* v = val("seed")) opt.seed = std::strtoull(v, nullptr, 10);
    else if (const char* v = val("fault")) opt.fault = std::atoi(v);
    else if (const char* v = val("shards")) opt.shards = std::atoi(v);
    else if (const char* v = val("batch")) opt.batch = std::atoi(v);
    else if (const char* v = val("out")) opt.out_file = v;
    else if (const char* v = val("admin-port")) opt.admin_port = std::atoi(v);
    else if (arg == "--require-server-match") opt.require_server_match = true;
    else { std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str()); return Usage(); }
  }
  if (opt.port == 0) return Usage();

  if (opt.fault > 0) {
    return RunFaults(opt);
  }

  std::string model_text;
  if (!opt.model_file.empty()) {
    StatusOr<Model> model = LoadModelFromFile(opt.model_file);
    if (!model.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", opt.model_file.c_str(),
                   model.status().ToString().c_str());
      return 1;
    }
    model_text = SerializeModel(*model);
  } else {
    const StatusOr<Model> model = FindZooModel(opt.zoo);
    if (!model.ok()) {
      std::fprintf(stderr, "%s\n", model.status().message().c_str());
      return 1;
    }
    model_text = SerializeModel(*model);
  }
  return RunLoad(opt, model_text);
}

}  // namespace
}  // namespace zkml

int main(int argc, char** argv) { return zkml::Main(argc, argv); }
