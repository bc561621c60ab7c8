// ZkmlServer behaviour tests: request/response round-trips, explicit
// stage-attributed rejections, deadline enforcement with cooperative
// cancellation, queue backpressure (OVERLOADED, not timeouts), watchdog
// reaping, and graceful drain. Servers listen on 127.0.0.1 ephemeral ports.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/layers/quant_executor.h"
#include "src/model/serialize.h"
#include "src/model/zoo.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/zkml/batched.h"
#include "src/zkml/sharded.h"
#include "src/zkml/zkml.h"

namespace zkml {
namespace serve {
namespace {

constexpr int kIoMs = 5000;       // client-side timeout for proof waits
constexpr int kProveWaitMs = 120000;

ServeOptions FastServe() {
  ServeOptions options;
  options.num_workers = 2;
  options.queue_capacity = 8;
  options.poll_interval_ms = 20;
  options.io_timeout_ms = 2000;
  options.watchdog_period_ms = 10;
  options.drain_timeout_ms = 60000;
  // Match the e2e tests' fast optimizer envelope so compiles stay ~seconds.
  options.optimizer_min_columns = 10;
  options.optimizer_max_columns = 26;
  options.optimizer_max_k = 14;
  return options;
}

const std::string& MnistText() {
  static const std::string* text = new std::string(SerializeModel(MakeMnistCnn()));
  return *text;
}

ZkmlClient MustConnect(const ZkmlServer& server) {
  StatusOr<ZkmlClient> client = ZkmlClient::Connect("127.0.0.1", server.port(), kIoMs);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(*client);
}

TEST(ServeTest, PingProveRoundTripAndCacheReuse) {
  ZkmlServer server(FastServe());
  ASSERT_TRUE(server.Start().ok());
  ZkmlClient client = MustConnect(server);
  ASSERT_TRUE(client.Ping(99, kIoMs).ok());

  const Model model = MakeMnistCnn();
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 41), model.quant);
  ProveRequest req;
  req.model_text = MnistText();
  req.seed = 41;
  req.input = input.ToVector();

  StatusOr<ZkmlClient::ProveOutcome> first = client.Prove(req, 1, kProveWaitMs);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->ok) << first->error.ToString();
  EXPECT_EQ(first->response.cache_hit, 0);
  EXPECT_FALSE(first->response.proof.empty());
  // The daemon's claimed output matches the local quantized reference run.
  EXPECT_EQ(first->response.output, RunQuantized(model, input).ToVector());

  // Same model again on the same connection: compiled-circuit cache hit.
  StatusOr<ZkmlClient::ProveOutcome> second = client.Prove(req, 2, kProveWaitMs);
  ASSERT_TRUE(second.ok() && second->ok);
  EXPECT_EQ(second->response.cache_hit, 1);

  // The proof verifies against an independently compiled verifying key: the
  // server really proved this statement, it did not just echo bytes.
  ZkmlOptions zo;
  zo.backend = PcsKind::kKzg;
  zo.optimizer.min_columns = 10;
  zo.optimizer.max_columns = 26;
  zo.optimizer.max_k = 14;
  const CompiledModel compiled = CompileModel(model, zo);
  EXPECT_TRUE(
      Verify(compiled.pk.vk, *compiled.pcs, first->response.instance, first->response.proof));

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  server.Stop();
}

TEST(ServeTest, SemanticRejectionsAreStageAttributedAndKeepTheConnection) {
  ZkmlServer server(FastServe());
  ASSERT_TRUE(server.Start().ok());
  ZkmlClient client = MustConnect(server);

  // Unparseable model text → MALFORMED_MODEL attributed to model-parse.
  ProveRequest bad_model;
  bad_model.model_text = "definitely not a model";
  StatusOr<ZkmlClient::ProveOutcome> r1 = client.Prove(bad_model, 1, kIoMs);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_FALSE(r1->ok);
  EXPECT_EQ(r1->error.code, WireErrorCode::kMalformedModel);
  EXPECT_EQ(r1->error.stage, WireStage::kModelParse);

  // Wrong input volume → INPUT_MISMATCH attributed to witness.
  ProveRequest bad_input;
  bad_input.model_text = MnistText();
  bad_input.input = {1, 2, 3};
  StatusOr<ZkmlClient::ProveOutcome> r2 = client.Prove(bad_input, 2, kProveWaitMs);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_FALSE(r2->ok);
  EXPECT_EQ(r2->error.code, WireErrorCode::kInputMismatch);
  EXPECT_EQ(r2->error.stage, WireStage::kWitness);

  // Semantic rejections do not cost the connection: it still serves pings.
  EXPECT_TRUE(client.Ping(3, kIoMs).ok());
  EXPECT_EQ(server.stats().jobs_rejected_malformed, 2u);
  server.Stop();
}

TEST(ServeTest, CorruptFramesAnsweredThenConnectionClosed) {
  ZkmlServer server(FastServe());
  ASSERT_TRUE(server.Start().ok());

  {
    // CRC corruption: explicit BAD_CRC error, then the server hangs up (a
    // byte stream with a corrupt frame cannot be resynchronized).
    ZkmlClient client = MustConnect(server);
    std::vector<uint8_t> frame;
    EncodeFrame(&frame, FrameType::kPing, 7, {});
    frame[20] ^= 0xff;
    ASSERT_TRUE(client.socket().WriteFull(frame.data(), frame.size(), kIoMs).ok());
    StatusOr<std::pair<FrameHeader, std::vector<uint8_t>>> reply = client.ReadFrame(kIoMs);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->first.type, FrameType::kError);
    StatusOr<WireError> err = DecodeWireError(reply->second);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->code, WireErrorCode::kBadCrc);
    EXPECT_EQ(err->stage, WireStage::kFramePayload);
    // Connection is now closed server-side.
    EXPECT_FALSE(client.ReadFrame(1000).ok());
  }
  {
    // Oversize length prefix: rejected before any allocation.
    ZkmlClient client = MustConnect(server);
    std::vector<uint8_t> frame;
    EncodeFrame(&frame, FrameType::kProveRequest, 8, {1, 2, 3});
    const uint32_t huge = 0x7fffffffu;
    for (int i = 0; i < 4; ++i) frame[16 + i] = static_cast<uint8_t>(huge >> (8 * i));
    ASSERT_TRUE(client.socket().WriteFull(frame.data(), frame.size(), kIoMs).ok());
    StatusOr<std::pair<FrameHeader, std::vector<uint8_t>>> reply = client.ReadFrame(kIoMs);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    StatusOr<WireError> err = DecodeWireError(reply->second);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->code, WireErrorCode::kFrameTooLarge);
    EXPECT_EQ(err->stage, WireStage::kFrameHeader);
  }
  EXPECT_GE(server.stats().protocol_errors, 2u);
  server.Stop();
}

TEST(ServeTest, DeadlineExceededWhileConcurrentJobCompletes) {
  ZkmlServer server(FastServe());
  ASSERT_TRUE(server.Start().ok());

  // Warm the compile cache so the tight deadline lands inside proving, where
  // the prover's round-boundary checkpoints must catch it.
  {
    ZkmlClient warm = MustConnect(server);
    ProveRequest req;
    req.model_text = MnistText();
    req.seed = 50;
    StatusOr<ZkmlClient::ProveOutcome> r = warm.Prove(req, 1, kProveWaitMs);
    ASSERT_TRUE(r.ok() && r->ok) << (r.ok() ? r->error.ToString() : r.status().ToString());
  }

  StatusOr<ZkmlClient::ProveOutcome> slow_result = InternalError("unset");
  StatusOr<ZkmlClient::ProveOutcome> fast_result = InternalError("unset");
  std::thread healthy([&] {
    ZkmlClient c = MustConnect(server);
    ProveRequest req;
    req.model_text = MnistText();
    req.seed = 51;
    slow_result = c.Prove(req, 2, kProveWaitMs);
  });
  std::thread doomed([&] {
    ZkmlClient c = MustConnect(server);
    ProveRequest req;
    req.model_text = MnistText();
    req.seed = 52;
    req.deadline_ms = 30;  // far below one proof's duration
    fast_result = c.Prove(req, 3, kProveWaitMs);
  });
  healthy.join();
  doomed.join();

  ASSERT_TRUE(fast_result.ok()) << fast_result.status().ToString();
  ASSERT_FALSE(fast_result->ok);
  EXPECT_EQ(fast_result->error.code, WireErrorCode::kDeadlineExceeded);
  EXPECT_EQ(fast_result->error.stage, WireStage::kProve);
  // The Status message names the checkpoint that noticed the expiry.
  EXPECT_NE(fast_result->error.message.find("deadline exceeded at"), std::string::npos)
      << fast_result->error.message;

  // The concurrent healthy job was unaffected by its neighbour's deadline.
  ASSERT_TRUE(slow_result.ok()) << slow_result.status().ToString();
  EXPECT_TRUE(slow_result->ok) << slow_result->error.ToString();
  EXPECT_GE(server.stats().jobs_deadline_exceeded, 1u);
  server.Stop();
}

TEST(ServeTest, OverloadShedsExplicitlyWhileInFlightJobsComplete) {
  ServeOptions options = FastServe();
  options.num_workers = 1;
  options.queue_capacity = 1;
  ZkmlServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // Warm the cache so every subsequent prove is pure prover work.
  {
    ZkmlClient warm = MustConnect(server);
    ProveRequest req;
    req.model_text = MnistText();
    req.seed = 60;
    ASSERT_TRUE(warm.Prove(req, 1, kProveWaitMs).ok());
  }

  // One job occupies the single worker, one fills the queue; further
  // arrivals must shed immediately with OVERLOADED while the first two run
  // to completion.
  std::vector<StatusOr<ZkmlClient::ProveOutcome>> results(5, InternalError("unset"));
  std::vector<std::thread> clients;
  for (int i = 0; i < 5; ++i) {
    clients.emplace_back([&, i] {
      ZkmlClient c = MustConnect(server);
      ProveRequest req;
      req.model_text = MnistText();
      req.seed = 61 + static_cast<uint64_t>(i);
      // Stagger so the first request reaches the worker before the flood.
      std::this_thread::sleep_for(std::chrono::milliseconds(20 * i));
      results[static_cast<size_t>(i)] = c.Prove(req, static_cast<uint64_t>(i) + 10, kProveWaitMs);
    });
  }
  for (auto& t : clients) t.join();

  uint64_t ok = 0, overloaded = 0;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r->ok) {
      ++ok;
    } else {
      EXPECT_EQ(r->error.code, WireErrorCode::kOverloaded) << r->error.ToString();
      EXPECT_EQ(r->error.stage, WireStage::kAdmission);
      ++overloaded;
    }
  }
  // At least one must shed (5 near-simultaneous arrivals into worker=1 +
  // queue=1) and the admitted ones must all complete.
  EXPECT_GE(overloaded, 1u);
  EXPECT_GE(ok, 2u);
  EXPECT_EQ(ok + overloaded, 5u);
  EXPECT_EQ(server.stats().jobs_shed_overload, overloaded);
  server.Stop();
}

TEST(ServeTest, WatchdogReapsJobWedgedInUncancellableWork) {
  ServeOptions options = FastServe();
  options.wedge_grace_ms = 100;
  ZkmlServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ZkmlClient client = MustConnect(server);

  // A cold mobilenet makes compilation the wedge: it takes about 0.4s, well
  // past the 50ms deadline plus 100ms grace, and has no cancellation
  // checkpoints, so both elapse while the job cannot yield. The watchdog must
  // cancel the token; the job reports CANCELLED ("reaped") at its next
  // checkpoint instead of running the proof after its client has long given
  // up.
  ProveRequest req;
  req.model_text = SerializeModel(MakeMobileNetLite());
  req.seed = 70;
  req.deadline_ms = 50;
  StatusOr<ZkmlClient::ProveOutcome> r = client.Prove(req, 1, kProveWaitMs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->ok);
  EXPECT_EQ(r->error.code, WireErrorCode::kCancelled) << r->error.ToString();
  EXPECT_NE(r->error.message.find("reaped by watchdog"), std::string::npos) << r->error.message;
  EXPECT_EQ(server.stats().watchdog_reaped, 1u);
  server.Stop();
}

TEST(ServeTest, DrainRejectsNewWorkThenStopsClean) {
  ZkmlServer server(FastServe());
  ASSERT_TRUE(server.Start().ok());
  ZkmlClient client = MustConnect(server);
  ASSERT_TRUE(client.Ping(1, kIoMs).ok());

  server.RequestDrain();
  EXPECT_TRUE(server.draining());

  // New requests on the live connection get the explicit drain response.
  ProveRequest req;
  req.model_text = MnistText();
  StatusOr<ZkmlClient::ProveOutcome> r = client.Prove(req, 2, kIoMs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->ok);
  EXPECT_EQ(r->error.code, WireErrorCode::kShuttingDown);
  EXPECT_EQ(r->error.stage, WireStage::kAdmission);

  // Liveness probes still answer during the drain window.
  EXPECT_TRUE(client.Ping(3, kIoMs).ok());

  server.Stop();  // joins every thread; reaching the next line is the test
  EXPECT_EQ(server.stats().jobs_completed, 0u);
}

// --- Sharded proving over the wire (protocol v2). ---

TEST(ServeWireTest, ProvePayloadsRoundTripShardCount) {
  ProveRequest req;
  req.model_text = "m";
  req.backend = 1;
  req.deadline_ms = 250;
  req.seed = 7;
  req.input = {1, -2, 3};
  req.shards = 4;
  const StatusOr<ProveRequest> rt = DecodeProveRequest(EncodeProveRequest(req));
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  EXPECT_EQ(rt->shards, 4u);
  EXPECT_EQ(rt->model_text, "m");
  EXPECT_EQ(rt->input, req.input);

  ProveResponse resp;
  resp.proof = {0xAA, 0xBB};
  resp.output = {5};
  resp.prove_micros = 123;
  resp.shards = 2;
  const StatusOr<ProveResponse> rr = DecodeProveResponse(EncodeProveResponse(resp));
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  EXPECT_EQ(rr->shards, 2u);
  EXPECT_EQ(rr->proof, resp.proof);
}

TEST(ServeTest, ShardedProveReturnsVerifiableArtifact) {
  ZkmlServer server(FastServe());
  ASSERT_TRUE(server.Start().ok());
  ZkmlClient client = MustConnect(server);

  const Model model = MakeMnistCnn();
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 51), model.quant);
  ProveRequest req;
  req.model_text = MnistText();
  req.seed = 51;
  req.input = input.ToVector();
  req.shards = 2;

  StatusOr<ZkmlClient::ProveOutcome> first = client.Prove(req, 1, kProveWaitMs);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->ok) << first->error.ToString();
  EXPECT_EQ(first->response.shards, 2u);
  EXPECT_EQ(CompositeKindOf(first->response.proof), CompositeKind::kSharded);
  EXPECT_EQ(first->response.output, RunQuantized(model, input).ToVector());

  // The artifact verifies against independently compiled shard keys, with the
  // aggregated (single-pairing) opening check under KZG.
  ZkmlOptions zo;
  zo.backend = PcsKind::kKzg;
  zo.optimizer.min_columns = 10;
  zo.optimizer.max_columns = 26;
  zo.optimizer.max_k = 14;
  const StatusOr<CompiledShardedModel> compiled = CompileSharded(model, 2, zo);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const VerifyResult r =
      VerifySharded(*compiled, first->response.instance, first->response.proof);
  EXPECT_TRUE(r.ok()) << r.ToString();

  // Re-proving the same sharded request hits the per-shard compile cache.
  StatusOr<ZkmlClient::ProveOutcome> second = client.Prove(req, 2, kProveWaitMs);
  ASSERT_TRUE(second.ok() && second->ok);
  EXPECT_EQ(second->response.cache_hit, 1);
  EXPECT_EQ(second->response.shards, 2u);

  // A single-circuit request on the same connection still answers shards=1.
  req.shards = 0;
  StatusOr<ZkmlClient::ProveOutcome> single = client.Prove(req, 3, kProveWaitMs);
  ASSERT_TRUE(single.ok() && single->ok);
  EXPECT_EQ(single->response.shards, 1u);
  EXPECT_EQ(CompositeKindOf(single->response.proof), std::nullopt);
  server.Stop();
}

TEST(ServeTest, ShardedRequestCompilesShardsConcurrentlyThroughTheCache) {
  ServeOptions options = FastServe();
  options.trace_sample_every = 1;
  ZkmlServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ZkmlClient client = MustConnect(server);
  ProveRequest req;
  req.model_text = MnistText();
  req.seed = 53;
  req.shards = 2;
  StatusOr<ZkmlClient::ProveOutcome> first = client.Prove(req, 1, kProveWaitMs);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->ok) << first->error.ToString();
  EXPECT_EQ(first->response.cache_hit, 0);

  // The sampled trace holds one "compile" span per shard under serve.compile,
  // and they overlap in time: the shards compile concurrently.
  const std::vector<obs::Json> traces = server.trace_ring().Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  const obs::Json* spans = traces[0].Find("spans");
  ASSERT_NE(spans, nullptr);
  std::map<int64_t, const obs::Json*> by_id;
  for (const obs::Json& span : spans->items()) by_id[span.Find("id")->AsInt()] = &span;
  auto under_serve_compile = [&](const obs::Json& span) {
    for (auto it = by_id.find(span.Find("parent")->AsInt()); it != by_id.end();
         it = by_id.find(it->second->Find("parent")->AsInt())) {
      if (it->second->Find("name")->AsString() == "serve.compile") return true;
    }
    return false;
  };
  std::vector<std::pair<double, double>> compiles;  // [start, end) in us
  for (const obs::Json& span : spans->items()) {
    if (span.Find("name")->AsString() == "compile" && under_serve_compile(span)) {
      const double start = span.Find("start_us")->AsDouble();
      compiles.emplace_back(start, start + span.Find("dur_us")->AsDouble());
    }
  }
  ASSERT_EQ(compiles.size(), 2u);
  EXPECT_LT(compiles[0].first, compiles[1].second);
  EXPECT_LT(compiles[1].first, compiles[0].second);

  // A repeat request finds both shard keys in the cache.
  StatusOr<ZkmlClient::ProveOutcome> second = client.Prove(req, 2, kProveWaitMs);
  ASSERT_TRUE(second.ok() && second->ok);
  EXPECT_EQ(second->response.cache_hit, 1);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_hits, 2u);
  server.Stop();
}

// --- Batched proving over the wire (protocol v3). ---

TEST(ServeWireTest, ProvePayloadsRoundTripBatchCount) {
  ProveRequest req;
  req.model_text = "m";
  req.seed = 7;
  req.batch = 3;
  const StatusOr<ProveRequest> rt = DecodeProveRequest(EncodeProveRequest(req));
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  EXPECT_EQ(rt->batch, 3u);

  // A v2 encode has no batch field; a v2 decode never reports one.
  const StatusOr<ProveRequest> v2 =
      DecodeProveRequest(EncodeProveRequest(req, /*version=*/2), /*version=*/2);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(v2->batch, 0u);

  ProveResponse resp;
  resp.proof = {0xAA};
  resp.batch = 4;
  const StatusOr<ProveResponse> rr = DecodeProveResponse(EncodeProveResponse(resp));
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  EXPECT_EQ(rr->batch, 4u);
}

TEST(ServeTest, BatchedProveReturnsVerifiableArtifact) {
  ZkmlServer server(FastServe());
  ASSERT_TRUE(server.Start().ok());
  ZkmlClient client = MustConnect(server);

  const Model model = MakeMnistCnn();
  ProveRequest req;
  req.model_text = MnistText();
  req.seed = 81;
  req.batch = 2;

  StatusOr<ZkmlClient::ProveOutcome> r = client.Prove(req, 1, kProveWaitMs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->ok) << r->error.ToString();
  EXPECT_EQ(r->response.batch, 2u);
  EXPECT_EQ(CompositeKindOf(r->response.proof), CompositeKind::kBatched);

  // The output is the concatenation of both inferences' reference runs
  // (synthetic inputs from seed and seed+1).
  std::vector<int64_t> expected;
  for (uint64_t i = 0; i < 2; ++i) {
    const Tensor<int64_t> input =
        QuantizeTensor(SyntheticInput(model, req.seed + i), model.quant);
    const std::vector<int64_t> out = RunQuantized(model, input).ToVector();
    expected.insert(expected.end(), out.begin(), out.end());
  }
  EXPECT_EQ(r->response.output, expected);

  // The artifact verifies against an independently compiled batched circuit.
  ZkmlOptions zo;
  zo.backend = PcsKind::kKzg;
  zo.optimizer.min_columns = 10;
  zo.optimizer.max_columns = 26;
  zo.optimizer.max_k = 14;
  const StatusOr<CompiledBatchedModel> compiled = CompileBatched(model, 2, zo);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const VerifyResult v =
      VerifyBatchedDetailed(*compiled, r->response.instance, r->response.proof);
  EXPECT_TRUE(v.ok()) << v.ToString();

  // Asking for sharded AND batched proving in one request is rejected.
  ProveRequest both = req;
  both.shards = 2;
  StatusOr<ZkmlClient::ProveOutcome> bad = client.Prove(both, 2, kProveWaitMs);
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  ASSERT_FALSE(bad->ok);
  EXPECT_EQ(bad->error.code, WireErrorCode::kMalformedRequest);
  server.Stop();
}

TEST(ServeTest, CompatibleQueuedJobsCoalesceIntoOneBatchedProof) {
  ServeOptions options = FastServe();
  options.num_workers = 1;   // everything funnels through one worker
  options.coalesce_max = 4;  // it may claim up to 3 queued compatible jobs
  ZkmlServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const Model model = MakeMnistCnn();

  // Occupy the single worker with a cold compile; the three jobs that arrive
  // meanwhile queue up and must be claimed as ONE group when it frees.
  StatusOr<ZkmlClient::ProveOutcome> head_result = InternalError("unset");
  std::thread head([&] {
    ZkmlClient c = MustConnect(server);
    ProveRequest req;
    req.model_text = MnistText();
    req.seed = 90;
    head_result = c.Prove(req, 1, kProveWaitMs);
  });
  // The group must queue while the head runs, so wait until it is claimed.
  while (server.stats().running_jobs == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<StatusOr<ZkmlClient::ProveOutcome>> results(3, InternalError("unset"));
  std::vector<Tensor<int64_t>> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(
        QuantizeTensor(SyntheticInput(model, 91 + static_cast<uint64_t>(i)), model.quant));
  }
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      ZkmlClient c = MustConnect(server);
      ProveRequest req;
      req.model_text = MnistText();
      req.seed = 91 + static_cast<uint64_t>(i);
      req.input = inputs[static_cast<size_t>(i)].ToVector();
      results[static_cast<size_t>(i)] = c.Prove(req, static_cast<uint64_t>(i) + 10, kProveWaitMs);
    });
  }
  head.join();
  for (auto& t : clients) t.join();
  ASSERT_TRUE(head_result.ok() && head_result->ok);

  // Every member of the group succeeded, shares the batched artifact, and
  // got its OWN inference's output (matching its local reference run).
  for (int i = 0; i < 3; ++i) {
    const auto& r = results[static_cast<size_t>(i)];
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->ok) << r->error.ToString();
    EXPECT_EQ(r->response.batch, 3u) << "job " << i << " was not coalesced";
    EXPECT_EQ(CompositeKindOf(r->response.proof), CompositeKind::kBatched);
    EXPECT_EQ(r->response.output,
              RunQuantized(model, inputs[static_cast<size_t>(i)]).ToVector())
        << "job " << i << " got another member's output";
    EXPECT_EQ(r->response.proof, results[0]->response.proof)
        << "group members must share one artifact";
  }

  // The shared artifact verifies against an independent batched circuit.
  ZkmlOptions zo;
  zo.backend = PcsKind::kKzg;
  zo.optimizer.min_columns = 10;
  zo.optimizer.max_columns = 26;
  zo.optimizer.max_k = 14;
  const StatusOr<CompiledBatchedModel> compiled = CompileBatched(model, 3, zo);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const VerifyResult v = VerifyBatchedDetailed(*compiled, results[0]->response.instance,
                                               results[0]->response.proof);
  EXPECT_TRUE(v.ok()) << v.ToString();
  EXPECT_EQ(server.stats().jobs_completed, 4u);
  server.Stop();
}

uint64_t StageSamples(const std::string& stage) {
  for (const auto& [name, h] : obs::MetricsRegistry::Global().Snapshot().histograms) {
    if (name == "serve.stage_seconds." + stage) return h.count;
  }
  return 0;
}

TEST(ServeTest, OversizedBatchRejectedBeforeCompile) {
  ZkmlServer server(FastServe());
  ASSERT_TRUE(server.Start().ok());
  ZkmlClient client = MustConnect(server);
  const uint64_t compiles_before = StageSamples("compile");

  // 100000 mnist statements cannot fit 2^max_k instance rows: the planner's
  // bound refuses the member before the optimizer or the cache is touched.
  ProveRequest req;
  req.model_text = MnistText();
  req.seed = 3;
  req.batch = 100000;
  StatusOr<ZkmlClient::ProveOutcome> bad = client.Prove(req, 1, kProveWaitMs);
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  ASSERT_FALSE(bad->ok);
  EXPECT_EQ(bad->error.code, WireErrorCode::kMalformedRequest);
  EXPECT_EQ(bad->error.stage, WireStage::kModelParse);
  EXPECT_EQ(StageSamples("compile"), compiles_before);

  // The worker is free at once: a normal request on the same connection proves.
  req.batch = 0;
  StatusOr<ZkmlClient::ProveOutcome> good = client.Prove(req, 2, kProveWaitMs);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_TRUE(good->ok) << good->error.ToString();
  EXPECT_EQ(StageSamples("compile"), compiles_before + 1);
  server.Stop();
}

TEST(ServeTest, CoalescedMembersFailAloneAndSurvivorsShareOneBatchedProof) {
  const std::string event_log = ::testing::TempDir() + "/serve_coalesce_events.jsonl";
  ServeOptions options = FastServe();
  options.num_workers = 1;   // everything funnels through one worker
  options.coalesce_max = 4;  // the queued jobs below fit one claim
  options.event_log_path = event_log;
  ZkmlServer server(options);
  const uint64_t admissions_before = StageSamples("admission");
  ASSERT_TRUE(server.Start().ok());

  const Model model = MakeMnistCnn();

  // Occupy the single worker with a cold compile while four jobs queue.
  StatusOr<ZkmlClient::ProveOutcome> head_result = InternalError("unset");
  std::thread head([&] {
    ZkmlClient c = MustConnect(server);
    ProveRequest req;
    req.model_text = MnistText();
    req.seed = 100;
    head_result = c.Prove(req, 1, kProveWaitMs);
  });
  // The group must queue while the head runs, so wait until it is claimed.
  while (server.stats().running_jobs == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // 0: wrong-size input; 1: a budget that expires in the queue; 2 and 3:
  // good jobs, one with an explicit input and one with a synthetic seed.
  const Tensor<int64_t> explicit_input =
      QuantizeTensor(SyntheticInput(model, 102), model.quant);
  std::vector<ProveRequest> reqs(4);
  for (ProveRequest& req : reqs) req.model_text = MnistText();
  reqs[0].input.assign(7, 1);
  reqs[1].seed = 101;
  reqs[1].deadline_ms = 1;
  reqs[2].input = explicit_input.ToVector();
  reqs[3].seed = 103;
  std::vector<StatusOr<ZkmlClient::ProveOutcome>> results(4, InternalError("unset"));
  std::vector<std::thread> clients;
  for (size_t i = 0; i < reqs.size(); ++i) {
    clients.emplace_back([&, i] {
      ZkmlClient c = MustConnect(server);
      results[i] = c.Prove(reqs[i], i + 10, kProveWaitMs);
    });
  }
  head.join();
  for (auto& t : clients) t.join();
  server.Stop();
  ASSERT_TRUE(head_result.ok() && head_result->ok);
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();

  ASSERT_FALSE(results[0]->ok);
  EXPECT_EQ(results[0]->error.code, WireErrorCode::kInputMismatch);
  EXPECT_EQ(results[0]->error.stage, WireStage::kWitness);
  ASSERT_FALSE(results[1]->ok) << "an expired member must not be proved";
  EXPECT_EQ(results[1]->error.code, WireErrorCode::kDeadlineExceeded);
  EXPECT_EQ(results[1]->error.stage, WireStage::kAdmission);

  // The two survivors share one batch-2 artifact, each with its own output.
  const std::vector<std::vector<int64_t>> expected = {
      RunQuantized(model, explicit_input).ToVector(),
      RunQuantized(model, QuantizeTensor(SyntheticInput(model, 103), model.quant)).ToVector()};
  for (size_t i = 0; i < 2; ++i) {
    const auto& r = results[i + 2];
    ASSERT_TRUE(r->ok) << r->error.ToString();
    EXPECT_EQ(r->response.batch, 2u) << "survivor " << i << " was not coalesced";
    EXPECT_EQ(CompositeKindOf(r->response.proof), CompositeKind::kBatched);
    EXPECT_EQ(r->response.proof, results[2]->response.proof);
    EXPECT_EQ(r->response.output, expected[i]) << "survivor " << i << " got another output";
  }
  ZkmlOptions zo;
  zo.backend = PcsKind::kKzg;
  zo.optimizer.min_columns = 10;
  zo.optimizer.max_columns = 26;
  zo.optimizer.max_k = 14;
  const StatusOr<CompiledBatchedModel> compiled = CompileBatched(model, 2, zo);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const VerifyResult v = VerifyBatchedDetailed(*compiled, results[2]->response.instance,
                                               results[2]->response.proof);
  EXPECT_TRUE(v.ok()) << v.ToString();

  // Each job was recorded at admission exactly once, and ended in exactly
  // one terminal event.
  EXPECT_EQ(StageSamples("admission") - admissions_before, 5u);
  std::map<uint64_t, int> admitted, terminal;
  std::ifstream in(event_log);
  for (std::string line; std::getline(in, line);) {
    StatusOr<obs::Json> ev = obs::Json::Parse(line);
    ASSERT_TRUE(ev.ok()) << line;
    const obs::Json* name = ev->Find("event");
    const obs::Json* id = ev->Find("job_id");
    if (name == nullptr || id == nullptr) continue;
    if (name->AsString() == "job_admitted") {
      ++admitted[id->AsUint()];
    } else if (name->AsString().rfind("job_", 0) == 0) {
      ++terminal[id->AsUint()];
    }
  }
  EXPECT_EQ(admitted.size(), 5u);
  for (const auto& [id, n] : admitted) {
    EXPECT_EQ(n, 1) << "job " << id;
    EXPECT_EQ(terminal[id], 1) << "job " << id << " terminal events";
  }
  EXPECT_EQ(terminal.size(), 5u);
}

}  // namespace
}  // namespace serve
}  // namespace zkml
