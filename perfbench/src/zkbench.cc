// zkbench: runs one benchmark workload through zkml's public APIs in this
// process and prints one JSON document (the last line of stdout) holding the
// raw samples, the correctness checks, the circuit pins and, with --trace,
// every span record. perfbench/run.py launches it in fresh processes and
// turns the samples into the metrics named in BENCHMARK.json.
//
//   zkbench --workload cold-compile|warm-prove|serve-mix --seed N
//           [--seconds S] [--trace]
//
// --seconds sizes the measured work: warm-prove's proof count, serve-mix's
// open-loop request count and closed-loop window. cold-compile always runs
// its fixed model set once.
//
// With --trace, spans are recorded for the per-layer metrics. warm-prove then
// traces every other proof and serve-mix every other job, and records the
// traced and untraced operation times, from which run.py estimates the
// tracing overhead.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/base/cpu_features.h"
#include "src/base/kernel_stats.h"
#include "src/base/task_context.h"
#include "src/base/thread_pool.h"
#include "src/layers/quant_executor.h"
#include "src/model/serialize.h"
#include "src/model/zoo.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/optimizer/cost_model.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/tensor/quantizer.h"
#include "src/transcript/sha256.h"
#include "src/zkml/batched.h"
#include "src/zkml/sharded.h"
#include "src/zkml/zkml.h"

namespace zkml {
namespace {

using Clock = std::chrono::steady_clock;
using obs::Json;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Seconds since the process's first call: the time base of request records.
double ProcessSeconds(Clock::time_point t) {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(t - epoch).count();
}

// serve-mix load. The open loop sends a fixed number of requests (2 per
// second of --seconds: 40 at 20 s, eight decks of the mix, and enough for a
// p75 with 10 requests beyond it) at a fixed 2 requests/s. The mix's closed
// loop completes about 4 requests/s (6.4 inferences/s) on a 4-CPU host, so
// the open loop offers about half of saturation. At 3/s a slow spell of the
// host pushed the queue towards saturation and doubled the median latency of
// whole runs. The closed loop then runs for a quarter of --seconds. Client
// threads and connections: at most nproc.
constexpr double kOpenRatePerS = 2.0;
constexpr double kOpenRequestsPerRunSecond = 2.0;
constexpr double kClosedShare = 0.25;
constexpr int kServeClients = 4;

// warm-prove: proofs per second of --seconds. The proof count is fixed, so
// the tail percentile a run supports does not change with speed. At 20 s
// that is 20 proofs, and the highest percentile with 10 samples beyond it is
// the p50: prove_tail_s then equals prove_p50_s (a p75 would need 40 proofs,
// 16 s more per run than the benchmark's time budget allows).
constexpr double kWarmProofsPerRunSecond = 1.0;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
};

// The optimizer envelope zkml_cli and zkml_serve compile with.
ZkmlOptions CompileOptions(PcsKind backend) {
  ZkmlOptions zo;
  zo.backend = backend;
  zo.optimizer.backend = backend;
  zo.optimizer.min_columns = 8;
  zo.optimizer.max_columns = 32;
  zo.optimizer.max_k = 15;
  return zo;
}

std::vector<Fr> Statement(const std::vector<int64_t>& input, const std::vector<int64_t>& output) {
  std::vector<Fr> s;
  s.reserve(input.size() + output.size());
  for (int64_t v : input) s.push_back(Fr::FromInt64(v));
  for (int64_t v : output) s.push_back(Fr::FromInt64(v));
  return s;
}

// SHA-256 over the verifying key's shape and commitments (first 8 bytes, hex).
std::string VkDigest(const VerifyingKey& vk) {
  Sha256 h;
  auto put = [&h](uint64_t v) {
    uint8_t b[8];
    std::memcpy(b, &v, sizeof(b));
    h.Update(b, sizeof(b));
  };
  put(static_cast<uint64_t>(vk.k));
  put(vk.num_instance_rows);
  for (const auto* list : {&vk.fixed_commitments, &vk.sigma_commitments}) {
    put(list->size());
    for (const PcsCommitment& c : *list) {
      const auto bytes = c.point.Serialize();
      h.Update(bytes.data(), bytes.size());
    }
  }
  const auto digest = h.Finalize();
  std::string hex;
  char buf[3];
  for (size_t i = 0; i < 8; ++i) {
    std::snprintf(buf, sizeof(buf), "%02x", digest[i]);
    hex += buf;
  }
  return hex;
}

Tensor<int64_t> QuantizedInput(const Model& model, uint64_t seed) {
  return QuantizeTensor(SyntheticInput(model, seed), model.quant);
}

// Accumulates one process's result document.
class Recorder {
 public:
  void Sample(const std::string& name, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_[name].push_back(v);
  }
  void Value(const std::string& name, double v) { values_[name] = v; }
  // One user-visible request of a kind: when it was due (its scheduled send,
  // or its start in a closed loop), when its result came back, and whether
  // that result was a verified, correct proof. run.py derives the latency,
  // the per-kind medians and the ok-share from these.
  void Request(const std::string& kind, Clock::time_point due, Clock::time_point done, bool ok) {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t index = std::find(kinds_.begin(), kinds_.end(), kind) - kinds_.begin();
    if (index == kinds_.size()) kinds_.push_back(kind);
    samples_["request_kind"].push_back(static_cast<double>(index));
    samples_["request_due_s"].push_back(ProcessSeconds(due));
    samples_["request_done_s"].push_back(ProcessSeconds(done));
    samples_["request_ok"].push_back(ok ? 1.0 : 0.0);
  }
  void Layer(const std::string& name, double v) { layers_[name] = v; }
  void AddLayer(const std::string& name, double v) { layers_[name] += v; }

  // One attempted user-visible operation (a proof request); `ok` when it
  // produced a verified, correct result.
  void Attempt(bool ok) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!ok) ++failed_;
  }
  // A correctness check; any failure marks the whole run incorrect.
  bool Check(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++checks_;
    if (!ok) {
      check_failures_.push_back(what);
      std::fprintf(stderr, "zkbench: check failed: %s\n", what.c_str());
    }
    return ok;
  }

  void Pin(const std::string& model, const CompiledModel& c, size_t proof_bytes) {
    Json pin = Json::Object();
    pin.Set("model", model);
    pin.Set("k", c.layout.k);
    pin.Set("columns", c.layout.num_columns);
    pin.Set("rows_used", static_cast<uint64_t>(c.layout.rows_used));
    pin.Set("proof_bytes", static_cast<uint64_t>(proof_bytes));
    pin.Set("vk_digest", VkDigest(c.pk.vk));
    pins_.Append(std::move(pin));
    Layer("optimizer.chosen_k." + model, c.layout.k);
    Layer("optimizer.chosen_columns." + model, c.layout.num_columns);
  }

  Json ToJson() const {
    Json doc = Json::Object();
    Json samples = Json::Object();
    for (const auto& [name, list] : samples_) {
      Json a = Json::Array();
      for (double v : list) a.Append(v);
      samples.Set(name, std::move(a));
    }
    auto scalars = [](const std::map<std::string, double>& m) {
      Json o = Json::Object();
      for (const auto& [name, v] : m) o.Set(name, v);
      return o;
    };
    Json failures = Json::Array();
    for (const std::string& f : check_failures_) failures.Append(f);
    Json kinds = Json::Array();
    for (const std::string& k : kinds_) kinds.Append(k);
    doc.Set("attempted", attempted_);
    doc.Set("failed", failed_);
    doc.Set("checks", checks_);
    doc.Set("check_failures", std::move(failures));
    doc.Set("samples", std::move(samples));
    doc.Set("request_kinds", std::move(kinds));
    doc.Set("values", scalars(values_));
    doc.Set("layers", scalars(layers_));
    doc.Set("pins", pins_);
    return doc;
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::map<std::string, double> layers_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checks_ = 0;
  std::vector<std::string> check_failures_;
  std::vector<std::string> kinds_;  // request_kind sample -> name
  Json pins_ = Json::Array();
};

// Process-wide counters read as deltas over the workload.
struct CounterSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, std::pair<uint64_t, double>> histograms;  // count, sum
  ThreadPoolStats pool;

  static CounterSnapshot Take() {
    CounterSnapshot s;
    const obs::MetricsSnapshot m = obs::MetricsRegistry::Global().Snapshot();
    for (const auto& [name, v] : m.counters) s.counters[name] = v;
    for (const auto& [name, v] : m.gauges) s.gauges[name] = v;
    for (const auto& [name, h] : m.histograms) s.histograms[name] = {h.count, h.sum};
    s.pool = ThreadPool::Global().Stats();
    return s;
  }
  uint64_t Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  double Gauge(const std::string& name) const {
    auto it = gauges.find(name);
    return it == gauges.end() ? 0 : it->second;
  }
  std::pair<uint64_t, double> Hist(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? std::pair<uint64_t, double>{0, 0.0} : it->second;
  }
};

// Per-layer counters, gauges and histogram means over [before, after].
void RecordLayerDeltas(const CounterSnapshot& before, const CounterSnapshot& after,
                       Recorder& rec) {
  auto delta = [&](const std::string& name) {
    return static_cast<double>(after.Counter(name) - before.Counter(name));
  };
  rec.Layer("optimizer.plans_evaluated", delta("optimizer.plans_evaluated"));
  rec.Layer("pcs.lagrange_basis_builds", delta("pcs.lagrange_basis_builds"));
  rec.Layer("pcs.kzg.pairing_checks", delta("pcs.kzg.pairing_checks"));
  rec.Layer("pcs.kzg.verify_batches", delta("pcs.kzg.verify_batches"));

  rec.Layer("prover.pool.hits", after.Gauge("prover.pool.hits") - before.Gauge("prover.pool.hits"));
  rec.Layer("prover.pool.misses",
            after.Gauge("prover.pool.misses") - before.Gauge("prover.pool.misses"));

  // Busy share of the pool's own workers (the trailing helper slot counts
  // work done by threads that wait on a TaskGroup, which has no capacity).
  const size_t n = ThreadPool::Global().num_threads();
  double busy_ns = 0;
  for (size_t i = 0; i < n && i < after.pool.workers.size() && i < before.pool.workers.size();
       ++i) {
    busy_ns += static_cast<double>(after.pool.workers[i].busy_ns - before.pool.workers[i].busy_ns);
  }
  const double up_ns = static_cast<double>(after.pool.uptime_ns - before.pool.uptime_ns);
  rec.Layer("threadpool.busy_s", busy_ns / 1e9);
  rec.Layer("threadpool.capacity_s", up_ns / 1e9 * static_cast<double>(n));
  rec.Layer("base.pool_tasks",
            static_cast<double>(after.pool.tasks_executed - before.pool.tasks_executed));

  // Serve stage histograms: seconds and jobs recorded over the workload.
  for (const char* stage : {"admission", "compile", "witness", "prove", "respond"}) {
    const std::string h = std::string("serve.stage_seconds.") + stage;
    const auto [c1, s1] = after.Hist(h);
    const auto [c0, s0] = before.Hist(h);
    rec.Layer(h + ".sum", s1 - s0);
    rec.Layer(h + ".count", static_cast<double>(c1 - c0));
  }
}

Json HostStamp(const Flags& flags) {
  const CpuFeatures& cpu = CpuFeatures::Get();
  cpu_set_t set;
  CPU_ZERO(&set);
  size_t affinity = 0;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) affinity = CPU_COUNT(&set);
  Json host = Json::Object();
  host.Set("cpu_model", cpu.cpu_model);
  host.Set("num_cpus", static_cast<uint64_t>(std::thread::hardware_concurrency()));
  host.Set("affinity_cpus", static_cast<uint64_t>(affinity));
  host.Set("simd", cpu.Summary());
  host.Set("threads", static_cast<uint64_t>(ThreadPool::Global().num_threads()));
  host.Set("workload_seed", flags.seed);
  return host;
}

// Flattens a tracer's spans into [tracer, id, parent, name, start_us, dur_us,
// fft_calls, fft_points, msm_calls, msm_points] rows.
void AppendSpans(const Json& trace_doc, uint64_t tracer_index, Json& out) {
  const Json* spans = trace_doc.Find("spans");
  if (spans == nullptr) return;
  for (const Json& s : spans->items()) {
    const Json* k = s.Find("kernels");
    auto kernel = [&](const char* key) {
      const Json* v = k == nullptr ? nullptr : k->Find(key);
      return v == nullptr ? 0.0 : v->AsDouble();
    };
    Json row = Json::Array();
    row.Append(tracer_index);
    row.Append(s.Find("id")->AsInt());
    row.Append(s.Find("parent")->AsInt());
    row.Append(s.Find("name")->AsString());
    row.Append(s.Find("start_us")->AsDouble());
    row.Append(s.Find("dur_us")->AsDouble());
    row.Append(kernel("fft_calls"));
    row.Append(kernel("fft_points"));
    row.Append(kernel("msm_calls"));
    row.Append(kernel("msm_points"));
    out.Append(std::move(row));
  }
}

// Rejects-a-tampered-statement check: one output value +1 must not verify.
template <typename VerifyFn>
void CheckTamperRejected(const std::vector<Fr>& instance, size_t output_index,
                         const VerifyFn& verify, const std::string& what, Recorder& rec) {
  std::vector<Fr> bad = instance;
  bool rejected = false;
  if (output_index < bad.size()) {
    bad[output_index] = bad[output_index] + Fr::One();
    rejected = !verify(bad).ok();
  }
  rec.Check(rejected, what + ": tampered statement (one output +1) was not rejected");
}

// Times one VerifyProofsBatched call over every claim, kBatchVerifyReps times
// (run.py reports the median rate); each call must accept.
constexpr int kBatchVerifyReps = 3;
void MeasureBatchVerify(const std::vector<CrossProofClaim>& claims, Recorder& rec) {
  for (int r = 0; r < kBatchVerifyReps; ++r) {
    const auto t0 = Clock::now();
    const CrossProofVerdict verdict = [&] {
      obs::Span span("bench.verify_batch");
      return VerifyProofsBatched(claims);
    }();
    rec.Sample("verify_batch_s", SecondsSince(t0));
    rec.Check(verdict.ok(), "batched verification rejected honest proofs");
  }
  rec.Value("verify_batch_proofs", static_cast<double>(claims.size()));
}

// CompileModel under a benchmark span, crediting the FFT/MSM work it does to
// the keygen.* counters.
CompiledModel TracedCompile(const Model& model, PcsKind backend, Recorder& rec) {
  obs::Span span("bench.compile");
  const KernelCounters k0 = kernelstats::Capture();
  CompiledModel compiled = CompileModel(model, CompileOptions(backend));
  const KernelCounters dk = kernelstats::Capture() - k0;
  rec.AddLayer("keygen.fft_points", static_cast<double>(dk.fft_points));
  rec.AddLayer("keygen.msm_points", static_cast<double>(dk.msm_points));
  return compiled;
}

// ---------------------------------------------------------------------------
// cold-compile: model text -> parse -> CompileModel -> one prove -> verify,
// for each model of the set, in a fresh process.

struct ColdCase {
  const char* model;
  PcsKind backend;
  const char* tag;
};
constexpr ColdCase kColdSet[] = {
    {"mnist", PcsKind::kKzg, "mnist_kzg"},   {"mnist", PcsKind::kIpa, "mnist_ipa"},
    {"dlrm", PcsKind::kKzg, "dlrm_kzg"},     {"twitter", PcsKind::kKzg, "twitter_kzg"},
    {"resnet18", PcsKind::kKzg, "resnet18_kzg"},
};

void RunColdCompile(const Flags& flags, Recorder& rec) {
  // The pass is one request: the whole model set, bytes in -> verified
  // proofs out. Per-model times are summed over the set. Each compiled model
  // is dropped after its checks, as a caller compiling models one after
  // another would, so peak_rss_mb never holds two compiled models at once.
  double setup_total = 0, e2e_total = 0, prove_total = 0, verify_total = 0, predicted = 0;
  size_t proof_bytes = 0, proved = 0;
  bool pass_ok = true;
  const auto pass_start = Clock::now();
  for (size_t i = 0; i < std::size(kColdSet); ++i) {
    const ColdCase& cc = kColdSet[i];
    // The caller holds the model bytes and the input; neither is timed.
    const std::string text = SerializeModel(MakeZooModel(cc.model));
    const auto t0 = Clock::now();
    StatusOr<Model> model = [&] {
      obs::Span span("bench.parse");
      return DeserializeModel(text);
    }();
    if (!rec.Check(model.ok(), std::string(cc.tag) + ": model text did not parse")) {
      rec.Attempt(false);
      pass_ok = false;
      continue;
    }
    if (i == 0) {
      obs::Span span("bench.hwprofile");
      const auto h0 = Clock::now();
      (void)HardwareProfile::Cached();
      rec.Layer("optimizer.hwprofile_s", SecondsSince(h0));
    }
    CompiledModel compiled = TracedCompile(*model, cc.backend, rec);
    const double setup = SecondsSince(t0);
    const Tensor<int64_t> input = QuantizedInput(*model, flags.seed + i);
    const auto p0 = Clock::now();
    StatusOr<ZkmlProof> proof = [&] {
      obs::Span span("bench.prove");
      return ProveCancellable(compiled, input, nullptr);
    }();
    const double prove_s = SecondsSince(p0);
    if (!rec.Check(proof.ok(), std::string(cc.tag) + ": prove failed")) {
      rec.Attempt(false);
      pass_ok = false;
      continue;
    }
    const auto v0 = Clock::now();
    const VerifyResult verdict = [&] {
      obs::Span span("bench.verify");
      return VerifyDetailed(compiled.pk.vk, *compiled.pcs, proof->instance, proof->bytes);
    }();
    const double verify_s = SecondsSince(v0);
    const auto done_at = Clock::now();

    obs::Span check_span("bench.check");
    const std::vector<int64_t> ref = RunQuantized(*model, input).ToVector();
    bool ok = rec.Check(verdict.ok(), std::string(cc.tag) + ": " + verdict.ToString());
    ok &= rec.Check(proof->output_q.ToVector() == ref,
                    std::string(cc.tag) + ": proved output differs from RunQuantized");
    ok &= rec.Check(proof->instance == Statement(input.ToVector(), ref),
                    std::string(cc.tag) + ": statement is not [input | reference output]");
    rec.Attempt(ok);
    pass_ok &= ok;
    rec.Pin(cc.tag, compiled, proof->bytes.size());
    setup_total += setup;
    prove_total += prove_s;
    verify_total += verify_s;
    e2e_total += std::chrono::duration<double>(done_at - t0).count();
    predicted += compiled.predicted_cost.total_seconds;
    proof_bytes += proof->bytes.size();
    ++proved;
    if (i == 0) {
      const size_t out_at = proof->instance.size() - 1;
      CheckTamperRejected(
          proof->instance, out_at,
          [&](const std::vector<Fr>& inst) {
            return VerifyDetailed(compiled.pk.vk, *compiled.pcs, inst, proof->bytes);
          },
          cc.tag, rec);
    }
  }
  rec.Sample("setup_s", setup_total);
  rec.Sample("prove_s", prove_total);
  rec.Sample("verify_s", verify_total);
  rec.Request("pass", pass_start,
              pass_start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(e2e_total)),
              pass_ok);
  rec.Value("cold_e2e_s", e2e_total);
  rec.Value("proof_bytes", static_cast<double>(proof_bytes));
  rec.Value("closed_inferences", static_cast<double>(proved));
  rec.Value("closed_wall_s", e2e_total);
  rec.Layer("optimizer.predicted_prove_s", predicted / std::max<size_t>(1, proved));
}

// ---------------------------------------------------------------------------
// warm-prove: compile resnet18 once (setup, outside the window), then one
// closed-loop client proves distinct inputs and verifies each; at the end one
// VerifyProofsBatched call checks every proof together.

void RunWarmProve(const Flags& flags, Recorder& rec) {
  const std::string text = SerializeModel(MakeZooModel("resnet18"));
  const auto t0 = Clock::now();
  StatusOr<Model> model = [&] {
    obs::Span span("bench.parse");
    return DeserializeModel(text);
  }();
  if (!rec.Check(model.ok(), "resnet18: model text did not parse")) return;
  {
    obs::Span span("bench.hwprofile");
    const auto h0 = Clock::now();
    (void)HardwareProfile::Cached();
    rec.Layer("optimizer.hwprofile_s", SecondsSince(h0));
  }
  const CompiledModel compiled = TracedCompile(*model, PcsKind::kKzg, rec);
  const double setup = SecondsSince(t0);
  rec.Sample("setup_s", setup);
  rec.Layer("optimizer.predicted_prove_s", compiled.predicted_cost.total_seconds);

  struct Done {
    Tensor<int64_t> input;
    ZkmlProof proof;
    bool verified = false;
    Clock::time_point started, finished;
  };
  std::vector<Done> done;
  const int64_t proofs =
      std::max<int64_t>(2, std::llround(flags.seconds * kWarmProofsPerRunSecond));
  const auto window = Clock::now();
  for (int64_t i = 0; i < proofs; ++i) {
    Tensor<int64_t> input = QuantizedInput(*model, flags.seed + static_cast<uint64_t>(i));
    // Traced runs leave every other proof untraced to measure the overhead.
    // The enclosing span keeps the untraced proof's wall time attributed.
    const bool untraced = flags.trace && i % 2 == 1;
    std::optional<obs::Span> untraced_span;
    std::optional<ScopedTaskContext> no_trace;
    if (untraced) {
      untraced_span.emplace("bench.untraced");
      no_trace.emplace(TaskContext{});
    }
    const auto p0 = Clock::now();
    StatusOr<ZkmlProof> proof = [&] {
      obs::Span span("bench.prove");
      return ProveCancellable(compiled, input, nullptr);
    }();
    const double prove_s = SecondsSince(p0);
    if (!rec.Check(proof.ok(), "resnet18: prove failed")) {
      rec.Attempt(false);
      rec.Request("resnet18", p0, Clock::now(), false);
      continue;
    }
    const auto v0 = Clock::now();
    const VerifyResult verdict = [&] {
      obs::Span span("bench.verify");
      return VerifyDetailed(compiled.pk.vk, *compiled.pcs, proof->instance, proof->bytes);
    }();
    const double verify_s = SecondsSince(v0);
    const auto finished = Clock::now();
    const double request_s = SecondsSince(p0);
    const bool verified = rec.Check(verdict.ok(), "resnet18: " + verdict.ToString());
    if (i == 0) rec.Value("cold_e2e_s", setup + request_s);
    if (flags.trace) rec.Sample(untraced ? "untraced_op_s" : "traced_op_s", request_s);
    rec.Sample("prove_s", prove_s);
    rec.Sample("verify_s", verify_s);
    done.push_back({std::move(input), std::move(*proof), verified, p0, finished});
  }
  const double loop_s = SecondsSince(window);
  if (done.empty()) return;
  rec.Value("closed_inferences", static_cast<double>(done.size()));
  rec.Value("closed_wall_s", loop_s);
  rec.Value("proof_bytes", static_cast<double>(done.front().proof.bytes.size()));
  rec.Pin("resnet18_kzg", compiled, done.front().proof.bytes.size());

  {
    obs::Span span("bench.check");
    for (const Done& d : done) {
      const std::vector<int64_t> ref = RunQuantized(*model, d.input).ToVector();
      bool ok = d.verified;
      ok &= rec.Check(d.proof.output_q.ToVector() == ref,
                      "resnet18: proved output differs from RunQuantized");
      ok &= rec.Check(d.proof.instance == Statement(d.input.ToVector(), ref),
                      "resnet18: statement is not [input | reference output]");
      rec.Attempt(ok);
      rec.Request("resnet18", d.started, d.finished, ok);
    }
    const ZkmlProof& p = done.front().proof;
    CheckTamperRejected(
        p.instance, p.instance.size() - 1,
        [&](const std::vector<Fr>& inst) {
          return VerifyDetailed(compiled.pk.vk, *compiled.pcs, inst, p.bytes);
        },
        "resnet18", rec);
  }

  std::vector<CrossProofClaim> claims;
  for (const Done& d : done) {
    claims.push_back({&compiled.pk.vk, compiled.pcs.get(), &d.proof.instance, &d.proof.bytes});
  }
  MeasureBatchVerify(claims, rec);
}

// ---------------------------------------------------------------------------
// serve-mix: an in-process ZkmlServer (2 workers, coalescing at 4) driven by
// ZkmlClient connections with a fixed request mix.

struct MixKind {
  const char* tag;
  const char* model;
  uint32_t shards;
  uint32_t batch;
  int per_deck;      // requests of this kind in each deck; 0 = warm-up only
  bool one_session;  // sent by one sequential session: never two in flight
};
// The mix. The shares are assumed, not measured: there is no traffic data.
// Single mnist inferences are the largest share (2 in 5). Each other kind is
// 1 in 5, so every pipeline (single, sharded, batched, a second model) gets
// enough open-loop requests for its own median, and run.py's
// serve_kind_p50_sum_s moves when any one of them slows down. Requests are
// dealt in decks of 5 that hold each kind its exact share, in an order
// shuffled by the seed. dlrm traffic is one sequential session, so the
// server never has two dlrm jobs queued and never coalesces them. The mnist
// batch-2/3 entries are never sent in the loops; they warm the circuits that
// coalescing (groups of 2..4 single mnist requests) proves with.
constexpr MixKind kMix[] = {
    {"mnist", "mnist", 0, 0, 2, false},        {"mnist_shards2", "mnist", 2, 0, 1, false},
    {"mnist_batch4", "mnist", 0, 4, 1, false}, {"dlrm", "dlrm", 0, 0, 1, true},
    {"mnist_batch2", "mnist", 0, 2, 0, false}, {"mnist_batch3", "mnist", 0, 3, 0, false},
};

struct MixRequest {
  const MixKind* kind = nullptr;
  const Model* model = nullptr;
  std::vector<Tensor<int64_t>> inputs;
  serve::ProveRequest wire;
};

struct MixOutcome {
  const MixRequest* request = nullptr;
  bool ok = false;  // the server answered with a proof
  serve::ProveResponse response;
  std::string error;
  Clock::time_point due, done;  // open loop: scheduled send and reply
  double lag_s = 0;             // open loop: how late the send went out
  double warmup_s = 0;          // warm-up: seconds from its start to this reply
};

class MixSource {
 public:
  MixSource(uint64_t seed, const std::map<std::string, Model>* models,
            const std::map<std::string, std::string>* texts)
      : seed_(seed), models_(models), texts_(texts) {
    for (const MixKind& k : kMix) {
      for (int j = 0; j < k.per_deck; ++j) deck_.push_back(&k);
    }
  }

  // A request of the given kind whose j-th input is
  // SyntheticInput(model, seed + input_base + j). Every value is checked
  // against the lookup-table range (see in_range).
  std::unique_ptr<MixRequest> Make(const MixKind& kind, uint64_t input_base) {
    auto r = std::make_unique<MixRequest>();
    r->kind = &kind;
    r->model = &models_->at(kind.model);
    const size_t n = std::max<uint32_t>(1, kind.batch);
    for (size_t j = 0; j < n; ++j) {
      r->inputs.push_back(QuantizedInput(*r->model, seed_ + input_base + j));
      for (int64_t v : r->inputs.back().ToVector()) {
        r->wire.input.push_back(v);
        in_range_ &= r->model->quant.InTableRange(v);
      }
    }
    r->wire.model_text = texts_->at(kind.model);
    r->wire.shards = kind.shards;
    r->wire.batch = kind.batch;
    return r;
  }
  // The mix's index-th request (deterministic in seed and index): position
  // index % 5 of deck index / 5, each deck shuffled by its own seed.
  std::unique_ptr<MixRequest> Draw(uint64_t index) {
    std::vector<const MixKind*> deck = deck_;
    std::mt19937_64 rng(seed_ * 0x9E3779B97F4A7C15ULL + index / deck.size());
    std::shuffle(deck.begin(), deck.end(), rng);
    return Make(*deck[index % deck.size()], 1000 + index * 4);
  }
  bool in_range() const { return in_range_; }

 private:
  uint64_t seed_;
  const std::map<std::string, Model>* models_;
  const std::map<std::string, std::string>* texts_;
  std::vector<const MixKind*> deck_;
  bool in_range_ = true;
};

// Verifier-side circuits, compiled with the server's options; they are the
// same circuits because layout choice is deterministic within a process.
class VerifierCircuits {
 public:
  explicit VerifierCircuits(const std::map<std::string, Model>& models) : models_(models) {}

  const CompiledModel& Single(const std::string& model) {
    auto& slot = single_[model];
    if (!slot) {
      obs::Span span("bench.verifier_compile");
      slot = std::make_unique<CompiledModel>(
          CompileModel(models_.at(model), CompileOptions(PcsKind::kKzg)));
    }
    return *slot;
  }
  const CompiledModel* Batched(const std::string& model, size_t batch) {
    auto& slot = batched_[model + "/" + std::to_string(batch)];
    if (!slot) {
      obs::Span span("bench.verifier_compile");
      StatusOr<CompiledBatchedModel> cb =
          CompileBatched(models_.at(model), batch, CompileOptions(PcsKind::kKzg));
      if (!cb.ok()) return nullptr;
      slot = std::make_unique<CompiledModel>(std::move(cb->compiled));
    }
    return slot.get();
  }
  const CompiledShardedModel* Sharded(const std::string& model, size_t shards) {
    auto& slot = sharded_[model + "/" + std::to_string(shards)];
    if (!slot) {
      obs::Span span("bench.verifier_compile");
      StatusOr<CompiledShardedModel> cs =
          CompileSharded(models_.at(model), shards, CompileOptions(PcsKind::kKzg));
      if (!cs.ok()) return nullptr;
      slot = std::make_unique<CompiledShardedModel>(std::move(*cs));
    }
    return slot.get();
  }

 private:
  const std::map<std::string, Model>& models_;
  std::map<std::string, std::unique_ptr<CompiledModel>> single_;
  std::map<std::string, std::unique_ptr<CompiledModel>> batched_;
  std::map<std::string, std::unique_ptr<CompiledShardedModel>> sharded_;
};

// Verifies one served response against an independent reference: the proof
// (or composite artifact) must verify, and the statement must be the
// request's inputs followed by RunQuantized's outputs. Returns verify seconds,
// or a negative value when a check failed.
double VerifyServed(const MixOutcome& o, VerifierCircuits& circuits, Recorder& rec) {
  const MixRequest& req = *o.request;
  const serve::ProveResponse& resp = o.response;
  const std::string tag = req.kind->tag;
  std::vector<std::vector<Fr>> statements;
  std::vector<int64_t> outputs;
  for (const Tensor<int64_t>& in : req.inputs) {
    const std::vector<int64_t> ref = RunQuantized(*req.model, in).ToVector();
    statements.push_back(Statement(in.ToVector(), ref));
    outputs.insert(outputs.end(), ref.begin(), ref.end());
  }
  bool ok = rec.Check(resp.output == outputs, tag + ": served output differs from RunQuantized");

  VerifyResult verdict = VerifyResult::Rejected(VerifyStage::kInstance, InternalError("no circuit"));
  if (resp.shards > 1) {
    const CompiledShardedModel* c = circuits.Sharded(req.kind->model, resp.shards);
    const auto t = Clock::now();
    if (c != nullptr) verdict = VerifySharded(*c, resp.instance, resp.proof);
    ok &= rec.Check(resp.instance == statements.front(), tag + ": sharded statement mismatch");
    const double s = SecondsSince(t);
    ok &= rec.Check(verdict.ok(), tag + ": " + verdict.ToString());
    return ok ? s : -1;
  }
  if (resp.batch > 1) {
    const CompiledModel* c = circuits.Batched(req.kind->model, resp.batch);
    const auto t = Clock::now();
    if (c != nullptr) verdict = VerifyBatchedDetailed(*c, resp.instance, resp.proof);
    const double s = SecondsSince(t);
    ok &= rec.Check(verdict.ok(), tag + ": " + verdict.ToString());
    if (req.inputs.size() > 1) {
      std::vector<Fr> all;
      for (const auto& st : statements) all.insert(all.end(), st.begin(), st.end());
      ok &= rec.Check(resp.instance == all, tag + ": batched statement mismatch");
    } else {
      // Coalesced: the shared statement must hold this request's segment.
      const size_t seg = resp.instance.size() / resp.batch;
      bool found = false;
      for (size_t j = 0; j + seg <= resp.instance.size() && seg > 0; j += seg) {
        found |= std::equal(statements.front().begin(), statements.front().end(),
                            resp.instance.begin() + static_cast<std::ptrdiff_t>(j)) &&
                 statements.front().size() == seg;
      }
      ok &= rec.Check(found, tag + ": coalesced statement lacks this request's segment");
    }
    return ok ? s : -1;
  }
  const CompiledModel& c = circuits.Single(req.kind->model);
  const auto t = Clock::now();
  verdict = VerifyDetailed(c.pk.vk, *c.pcs, resp.instance, resp.proof);
  const double s = SecondsSince(t);
  ok &= rec.Check(verdict.ok(), tag + ": " + verdict.ToString());
  ok &= rec.Check(resp.instance == statements.front(), tag + ": statement mismatch");
  return ok ? s : -1;
}

Json RunServeMix(const Flags& flags, obs::Tracer* tracer, Recorder& rec) {
  std::map<std::string, Model> models;
  std::map<std::string, std::string> texts;
  for (const char* name : {"mnist", "dlrm"}) {
    models[name] = MakeZooModel(name);
    texts[name] = SerializeModel(models[name]);
  }
  MixSource source(flags.seed, &models, &texts);

  serve::ServeOptions so;
  so.num_workers = 2;
  so.coalesce_max = 4;
  if (flags.trace) {
    // Every other single-circuit job runs under a tracer; coalesced, sharded
    // and batched jobs are not sampled by the server.
    so.trace_sample_every = 2;
    so.trace_ring_capacity = 1 << 16;
  }
  serve::ZkmlServer server(so);
  {
    obs::Span span("bench.server_start");
    if (!rec.Check(server.Start().ok(), "serve-mix: server did not start")) return Json::Array();
  }
  const uint16_t port = server.port();

  std::mutex mu;
  std::mutex session_mu;  // held while a one_session request is in flight
  std::vector<std::unique_ptr<MixRequest>> requests;
  // Sends one request and waits for the reply. `due` (open loop) is when the
  // request was scheduled: the lag is how late it actually went out.
  auto send = [&](serve::ZkmlClient& client, const MixRequest& req, uint64_t id, MixOutcome& out,
                  std::optional<Clock::time_point> due) {
    std::unique_lock<std::mutex> session(session_mu, std::defer_lock);
    if (req.kind->one_session) session.lock();
    if (due) out.lag_s = std::chrono::duration<double>(Clock::now() - *due).count();
    obs::Span span(std::string("bench.request.") + req.kind->tag);
    StatusOr<serve::ZkmlClient::ProveOutcome> r = client.Prove(req.wire, id, 120000);
    out.request = &req;
    if (!r.ok()) {
      out.error = r.status().ToString();
    } else if (!r->ok) {
      out.error = r->error.ToString();
    } else {
      out.ok = true;
      out.response = std::move(r->response);
    }
  };
  auto connect = [&]() -> std::optional<serve::ZkmlClient> {
    StatusOr<serve::ZkmlClient> c = serve::ZkmlClient::Connect("127.0.0.1", port, 5000);
    if (!c.ok()) return std::nullopt;
    return std::move(*c);
  };

  // Warm-up (setup_s): each distinct cache key once, in sequence.
  std::vector<MixOutcome> warm;
  {
    obs::Span phase("bench.warmup");
    std::optional<serve::ZkmlClient> client = connect();
    rec.Check(client.has_value(), "serve-mix: cannot connect");
    const auto t0 = Clock::now();
    {
      obs::Span span("bench.hwprofile");
      const auto h0 = Clock::now();
      (void)HardwareProfile::Cached();
      rec.Layer("optimizer.hwprofile_s", SecondsSince(h0));
    }
    uint64_t id = 1;
    for (const MixKind& kind : kMix) {
      requests.push_back(source.Make(kind, 500000 + id * 4));
      MixOutcome o;
      if (client) send(*client, *requests.back(), id, o, std::nullopt);
      o.request = requests.back().get();
      o.warmup_s = SecondsSince(t0);
      warm.push_back(std::move(o));
      ++id;
    }
    rec.Sample("setup_s", SecondsSince(t0));
  }

  // Open loop: a fixed schedule at kOpenRatePerS, sent by up to kServeClients
  // connections; latency runs from each request's due time.
  const size_t n_open =
      std::max<size_t>(1, static_cast<size_t>(flags.seconds * kOpenRequestsPerRunSecond + 0.5));
  std::vector<std::unique_ptr<MixRequest>> open_reqs;
  for (size_t i = 0; i < n_open; ++i) open_reqs.push_back(source.Draw(i));
  std::vector<MixOutcome> open(n_open);
  {
    obs::Span phase("bench.open_loop");
    std::atomic<size_t> next{0};
    const auto start = Clock::now() + std::chrono::milliseconds(50);
    std::vector<std::thread> threads;
    for (int t = 0; t < kServeClients; ++t) {
      threads.emplace_back([&] {
        obs::TracerScope scope(tracer);
        std::optional<serve::ZkmlClient> client = connect();
        for (size_t i = next++; i < n_open; i = next++) {
          const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(i / kOpenRatePerS));
          std::this_thread::sleep_until(due);
          MixOutcome& o = open[i];
          if (client) send(*client, *open_reqs[i], 10000 + i, o, due);
          o.request = open_reqs[i].get();
          o.due = due;
          o.done = Clock::now();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // Closed loop: kServeClients clients, each sending its next request as soon
  // as the previous one returns.
  const double closed_s = flags.seconds * kClosedShare;
  std::vector<std::unique_ptr<MixRequest>> closed_reqs;
  std::vector<MixOutcome> closed;
  double closed_wall = 0;
  {
    obs::Span phase("bench.closed_loop");
    std::atomic<uint64_t> next{0};
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < kServeClients; ++t) {
      threads.emplace_back([&] {
        obs::TracerScope scope(tracer);
        std::optional<serve::ZkmlClient> client = connect();
        for (;;) {
          if (SecondsSince(start) >= closed_s) break;
          const uint64_t i = next++;
          std::unique_ptr<MixRequest> req;
          {
            std::lock_guard<std::mutex> lock(mu);
            req = source.Draw(100000 + i);
          }
          MixOutcome o;
          if (client) send(*client, *req, 200000 + i, o, std::nullopt);
          o.request = req.get();
          std::lock_guard<std::mutex> lock(mu);
          closed_reqs.push_back(std::move(req));
          closed.push_back(std::move(o));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    closed_wall = SecondsSince(start);
  }
  const serve::ServerStats stats = server.stats();
  {
    obs::Span span("bench.server_stop");
    server.Stop();
  }
  // The workload ends here; the checks below are the benchmark's own work.
  rec.Value("peak_rss_mb", static_cast<double>(obs::ReadRssHighWaterKb()) / 1024.0);

  rec.Check(source.in_range(), "serve-mix: a drawn input fell outside the lookup-table range");
  size_t closed_inferences = 0;
  for (const MixOutcome& o : closed) {
    if (o.ok) closed_inferences += o.request->inputs.size();
  }
  rec.Value("closed_inferences", static_cast<double>(closed_inferences));
  rec.Value("closed_wall_s", closed_wall);
  rec.Layer("serve.cache_hits", static_cast<double>(stats.cache_hits));
  rec.Layer("serve.cache_misses", static_cast<double>(stats.cache_misses));
  rec.Layer("serve.jobs_shed", static_cast<double>(stats.jobs_shed_overload));
  rec.Layer("serve.jobs_offered",
            static_cast<double>(stats.jobs_accepted + stats.jobs_shed_overload));
  double max_lag = 0;
  for (const MixOutcome& o : open) max_lag = std::max(max_lag, o.lag_s);
  rec.Layer("serve.generator_lag_max_s", max_lag);

  // Verification of every response (untimed).
  obs::TracerScope scope(tracer);
  obs::Span check_span("bench.check");
  VerifierCircuits circuits(models);
  double warm_verify = 0, predicted = 0;
  size_t proof_bytes = 0, single_circuits = 0;
  const MixOutcome* first_single = nullptr;  // for the tampered-statement check
  auto check = [&](const MixOutcome& o, bool timed_request) {
    bool ok = rec.Check(o.ok, std::string(o.request->kind->tag) + ": request failed: " + o.error);
    double verify_s = -1;
    if (ok) {
      verify_s = VerifyServed(o, circuits, rec);
      ok = verify_s >= 0;
    }
    rec.Attempt(ok);
    if (ok) rec.Sample("verify_s", verify_s);
    if (ok && first_single == nullptr && o.response.shards <= 1 && o.response.batch <= 1) {
      first_single = &o;
    }
    if (timed_request) {
      rec.Request(o.request->kind->tag, o.due, o.done, ok);
      if (ok) rec.Sample("prove_s", static_cast<double>(o.response.prove_micros) / 1e6);
    }
    return ok ? verify_s : 0.0;
  };
  for (const MixOutcome& o : warm) {
    warm_verify += check(o, false);
    proof_bytes += o.response.proof.size();
    if (!o.ok) continue;
    const std::string tag = o.request->kind->tag;
    const std::string model = o.request->kind->model;
    const size_t bytes = o.response.proof.size();
    if (o.response.shards > 1) {
      const CompiledShardedModel* c = circuits.Sharded(model, o.response.shards);
      for (size_t i = 0; c != nullptr && i < c->shards.size(); ++i) {
        rec.Pin(tag + ".shard" + std::to_string(i), *c->shards[i], bytes);
      }
    } else if (o.response.batch > 1) {
      if (const CompiledModel* c = circuits.Batched(model, o.response.batch)) {
        rec.Pin(tag, *c, bytes);
      }
    } else {
      const CompiledModel& c = circuits.Single(model);
      rec.Pin(model + "_kzg", c, bytes);
      predicted += c.predicted_cost.total_seconds;
      ++single_circuits;
    }
  }
  rec.Layer("optimizer.predicted_prove_s", predicted / std::max<size_t>(1, single_circuits));
  for (const MixOutcome& o : open) check(o, true);
  for (const MixOutcome& o : closed) check(o, false);
  rec.Value("cold_e2e_s", warm.empty() ? 0.0 : warm.back().warmup_s + warm_verify);
  rec.Value("proof_bytes", static_cast<double>(proof_bytes));

  if (first_single != nullptr) {
    const MixOutcome& o = *first_single;
    const CompiledModel& c = circuits.Single(o.request->kind->model);
    CheckTamperRejected(
        o.response.instance, o.response.instance.size() - 1,
        [&](const std::vector<Fr>& inst) {
          return VerifyDetailed(c.pk.vk, *c.pcs, inst, o.response.proof);
        },
        o.request->kind->tag, rec);
  }

  Json traces = Json::Array();
  std::set<uint64_t> traced_ids;
  for (const Json& t : server.trace_ring().Snapshot()) {
    if (const Json* id = t.Find("request_id")) traced_ids.insert(id->AsUint());
    traces.Append(t);
  }
  if (flags.trace) {
    // Server-side time of single mnist jobs, traced against untraced.
    for (size_t i = 0; i < open.size(); ++i) {
      const MixOutcome& o = open[i];
      if (!o.ok || o.response.batch > 1 || o.response.shards > 1 ||
          std::string(o.request->kind->tag) != "mnist") {
        continue;
      }
      rec.Sample(traced_ids.count(10000 + i) ? "traced_op_s" : "untraced_op_s",
                 static_cast<double>(o.response.prove_micros) / 1e6);
    }
  }
  return traces;
}

int Usage() {
  std::fprintf(stderr,
               "usage: zkbench --workload cold-compile|warm-prove|serve-mix --seed N "
               "[--seconds S] [--trace]\n");
  return 2;
}

}  // namespace
}  // namespace zkml

int main(int argc, char** argv) {
  using namespace zkml;
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--trace") {
      flags.trace = true;
    } else if (a == "--workload" && has_value) {
      flags.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      flags.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      flags.seconds = std::strtod(argv[++i], nullptr);
    } else {
      return Usage();
    }
  }
  if (flags.workload != "cold-compile" && flags.workload != "warm-prove" &&
      flags.workload != "serve-mix") {
    return Usage();
  }

  Recorder rec;
  std::optional<obs::Tracer> tracer;
  if (flags.trace) tracer.emplace();
  Json job_traces = Json::Array();
  const CounterSnapshot before = CounterSnapshot::Take();
  const double wall_start_us = tracer ? static_cast<double>(tracer->NowNs()) / 1e3 : 0.0;
  const auto t0 = Clock::now();
  {
    obs::TracerScope scope(tracer ? &*tracer : nullptr);
    if (flags.workload == "cold-compile") {
      RunColdCompile(flags, rec);
    } else if (flags.workload == "warm-prove") {
      RunWarmProve(flags, rec);
    } else {
      job_traces = RunServeMix(flags, tracer ? &*tracer : nullptr, rec);
    }
  }
  const double wall_s = SecondsSince(t0);
  RecordLayerDeltas(before, CounterSnapshot::Take(), rec);
  if (flags.workload != "serve-mix") {
    rec.Value("peak_rss_mb", static_cast<double>(obs::ReadRssHighWaterKb()) / 1024.0);
  }

  Json doc = rec.ToJson();
  doc.Set("workload", flags.workload);
  doc.Set("seed", flags.seed);
  doc.Set("host", HostStamp(flags));
  doc.Set("wall_s", wall_s);
  if (tracer) {
    Json spans = Json::Array();
    AppendSpans(tracer->ToReportJson(), 0, spans);
    uint64_t index = 1;
    for (const Json& t : job_traces.items()) AppendSpans(t, index++, spans);
    doc.Set("wall_start_us", wall_start_us);
    doc.Set("spans", std::move(spans));
  }
  std::printf("%s\n", doc.Dump().c_str());
  return 0;
}
