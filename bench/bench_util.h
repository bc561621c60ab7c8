// Shared helpers for the table-reproduction benchmark binaries. Each binary
// regenerates one table of the paper's evaluation (see DESIGN.md §3) and
// prints it in the paper's format; absolute numbers differ from the paper
// (scaled models, laptop hardware) but relative structure should match.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/base/cpu_features.h"
#include "src/base/timer.h"
#include "src/layers/quant_executor.h"
#include "src/model/zoo.h"
#include "src/zkml/zkml.h"

namespace zkml {

// When ZKML_TELEMETRY_DIR is set, every MeasureEndToEnd call drops a
// machine-readable run report (schema zkml.run_report/v1) named
// <dir>/run_<model>_<backend>.json next to the printed table.
inline void MaybeWriteRunReport(const CompiledModel& compiled, const ZkmlProof& proof,
                                double verify_seconds) {
  const char* dir = std::getenv("ZKML_TELEMETRY_DIR");
  if (dir == nullptr || dir[0] == '\0') {
    return;
  }
  const obs::RunReport report = BuildRunReport(compiled, proof, verify_seconds);
  std::string name = report.model;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '-';
    }
  }
  const std::string path = std::string(dir) + "/run_" + name + "_" + report.backend + ".json";
  if (Status s = report.WriteFile(path); !s.ok()) {
    std::fprintf(stderr, "!! cannot write run report %s: %s\n", path.c_str(),
                 s.ToString().c_str());
  }
}

struct E2eMeasurement {
  std::string model;
  double prove_seconds = 0;
  double verify_seconds = 0;
  size_t proof_bytes = 0;
  int columns = 0;
  int k = 0;
};

// Compile -> prove -> verify one model and collect the Table 6/7 row.
inline E2eMeasurement MeasureEndToEnd(const Model& model, const ZkmlOptions& options,
                                      uint64_t input_seed = 7) {
  E2eMeasurement m;
  m.model = model.name;
  CompiledModel compiled = CompileModel(model, options);
  m.columns = compiled.layout.num_columns;
  m.k = compiled.layout.k;
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, input_seed), model.quant);
  ZkmlProof proof = Prove(compiled, input);
  m.prove_seconds = proof.prove_seconds;
  m.proof_bytes = proof.bytes.size();
  std::printf("%s prover stages:\n%s", model.name.c_str(),
              proof.prover_metrics.Summary().c_str());
  Timer verify_timer;
  const bool ok = Verify(compiled, proof);
  m.verify_seconds = verify_timer.ElapsedSeconds();
  if (!ok) {
    std::fprintf(stderr, "!! verification failed for %s\n", model.name.c_str());
  }
  MaybeWriteRunReport(compiled, proof, m.verify_seconds);
  return m;
}

// Measure proving only, at an explicit layout (ablation benches).
inline double MeasureProvingAtLayout(const Model& model, const PhysicalLayout& layout,
                                     PcsKind backend, uint64_t input_seed = 7) {
  ZkmlOptions options;
  options.backend = backend;
  CompiledModel compiled = CompileModelWithLayout(model, layout, options);
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, input_seed), model.quant);
  ZkmlProof proof = Prove(compiled, input);
  if (!Verify(compiled, proof)) {
    std::fprintf(stderr, "!! verification failed for %s\n", model.name.c_str());
  }
  return proof.prove_seconds;
}

// Default optimizer bounds shared by the benches: wide enough to matter,
// small enough to finish on a laptop.
inline ZkmlOptions BenchOptions(PcsKind backend) {
  ZkmlOptions options;
  options.backend = backend;
  options.optimizer.min_columns = 8;
  options.optimizer.max_columns = 32;
  options.optimizer.max_k = 15;
  return options;
}

// The host a measurement was taken on, as a JSON object: perf numbers from
// different CPUs are not comparable. num_cpus is the machine
// (hardware_concurrency); affinity_cpus is what the process may schedule on
// (and what the global pool sizes from). Earlier dumps wrote the affinity
// count as num_cpus, which on a CPU-restricted runner stamped "num_cpus": 1
// for a many-core machine.
inline std::string HostStampJson(size_t threads) {
  const CpuFeatures& cpu = CpuFeatures::Get();
  std::string model = cpu.cpu_model;
  for (char& c : model) {
    if (c == '"' || c == '\\') {
      c = ' ';  // CPUID brand strings never contain these; stay safe anyway
    }
  }
  const unsigned hc = std::thread::hardware_concurrency();
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"cpu_model\": \"%s\", \"num_cpus\": %u, \"affinity_cpus\": %zu, "
                "\"simd\": \"%s\", \"git_sha\": \"%s\", \"threads\": %zu}",
                model.c_str(), hc == 0 ? 1u : hc, cpu.num_cpus, cpu.Summary().c_str(),
                ZKML_GIT_SHA, threads);
  return buf;
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

inline std::string HumanTime(double seconds) {
  char buf[32];
  if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  }
  return buf;
}

}  // namespace zkml

#endif  // BENCH_BENCH_UTIL_H_
