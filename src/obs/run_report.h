// Machine-readable end-to-end run telemetry (schema "zkml.run_report/v1"):
// one JSON document per compile→prove→verify run with the chosen layout, the
// cost model's prediction, wall-clock per phase, the prover's per-stage
// breakdown with kernel counters, and the allocation high-water mark. Emitted
// by `zkml_cli --report=<file>` and the bench harness so BENCH_*.json
// trajectories can attribute regressions to a stage instead of a total.
#ifndef SRC_OBS_RUN_REPORT_H_
#define SRC_OBS_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/kernel_stats.h"
#include "src/base/status.h"
#include "src/obs/json.h"

namespace zkml {
namespace obs {

struct RunReportStage {
  std::string name;
  double seconds = 0.0;
  KernelCounters kernels;
};

struct RunReport {
  std::string model;
  std::string backend;  // "kzg" | "ipa"

  // Chosen physical layout.
  uint32_t k = 0;
  uint32_t num_columns = 0;
  uint64_t rows_used = 0;
  uint64_t num_lookups = 0;

  // Cost-model prediction vs. reality; estimator error is the ratio.
  double predicted_prove_seconds = 0.0;

  double compile_seconds = 0.0;  // optimizer + PCS setup + keygen
  double setup_seconds = 0.0;    // PCS backend acquisition; optional in JSON
  double keygen_seconds = 0.0;
  double prove_seconds = 0.0;
  double verify_seconds = 0.0;

  uint64_t proof_bytes = 0;
  std::vector<RunReportStage> stages;  // prover rounds, in order
  KernelCounters kernels;              // kernel work attributed to the prove
  uint64_t rss_hwm_kb = 0;

  Json ToJson() const;
  static StatusOr<RunReport> FromJson(const Json& j);

  Status WriteFile(const std::string& path) const;
};

}  // namespace obs
}  // namespace zkml

#endif  // SRC_OBS_RUN_REPORT_H_
