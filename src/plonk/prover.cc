#include "src/plonk/prover.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/base/buffer_pool.h"
#include "src/base/check.h"
#include "src/base/thread_pool.h"
#include "src/base/timer.h"
#include "src/ff/fr_key.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/plonk/proof_io.h"
#include "src/plonk/proof_shape.h"
#include "src/plonk/quotient.h"
#include "src/poly/polynomial.h"
#include "src/transcript/transcript.h"

namespace zkml {
namespace {

// The value filling the most entries of v (first-seen on ties). Counts runs,
// not entries, so a column dominated by one value costs few hash probes.
Fr MostFrequent(const std::vector<Fr>& v) {
  std::unordered_map<FrKey, size_t, FrKeyHash> count;
  Fr best = Fr::Zero();
  size_t best_count = 0;
  for (size_t r = 0; r < v.size();) {
    size_t end = r + 1;
    while (end < v.size() && v[end] == v[r]) {
      ++end;
    }
    size_t& c = count[FrKey(v[r])];
    c += end - r;
    if (c > best_count) {
      best = v[r];
      best_count = c;
    }
    r = end;
  }
  return best;
}

std::string ColumnName(const Column& c) {
  const char* type = c.type == ColumnType::kAdvice  ? "advice"
                     : c.type == ColumnType::kFixed ? "fixed"
                                                    : "instance";
  return std::string(type) + " " + std::to_string(c.index);
}

// Names the first copy constraint the witness breaks. Runs only after the
// permutation grand product already failed, so it can afford to invert the
// sigma encoding: sigma_i(r) = delta^j * omega^s points cell (i, r) at (j, s).
Status CopyMismatchError(const ProvingKey& pk, const Assignment& assignment,
                         const std::vector<Fr>& delta_pow, size_t chunk_size) {
  const std::vector<Column>& cols = pk.vk.perm_columns;
  const EvaluationDomain& dom = *pk.domain;
  const size_t n = dom.size();
  std::unordered_map<FrKey, std::pair<size_t, size_t>, FrKeyHash> cell_of;
  for (size_t i = 0; i < cols.size(); ++i) {
    for (size_t r = 0; r < n; ++r) {
      cell_of.emplace(FrKey(delta_pow[i] * dom.element(r)), std::make_pair(i, r));
    }
  }
  for (size_t i = 0; i < cols.size(); ++i) {
    for (size_t r = 0; r < n; ++r) {
      const auto it = cell_of.find(FrKey(pk.sigma_values[i][r]));
      if (it == cell_of.end()) {
        continue;
      }
      const auto [j, s] = it->second;
      if (assignment.Get(cols[i], r) != assignment.Get(cols[j], s)) {
        return UnsatisfiedError("copy constraints inconsistent with witness: permutation chunk " +
                                std::to_string(i / chunk_size) + ": " + ColumnName(cols[i]) +
                                " row " + std::to_string(r) + " != " + ColumnName(cols[j]) +
                                " row " + std::to_string(s));
      }
    }
  }
  return UnsatisfiedError("copy constraints inconsistent with witness");
}

std::string HumanCount(uint64_t v) {
  char buf[32];
  if (v >= 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(v) * 1e-6);
  } else if (v >= 10'000) {
    std::snprintf(buf, sizeof(buf), "%.1fk", static_cast<double>(v) * 1e-3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  }
  return buf;
}

// One entry per prover round, recorded two ways at once: a ProverStageMetrics
// entry (wall time + activity-scoped kernel delta) and an obs::Span, so the
// round shows up as a nested stage in --trace output with the same counters.
// Begin(name) closes the previous round and opens the next; the destructor
// closes the last one. Begin doubles as the prover's cooperative-cancellation
// checkpoint: with a CancelToken installed it refuses to open the next round
// once the token fires, so a cancelled proof stops within one round.
class StageRecorder {
 public:
  StageRecorder(ProverMetrics* metrics, const CancelToken* cancel)
      : metrics_(metrics), cancel_(cancel) {
    if (metrics_ != nullptr) {
      metrics_->stages.clear();
      metrics_->total_seconds = 0.0;
    }
  }

  ~StageRecorder() { Close(); }

  Status Begin(const char* name) {
    Close();
    ZKML_RETURN_IF_ERROR(CheckCancel(cancel_, name));
    name_ = name;
    last_ = kernelstats::CaptureScoped();
    timer_.Reset();
    span_.emplace(name);
    return Status::Ok();
  }

  void Close() {
    if (name_ == nullptr) {
      return;
    }
    span_.reset();  // ends the stage span before sampling the counters
    const KernelCounters now = kernelstats::CaptureScoped();
    if (metrics_ != nullptr) {
      ProverStageMetrics stage;
      stage.name = name_;
      stage.seconds = timer_.ElapsedSeconds();
      stage.kernels = now - last_;
      metrics_->total_seconds += stage.seconds;
      metrics_->stages.push_back(std::move(stage));
    }
    name_ = nullptr;
  }

 private:
  ProverMetrics* metrics_;
  const CancelToken* cancel_;
  const char* name_ = nullptr;
  Timer timer_;
  KernelCounters last_;
  std::optional<obs::Span> span_;
};

}  // namespace

std::string ProverMetrics::Summary() const {
  std::string out;
  char line[160];
  for (const ProverStageMetrics& s : stages) {
    std::snprintf(line, sizeof(line), "  %-20s %8.3fs  fft %s (%s pts)  msm %s (%s pts)\n",
                  s.name.c_str(), s.seconds, HumanCount(s.kernels.fft_calls).c_str(),
                  HumanCount(s.kernels.fft_points).c_str(), HumanCount(s.kernels.msm_calls).c_str(),
                  HumanCount(s.kernels.msm_points).c_str());
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-20s %8.3fs\n", "total", total_seconds);
  out += line;
  return out;
}

std::vector<uint8_t> CreateProof(const ProvingKey& pk, const Pcs& pcs,
                                 const Assignment& assignment, ProverMetrics* metrics) {
  StatusOr<std::vector<uint8_t>> proof =
      CreateProofCancellable(pk, pcs, assignment, /*cancel=*/nullptr, metrics);
  // Without a token the core fails only on a witness that does not satisfy
  // the circuit, which callers of this wrapper treat as a bug.
  ZKML_CHECK_MSG(proof.ok(), proof.status().ToString().c_str());
  return std::move(proof).value();
}

StatusOr<std::vector<uint8_t>> CreateProofCancellable(const ProvingKey& pk, const Pcs& pcs,
                                                      const Assignment& assignment,
                                                      const CancelToken* cancel,
                                                      ProverMetrics* metrics) {
  // Per-activity kernel attribution: when no sink is installed (no tracer, no
  // enclosing activity), install a local one so per-stage deltas stay correct
  // even with concurrent provers in one process.
  KernelSink local_sink;
  std::optional<kernelstats::ScopedSink> sink_scope;
  if (kernelstats::CurrentSink() == nullptr) {
    sink_scope.emplace(&local_sink);
  }
  obs::Span prove_span("prove");
  const uint64_t rss_start_kb = obs::ReadRssHighWaterKb();
  StageRecorder stages(metrics, cancel);
  ZKML_RETURN_IF_ERROR(stages.Begin("advice-commit"));
  const ConstraintSystem& cs = pk.vk.cs;
  const EvaluationDomain& dom = *pk.domain;
  const size_t n = dom.size();
  ZKML_CHECK(assignment.num_rows() == n);
  const int ext_k = cs.QuotientExtensionK();
  const size_t ext_factor = static_cast<size_t>(1) << ext_k;
  const size_t ext_n = n << ext_k;
  const size_t num_chunks = cs.NumPermutationChunks();
  const int chunk_size = cs.PermutationChunkSize();
  const std::vector<Column>& perm_cols = pk.vk.perm_columns;
  const ProofShape shape(pk.vk);
  const std::vector<Fr>& delta_pow = shape.delta_pow();

  std::vector<uint8_t> proof;
  Transcript transcript("zkml-plonk");
  transcript.AppendFr("k", Fr::FromU64(static_cast<uint64_t>(pk.vk.k)));
  for (const auto& col : assignment.instance()) {
    for (const Fr& v : col) {
      transcript.AppendFr("instance", v);
    }
  }

  // Row access with wraparound rotation.
  auto grid_at = [&](const ColumnQuery& q, size_t row) -> Fr {
    return assignment.Get(q.column, RotateRow(row, q.rotation, n));
  };

  // --- Round 1: commit advice straight from evaluation form. ---
  // CommitLagrange(values) == Commit(IfftToCoeffs(values)) bit-for-bit (see
  // pcs.h), so interpolation is deferred to the quotient round — where the
  // coefficients are needed anyway — and the commit rounds run zero scalar
  // FFTs.
  const size_t num_advice = cs.num_advice_columns();
  std::vector<PcsCommitment> advice_comms(num_advice);
  {
    TaskGroup group;
    for (size_t i = 0; i < num_advice; ++i) {
      group.Submit([&, i] { advice_comms[i] = pcs.CommitLagrange(assignment.advice()[i]); });
    }
  }
  shape.Write(ProofShape::kAdvice, advice_comms, &transcript, &proof);
  ZKML_RETURN_IF_ERROR(stages.Begin("lookup-mult"));

  const Fr theta = transcript.ChallengeFr("theta");

  // --- Round 2: lookup multiplicities. ---
  const size_t num_lookups = cs.lookups().size();
  std::vector<std::vector<Fr>> lk_f(num_lookups), lk_t(num_lookups), lk_m(num_lookups);
  std::vector<PcsCommitment> m_comms(num_lookups);
  std::vector<Status> lookup_status(num_lookups);
  {
    TaskGroup group;
    for (size_t l = 0; l < num_lookups; ++l) {
      group.Submit([&, l] {
        const LookupArgument& lk = cs.lookups()[l];
        std::vector<Fr>& f = lk_f[l];
        std::vector<Fr>& t = lk_t[l];
        f.assign(n, Fr::Zero());
        t.assign(n, Fr::Zero());
        Fr theta_j = Fr::One();
        for (size_t j = 0; j < lk.inputs.size(); ++j) {
          std::vector<Fr> in = lk.inputs[j].EvaluateVector(
              n, [&](const ColumnQuery& q, size_t row) { return grid_at(q, row); });
          const std::vector<Fr>& tab = assignment.fixed()[lk.table[j].index];
          for (size_t r = 0; r < n; ++r) {
            f[r] += in[r] * theta_j;
            t[r] += tab[r] * theta_j;
          }
          theta_j *= theta;
        }
        // Multiplicities: first-occurrence row per table value.
        std::unordered_map<FrKey, size_t, FrKeyHash> first_row;
        first_row.reserve(n * 2);
        for (size_t r = 0; r < n; ++r) {
          first_row.emplace(FrKey(t[r]), r);
        }
        lk_m[l].assign(n, Fr::Zero());
        for (size_t r = 0; r < n; ++r) {
          auto it = first_row.find(FrKey(f[r]));
          if (it == first_row.end()) {
            lookup_status[l] = UnsatisfiedError("lookup '" + lk.name + "' input missing: row " +
                                                std::to_string(r) + " is not in the table");
            return;
          }
          lk_m[l][it->second] += Fr::One();
        }
        m_comms[l] = pcs.CommitLagrange(lk_m[l]);
      });
    }
  }
  for (const Status& st : lookup_status) {
    ZKML_RETURN_IF_ERROR(st);
  }
  shape.Write(ProofShape::kLookupM, m_comms, &transcript, &proof);
  ZKML_RETURN_IF_ERROR(stages.Begin("lookup-perm-commit"));

  const Fr beta = transcript.ChallengeFr("beta");
  const Fr gamma = transcript.ChallengeFr("gamma");

  // --- Round 3: lookup helpers h, running sums S, permutation products z. ---
  // Once beta and gamma are drawn every round-3 column is independent: one
  // fan-out builds them all, a second commits them all.
  //
  // S is committed by linearity. With c the most frequent value of h and
  // I = (0, 1, ..., n-1), S = c*I + S' where S' steps only on rows with
  // h != c, so S' takes few distinct values and Msm commits it grouped (as it
  // does h). Both PCS commitments are linear, so c*Commit(I) + Commit(S') is
  // the same point as Commit(S); Commit(I) is paid once per proof.
  std::vector<std::vector<Fr>> lk_h(num_lookups), lk_s(num_lookups);
  std::vector<Fr> h_mode(num_lookups);
  std::vector<std::vector<Fr>> z_values(num_chunks);
  std::vector<Fr> chunk_product(num_chunks);
  {
    TaskGroup group;
    for (size_t l = 0; l < num_lookups; ++l) {
      group.Submit([&, l] {
        // 1/(beta + f) and 1/(beta + t) overwrite f and t, which are then
        // released: round 3 keeps no more columns live than it commits.
        std::vector<Fr>& finv = lk_f[l];
        std::vector<Fr>& tinv = lk_t[l];
        for (size_t r = 0; r < n; ++r) {
          finv[r] = beta + finv[r];
          tinv[r] = beta + tinv[r];
        }
        BatchInverse(&finv);
        BatchInverse(&tinv);
        std::vector<Fr>& h = lk_h[l];
        h.resize(n);
        for (size_t r = 0; r < n; ++r) {
          h[r] = finv[r] - lk_m[l][r] * tinv[r];
        }
        std::vector<Fr>().swap(finv);
        std::vector<Fr>().swap(tinv);
        h_mode[l] = MostFrequent(h);
        std::vector<Fr>& s = lk_s[l];  // S' here; S again after its commit
        s.assign(n, Fr::Zero());
        for (size_t r = 0; r + 1 < n; ++r) {
          s[r + 1] = s[r] + (h[r] - h_mode[l]);
        }
      });
    }
    for (size_t c = 0; c < num_chunks; ++c) {
      group.Submit([&, c] {
        const size_t col_begin = c * static_cast<size_t>(chunk_size);
        const size_t col_end = std::min(perm_cols.size(), col_begin + chunk_size);
        std::vector<Fr>& num = z_values[c];
        num.assign(n, Fr::One());
        std::vector<Fr> den(n, Fr::One());
        for (size_t i = col_begin; i < col_end; ++i) {
          for (size_t r = 0; r < n; ++r) {
            const Fr f = assignment.Get(perm_cols[i], r);
            num[r] *= f + beta * delta_pow[i] * dom.element(r) + gamma;
            den[r] *= f + beta * pk.sigma_values[i][r] + gamma;
          }
        }
        BatchInverse(&den);
        // The chunk's own prefix product, in place over num; the product of
        // the earlier chunks is multiplied in before the commit.
        Fr acc = Fr::One();
        for (size_t r = 0; r < n; ++r) {
          const Fr step = num[r] * den[r];
          num[r] = acc;
          acc *= step;
        }
        chunk_product[c] = acc;
      });
    }
  }
  std::vector<Fr> chunk_start(num_chunks);
  {
    Fr acc = Fr::One();
    for (size_t c = 0; c < num_chunks; ++c) {
      chunk_start[c] = acc;
      acc *= chunk_product[c];
    }
    if (num_chunks > 0 && acc != Fr::One()) {
      return CopyMismatchError(pk, assignment, delta_pow, static_cast<size_t>(chunk_size));
    }
  }

  // Each lookup's h and s commitments, interleaved as the proof carries them.
  std::vector<PcsCommitment> hs_comms(2 * num_lookups), z_comms(num_chunks);
  PcsCommitment index_comm;
  {
    TaskGroup group;
    if (num_lookups > 0) {
      group.Submit([&] {
        std::vector<Fr> index(n);
        for (size_t r = 0; r < n; ++r) {
          index[r] = Fr::FromU64(r);
        }
        index_comm = pcs.CommitLagrange(index);
      });
    }
    for (size_t l = 0; l < num_lookups; ++l) {
      group.Submit([&, l] {
        hs_comms[2 * l] = pcs.CommitLagrange(lk_h[l]);
        hs_comms[2 * l + 1] = pcs.CommitLagrange(lk_s[l]);
        Fr c_r = Fr::Zero();  // c * r
        for (size_t r = 0; r < n; ++r) {
          lk_s[l][r] += c_r;
          c_r += h_mode[l];
        }
        ZKML_DCHECK((lk_s[l][n - 1] + lk_h[l][n - 1]).IsZero());
      });
    }
    for (size_t c = 0; c < num_chunks; ++c) {
      group.Submit([&, c] {
        if (c > 0) {
          for (Fr& z : z_values[c]) {
            z *= chunk_start[c];
          }
        }
        z_comms[c] = pcs.CommitLagrange(z_values[c]);
      });
    }
  }
  for (size_t l = 0; l < num_lookups; ++l) {
    G1Affine& s_point = hs_comms[2 * l + 1].point;
    s_point = (G1::FromAffine(index_comm.point).ScalarMul(h_mode[l]) + G1::FromAffine(s_point))
                  .ToAffine();
  }
  shape.Write(ProofShape::kLookupHS, hs_comms, &transcript, &proof);
  shape.Write(ProofShape::kPermZ, z_comms, &transcript, &proof);
  ZKML_RETURN_IF_ERROR(stages.Begin("quotient"));

  const Fr y = transcript.ChallengeFr("y");

  // --- Round 4: quotient. ---
  // Interpolate every committed column exactly once. The coefficient vectors
  // feed the coset extension below and the evaluation/opening rounds after
  // it; in particular the instance columns are no longer re-interpolated at
  // each use site.
  const size_t num_instance = cs.num_instance_columns();
  std::vector<std::vector<Fr>> advice_coeffs(num_advice);
  std::vector<std::vector<Fr>> instance_coeffs(num_instance);
  std::vector<std::vector<Fr>> m_coeffs(num_lookups), hs_coeffs(2 * num_lookups);
  std::vector<std::vector<Fr>> z_coeffs(num_chunks);
  {
    TaskGroup group;
    for (size_t i = 0; i < num_advice; ++i) {
      group.Submit([&, i] { advice_coeffs[i] = dom.IfftToCoeffs(assignment.advice()[i]); });
    }
    for (size_t i = 0; i < num_instance; ++i) {
      group.Submit([&, i] { instance_coeffs[i] = dom.IfftToCoeffs(assignment.instance()[i]); });
    }
    // The evaluation forms of the lookup and z columns are not read again:
    // release each once it is interpolated, before the coset tables grow.
    auto interpolate_and_release = [&](std::vector<Fr>& evals) {
      std::vector<Fr> coeffs = dom.IfftToCoeffs(evals);
      std::vector<Fr>().swap(evals);
      return coeffs;
    };
    for (size_t l = 0; l < num_lookups; ++l) {
      group.Submit([&, l] {
        m_coeffs[l] = interpolate_and_release(lk_m[l]);
        hs_coeffs[2 * l] = interpolate_and_release(lk_h[l]);
        hs_coeffs[2 * l + 1] = interpolate_and_release(lk_s[l]);
      });
    }
    for (size_t c = 0; c < num_chunks; ++c) {
      group.Submit([&, c] { z_coeffs[c] = interpolate_and_release(z_values[c]); });
    }
  }

  std::vector<Fr> quotient_coeffs;
  {
    // Coset tables live in pooled buffers: one proof burns through dozens of
    // ext_n-sized scratch vectors, and the pool recycles the allocations
    // across columns and across proofs in the same process.
    VectorPool<Fr>& pool = VectorPool<Fr>::Global();
    auto coset_into = [&](const std::vector<Fr>& coeffs, PooledVector<Fr>& out) {
      out = AcquirePooled(pool, ext_n);
      dom.CosetFftFromCoeffsInto(coeffs, ext_k, out.get());
    };
    std::vector<PooledVector<Fr>> advice_coset(num_advice);
    std::vector<PooledVector<Fr>> fixed_coset(cs.num_fixed_columns());
    std::vector<PooledVector<Fr>> instance_coset(num_instance);
    std::vector<PooledVector<Fr>> sigma_coset(perm_cols.size());
    std::vector<PooledVector<Fr>> z_coset(num_chunks);
    std::vector<PooledVector<Fr>> h_coset(num_lookups), s_coset(num_lookups),
        m_coset(num_lookups);
    PooledVector<Fr> l0_coset, llast_coset;
    {
      TaskGroup group;
      for (size_t i = 0; i < num_advice; ++i) {
        group.Submit([&, i] { coset_into(advice_coeffs[i], advice_coset[i]); });
      }
      for (size_t i = 0; i < cs.num_fixed_columns(); ++i) {
        group.Submit([&, i] { coset_into(pk.fixed_coeffs[i], fixed_coset[i]); });
      }
      for (size_t i = 0; i < num_instance; ++i) {
        group.Submit([&, i] { coset_into(instance_coeffs[i], instance_coset[i]); });
      }
      for (size_t i = 0; i < perm_cols.size(); ++i) {
        group.Submit([&, i] { coset_into(pk.sigma_coeffs[i], sigma_coset[i]); });
      }
      for (size_t c = 0; c < num_chunks; ++c) {
        group.Submit([&, c] { coset_into(z_coeffs[c], z_coset[c]); });
      }
      for (size_t l = 0; l < num_lookups; ++l) {
        group.Submit([&, l] {
          coset_into(hs_coeffs[2 * l], h_coset[l]);
          coset_into(hs_coeffs[2 * l + 1], s_coset[l]);
          coset_into(m_coeffs[l], m_coset[l]);
        });
      }
      group.Submit([&] { coset_into(pk.l0_coeffs, l0_coset); });
      group.Submit([&] { coset_into(pk.llast_coeffs, llast_coset); });
    }
    // coset_x[j] = g * w_ext^j: the identity polynomial X on the coset.
    std::vector<Fr> coset_x(ext_n);
    {
      const Fr w_ext = FrRootOfUnity(pk.vk.k + ext_k);
      Fr cur = Fr::FromU64(FrParams::kGenerator);
      for (size_t j = 0; j < ext_n; ++j) {
        coset_x[j] = cur;
        cur *= w_ext;
      }
    }
    const std::vector<Fr> zh_inv = dom.VanishingInverseOnCoset(ext_k);

    // The compiled engine computes the y-combined numerator and the division
    // by Z_H in one fused row pass, replacing the per-constraint AST walks.
    QuotientEvaluator::Tables qt;
    qt.fixed.reserve(fixed_coset.size());
    for (const auto& v : fixed_coset) {
      qt.fixed.push_back(v.get());
    }
    qt.advice.reserve(advice_coset.size());
    for (const auto& v : advice_coset) {
      qt.advice.push_back(v.get());
    }
    qt.instance.reserve(instance_coset.size());
    for (const auto& v : instance_coset) {
      qt.instance.push_back(v.get());
    }
    qt.sigma.reserve(sigma_coset.size());
    for (const auto& v : sigma_coset) {
      qt.sigma.push_back(v.get());
    }
    qt.z.reserve(z_coset.size());
    for (const auto& v : z_coset) {
      qt.z.push_back(v.get());
    }
    for (size_t l = 0; l < num_lookups; ++l) {
      qt.m.push_back(m_coset[l].get());
      qt.h.push_back(h_coset[l].get());
      qt.s.push_back(s_coset[l].get());
    }
    qt.l0 = l0_coset.get();
    qt.llast = llast_coset.get();
    qt.coset_x = &coset_x;
    qt.zh_inv = &zh_inv;
    qt.ext_n = ext_n;
    qt.ext_factor = ext_factor;

    QuotientEvaluator::Challenges qch;
    qch.theta = theta;
    qch.beta = beta;
    qch.gamma = gamma;
    qch.y = y;
    qch.delta_pow = &delta_pow;

    std::shared_ptr<const QuotientEvaluator> qe = pk.quotient;
    if (qe == nullptr) {
      // Hand-built proving keys (tests) may lack the precompiled engine.
      qe = std::make_shared<const QuotientEvaluator>(cs, perm_cols);
    }
    PooledVector<Fr> numerator = AcquirePooled(pool, ext_n);
    qe->Evaluate(qt, qch, numerator.get());
    quotient_coeffs = dom.CosetIfftToCoeffs(*numerator, ext_k);
    // Pooled coset buffers release back to the pool as this scope ends.
  }
  {
    const VectorPoolStats ps = VectorPool<Fr>::Global().stats();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.gauge("prover.pool.hits").Set(static_cast<double>(ps.hits));
    reg.gauge("prover.pool.misses").Set(static_cast<double>(ps.misses));
    reg.gauge("prover.pool.dropped").Set(static_cast<double>(ps.dropped));
    reg.gauge("prover.pool.retained_bytes").Set(static_cast<double>(ps.retained_bytes));
    reg.gauge("prover.pool.peak_retained_bytes")
        .Set(static_cast<double>(ps.peak_retained_bytes));
    reg.gauge("prover.rss_hwm_delta_kb")
        .Set(static_cast<double>(obs::ReadRssHighWaterKb() - rss_start_kb));
  }
  std::vector<std::vector<Fr>> q_chunks(ext_factor);
  std::vector<PcsCommitment> q_comms(ext_factor);
  for (size_t i = 0; i < ext_factor; ++i) {
    q_chunks[i] =
        std::vector<Fr>(quotient_coeffs.begin() + i * n, quotient_coeffs.begin() + (i + 1) * n);
    q_comms[i] = pcs.Commit(q_chunks[i]);
  }
  shape.Write(ProofShape::kQuotient, q_comms, &transcript, &proof);
  ZKML_RETURN_IF_ERROR(stages.Begin("evals"));

  const Fr x = transcript.ChallengeFr("x");

  // --- Round 5: evaluations, in the shape's canonical order. ---
  const ProofShape::PerSource<std::vector<Fr>> polys = {
      &advice_coeffs, &m_coeffs, &hs_coeffs, &z_coeffs, &q_chunks, &pk.fixed_coeffs,
      &pk.sigma_coeffs};
  const std::vector<ProofShape::Opening>& openings = shape.openings();
  std::vector<Fr> evals(openings.size());
  {
    TaskGroup group;
    for (size_t e = 0; e < openings.size(); ++e) {
      group.Submit([&, e] {
        evals[e] =
            EvaluateCoeffs(openings[e].Of(polys), shape.RotationPoint(x, openings[e].rotation));
      });
    }
  }
  for (const Fr& eval : evals) {
    transcript.AppendFr("eval", eval);
    ProofAppendFr(&proof, eval);
  }
  ZKML_RETURN_IF_ERROR(stages.Begin("openings"));

  // --- Round 6: one batch opening per rotation group (ascending). ---
  for (const auto& [rotation, members] : shape.rotation_groups()) {
    std::vector<const std::vector<Fr>*> group;
    for (size_t e : members) {
      group.push_back(&openings[e].Of(polys));
    }
    pcs.OpenBatch(group, shape.RotationPoint(x, rotation), &transcript, &proof);
  }
  stages.Close();

  return proof;
}

}  // namespace zkml
