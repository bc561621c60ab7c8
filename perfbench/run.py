#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of zkml.

    python3 perfbench/run.py --workload cold-compile|warm-prove|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the repository's libraries
plus the zkbench program) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the workload in fresh zkbench processes, checks
every output, prints a human-readable report and, as the last line of
stdout, one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Workloads, metrics and their meaning: perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import stats  # noqa: E402

WORKLOADS = ("cold-compile", "warm-prove", "serve-mix")
# Reserved for checking a claimed gain on inputs no tuning has seen.
HELDOUT_SEED = 7919
# Every zkbench process of one run must end within this many seconds in all.
RUN_TIMEOUT_S = 170
# Cold passes (fresh processes) per cold-compile run.
COLD_PASSES = 2
# serve_ok_share counts a request as OK when it returned a verified, correct
# result within this many seconds of when it was due.
LATENCY_LIMIT_S = {
    "cold-compile": 60.0,  # one pass: 5 models, bytes in -> verified proofs out
    "warm-prove": 3.0,     # one resnet18 prove + verify
    "serve-mix": 1.5,      # one request, from its scheduled send
}

# End-to-end metrics in the result line: the ones BENCHMARK.json bounds.
E2E = [
    ("setup_s", "s"),
    ("cold_e2e_s", "s"),
    ("peak_rss_mb", "MB"),
    ("proof_bytes", "B"),
    ("prove_p50_s", "s"),
    ("serve_p50_s", "s"),
    ("serve_kind_p50_sum_s", "s"),
    ("serve_ok_share", "ratio"),
]
# End-to-end metrics printed in the report but not bounded: their run-to-run
# spread on a shared 4-vCPU host (0.21-0.28 over ten runs) is about the
# largest bound a metric may have, so a bound would reject healthy runs. A
# value of None (printed as n/a) marks a metric the workload does not have.
E2E_REPORTED = [
    ("serve_sat_inferences_per_s", "1/s"),
    ("prove_tail_s", "s"),
    ("serve_tail_s", "s"),
    ("verify_p50_s", "s"),
    ("verify_batch_proofs_per_s", "1/s"),
]

PROVE_ROUNDS = ("advice-commit", "lookup-mult", "lookup-perm-commit", "quotient", "evals",
                "openings")
PIN_TAGS = ("mnist_kzg", "mnist_ipa", "dlrm_kzg", "twitter_kzg", "resnet18_kzg")

PER_LAYER = (
    [("model.parse_s", "s"),
     ("optimizer.hwprofile_s", "s"),
     ("optimizer.search_s", "s"),
     ("optimizer.plans_evaluated", "count")]
    + [("optimizer.chosen_k." + t, "count") for t in PIN_TAGS]
    + [("optimizer.chosen_columns." + t, "count") for t in PIN_TAGS]
    + [("zkml.compile_self_s", "s"),
       ("plonk.keygen_s", "s"),
       ("pcs.lagrange_build_s", "s"),
       ("pcs.lagrange_build_span_over_wall", "ratio"),
       ("pcs.lagrange_basis_builds", "count"),
       ("compiler.build_circuit_s", "s"),
       ("keygen.fft_points", "count"),
       ("keygen.msm_points", "count")]
    + [("plonk.prove.%s_s" % r, "s") for r in PROVE_ROUNDS]
    + [("poly.fft_calls", "count"),
       ("poly.fft_points", "count"),
       ("ec.msm_calls", "count"),
       ("ec.msm_points", "count"),
       ("compiler.witness_s", "s"),
       ("optimizer.predicted_prove_s", "s"),
       ("plonk.prove_s", "s"),
       ("plonk.verify_s", "s"),
       ("pcs.kzg.pairing_checks", "count"),
       ("pcs.kzg.verify_batches", "count"),
       ("serve.queue_wait_s", "s"),
       ("serve.compile_s", "s"),
       ("serve.witness_s", "s"),
       ("serve.prove_s", "s"),
       ("serve.respond_s", "s"),
       ("serve.cache_hit_share", "ratio"),
       ("serve.shed_share", "ratio"),
       ("serve.generator_lag_max_s", "s"),
       ("base.pool_busy_fraction", "ratio"),
       ("base.pool_tasks", "count"),
       ("base.buffer_pool_hit_share", "ratio"),
       ("span_coverage_share", "ratio"),
       ("unattributed_s", "s"),
       ("trace_overhead_s", "s")]
)


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds zkbench; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "zkbench")


def source_digest():
    """SHA-256 over the files under src/: names the code a result measured,
    also in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def run_child(binary, args, deadline):
    """Runs one zkbench process (killed at `deadline`, a time.monotonic()
    value) and returns its result document."""
    cmd = [binary] + args
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if r.returncode != 0 or not r.stdout.strip():
        sys.stderr.write(r.stderr[-4000:])
        fail("zkbench exited %d: %s" % (r.returncode, " ".join(cmd)))
    return json.loads(r.stdout.strip().splitlines()[-1])


def plan(workload, seed, seconds, trace):
    """The zkbench invocations of one run: (args, traced) pairs."""
    base = ["--workload", workload, "--seed", str(seed)]
    if workload == "cold-compile":
        # Each pass is a fresh process, so every cache starts cold. A traced
        # run pairs one untraced pass with one traced pass of the same work.
        if trace:
            return [(base, False), (base + ["--trace"], True)]
        return [(base, False)] * COLD_PASSES
    args = base + ["--seconds", str(seconds)]
    return [(args + ["--trace"], True)] if trace else [(args, False)]


# --- end-to-end metrics -----------------------------------------------------

def pooled(docs, key):
    out = []
    for d in docs:
        out.extend(d["samples"].get(key, []))
    return out


def values(docs, key):
    return [d["values"][key] for d in docs if key in d["values"]]


def e2e_metrics(workload, docs):
    m = {}
    notes = {}
    m["setup_s"] = stats.median(pooled(docs, "setup_s"))
    notes["setup_s"] = "median of %d set-ups" % len(pooled(docs, "setup_s"))
    for key in ("cold_e2e_s", "peak_rss_mb", "proof_bytes"):
        m[key] = stats.median(values(docs, key))
        notes[key] = "median of %d processes" % len(values(docs, key))
    rates = [stats.rate(d["values"]["verify_batch_proofs"], s)
             for d in docs for s in d["samples"].get("verify_batch_s", [])]
    m["verify_batch_proofs_per_s"] = stats.median(rates) if rates else None
    notes["verify_batch_proofs_per_s"] = ("median of %d calls" % len(rates) if rates
                                          else "warm-prove only")
    rates = [stats.rate(d["values"]["closed_inferences"], d["values"]["closed_wall_s"])
             for d in docs]
    m["serve_sat_inferences_per_s"] = stats.median(rates)
    notes["serve_sat_inferences_per_s"] = "median of %d processes" % len(rates)

    latency = [stats.open_loop_latency(due, done) for due, done in
               zip(pooled(docs, "request_due_s"), pooled(docs, "request_done_s"))]
    kinds = [d["request_kinds"][int(k)] for d in docs for k in d["samples"]["request_kind"]]
    by_kind = {}
    for kind, lat in zip(kinds, latency):
        by_kind.setdefault(kind, []).append(lat)
    m["serve_kind_p50_sum_s"] = stats.kind_median_sum(by_kind)
    notes["serve_kind_p50_sum_s"] = "sum over kinds: " + " ".join(sorted(by_kind))
    if len(by_kind) > 1:
        for kind, xs in sorted(by_kind.items()):
            m["serve_p50_s." + kind] = stats.median(xs)
            notes["serve_p50_s." + kind] = "n=%d" % len(xs)
    limit = LATENCY_LIMIT_S[workload]
    ok = sum(1 for lat, good in zip(latency, pooled(docs, "request_ok"))
             if good and lat <= limit)
    m["serve_ok_share"] = stats.share(ok, len(latency))
    notes["serve_ok_share"] = "%d of %d requests within %g s" % (ok, len(latency), limit)
    for prefix, xs in (("prove", pooled(docs, "prove_s")), ("serve", latency)):
        m[prefix + "_p50_s"] = stats.median(xs)
        label, v, n = stats.tail(xs)
        m[prefix + "_tail_s"] = v
        notes[prefix + "_p50_s"] = "n=%d" % n
        notes[prefix + "_tail_s"] = {
            "p50": "p50 of n=%d: no higher percentile has 10 samples beyond it" % n,
            "max": "max of n=%d: no percentile has 10 samples beyond it" % n,
        }.get(label, "%s of n=%d" % (label, n))
    xs = pooled(docs, "verify_s")
    m["verify_p50_s"] = stats.median(xs)
    notes["verify_p50_s"] = "n=%d" % len(xs)
    return m, notes


# --- per-layer metrics from spans -------------------------------------------

# Benchmark bookkeeping whose subtree is not workload work (the serve-mix
# verifier compiles the served circuits a second time to check the proofs).
EXCLUDED_ROOTS = ("bench.verifier_compile",)


class Spans:
    """Span rows [tracer, id, parent, name, start_us, dur_us, fft_calls,
    fft_points, msm_calls, msm_points] from one traced zkbench process."""

    def __init__(self, rows):
        by_key = {(r[0], r[1]): r for r in rows}
        self.children = {}
        for r in rows:
            self.children.setdefault((r[0], r[2]), []).append(r)

        def excluded(r):
            seen = 0
            while r is not None and seen < 10000:
                if r[3] in EXCLUDED_ROOTS:
                    return True
                r = by_key.get((r[0], r[2]))
                seen += 1
            return False
        self.rows = [r for r in rows if not excluded(r)]

    def named(self, *names):
        return [r for r in self.rows if r[3] in names]

    def total_s(self, *names):
        return sum(r[5] for r in self.named(*names)) / 1e6

    def count(self, *names):
        return len(self.named(*names))

    def mean_s(self, *names):
        return stats.share(self.total_s(*names), self.count(*names))

    def kernel_sum(self, name, col):
        return sum(r[col] for r in self.named(name))

    def self_s(self, name):
        total = 0.0
        for r in self.named(name):
            kids = [(c[4], c[4] + c[5]) for c in self.children.get((r[0], r[1]), [])]
            total += stats.self_time((r[4], r[4] + r[5]), kids)
        return total / 1e6

    def concurrency(self, name):
        groups = {}
        for r in self.named(name):
            groups.setdefault(r[0], []).append((r[4], r[4] + r[5]))
        return stats.concurrency(list(groups.values()))

    def coverage_s(self, window):
        iv = [c for c in (stats.clip((r[4], r[4] + r[5]), window)
                          for r in self.rows if r[0] == 0) if c]
        return stats.union_length(iv) / 1e6


def layer_metrics(traced_doc, untraced_doc):
    raw = traced_doc["layers"]
    layers = {name: 0.0 for name, _ in PER_LAYER}
    layers.update({k: v for k, v in raw.items() if k in layers})

    def raw_share(part, *rest):
        return stats.share(raw.get(part, 0.0), sum(raw.get(k, 0.0) for k in (part,) + rest))
    layers["serve.cache_hit_share"] = raw_share("serve.cache_hits", "serve.cache_misses")
    layers["serve.shed_share"] = stats.share(raw.get("serve.jobs_shed", 0.0),
                                             raw.get("serve.jobs_offered", 0.0))
    layers["base.buffer_pool_hit_share"] = raw_share("prover.pool.hits", "prover.pool.misses")
    layers["base.pool_busy_fraction"] = stats.share(raw.get("threadpool.busy_s", 0.0),
                                                    raw.get("threadpool.capacity_s", 0.0))
    for stage, name in (("admission", "serve.queue_wait_s"), ("compile", "serve.compile_s"),
                        ("witness", "serve.witness_s"), ("prove", "serve.prove_s"),
                        ("respond", "serve.respond_s")):
        h = "serve.stage_seconds." + stage
        layers[name] = stats.share(raw.get(h + ".sum", 0.0), raw.get(h + ".count", 0.0))

    sp = Spans(traced_doc.get("spans", []))
    proofs = sp.count("prove")
    layers["model.parse_s"] = sp.total_s("bench.parse")
    layers["optimizer.search_s"] = sp.total_s("optimizer-search")
    layers["zkml.compile_self_s"] = sp.self_s("compile")
    layers["plonk.keygen_s"] = sp.total_s("keygen")
    layers["pcs.lagrange_build_s"] = sp.total_s("lagrange-basis-build")
    layers["pcs.lagrange_build_span_over_wall"] = sp.concurrency("lagrange-basis-build")
    layers["compiler.build_circuit_s"] = sp.total_s("compile-build-circuit")
    if "keygen.fft_points" not in traced_doc["layers"]:
        layers["keygen.fft_points"] = sp.kernel_sum("compile", 7)
        layers["keygen.msm_points"] = sp.kernel_sum("compile", 9)
    for rnd in PROVE_ROUNDS:
        layers["plonk.prove.%s_s" % rnd] = stats.share(sp.total_s(rnd), proofs)
    for name, col in (("poly.fft_calls", 6), ("poly.fft_points", 7), ("ec.msm_calls", 8),
                      ("ec.msm_points", 9)):
        layers[name] = stats.share(sp.kernel_sum("prove", col), proofs)
    layers["compiler.witness_s"] = sp.mean_s("witness-gen", "batched-witness-gen")
    layers["plonk.prove_s"] = sp.mean_s("prove")
    layers["plonk.verify_s"] = sp.mean_s("verify")

    wall_us = traced_doc["wall_s"] * 1e6
    start = traced_doc.get("wall_start_us", 0.0)
    covered = sp.coverage_s((start, start + wall_us))
    layers["span_coverage_share"] = stats.share(covered, traced_doc["wall_s"])
    layers["unattributed_s"] = traced_doc["wall_s"] - covered

    # Tracing overhead: traced minus untraced wall for the same work, either
    # from an untraced twin process or from alternating work in one process.
    if untraced_doc is not None:
        layers["trace_overhead_s"] = traced_doc["wall_s"] - untraced_doc["wall_s"]
    else:
        t, u = pooled([traced_doc], "traced_op_s"), pooled([traced_doc], "untraced_op_s")
        if t and u:
            layers["trace_overhead_s"] = (stats.median(t) - stats.median(u)) * len(t)
    return layers


# --- pins -------------------------------------------------------------------

def check_pins(workload, docs, source):
    """Circuit pins (k, columns, rows_used, proof_bytes, vk digest) must agree
    across the processes of this run, and with the most common pins of the
    earlier runs of this workload on the same sources (`source`, the digest
    of src/) in this build directory. A difference is flagged as a source of
    spread: the optimizer's hardware profile is measured per process."""
    flags = []
    seen = {}
    for d in docs:
        for pin in d["pins"]:
            key = pin["model"]
            if key in seen and seen[key] != pin:
                flags.append("%s differs between processes: %s vs %s" % (key, seen[key], pin))
            seen.setdefault(key, pin)
    path = os.path.join(build_dir(), "pins", "%s-%s.json" % (workload, source))
    counts = {}
    if os.path.exists(path):
        with open(path) as f:
            counts = json.load(f)
    this = json.dumps(seen, sort_keys=True)
    if counts:
        common = max(counts, key=lambda k: counts[k])
        earlier = sum(counts.values())
        for key, pin in json.loads(common).items():
            if key in seen and seen[key] != pin:
                flags.append("%s differs from the most common pins of %d earlier runs: %s vs %s"
                             % (key, earlier, pin, seen[key]))
    counts[this] = counts.get(this, 0) + 1
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(counts, f, indent=1)
    return seen, flags


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no zkml sources next to perfbench/ (expected %s/src)" % ROOT, 2)
    try:
        stats.selftest()
    except AssertionError as e:
        fail("stats self-test failed: %r" % e, 3)
    binary = build()

    t0 = time.monotonic()
    docs = []
    for child_args, traced in plan(args.workload, args.seed, args.seconds, args.trace == 1):
        doc = run_child(binary, child_args, t0 + RUN_TIMEOUT_S)
        doc["traced"] = traced
        docs.append(doc)
    wall = time.monotonic() - t0

    failures = [f for d in docs for f in d["check_failures"]]
    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    source = source_digest()
    pins, pin_flags = check_pins(args.workload, docs, source)
    host = dict(docs[0]["host"], git_sha=git_sha(), source_digest=source,
                heldout_seed=HELDOUT_SEED)

    if args.trace:
        traced = [d for d in docs if d["traced"]][0]
        untraced = [d for d in docs if not d["traced"]]
        values_ = layer_metrics(traced, untraced[0] if untraced else None)
        notes = {}
        units = dict(PER_LAYER)
    else:
        values_, notes = e2e_metrics(args.workload, docs)
        units = dict(E2E)

    print("zkml perfbench: workload=%s seed=%d seconds=%d trace=%d  (%d processes, %.1f s)"
          % (args.workload, args.seed, args.seconds, args.trace, len(docs), wall))
    print("host: " + " ".join("%s=%s" % kv for kv in sorted(host.items())))
    shown = PER_LAYER if args.trace else E2E + E2E_REPORTED + sorted(
        (k, "s") for k in values_ if k.startswith("serve_p50_s."))
    for name, unit in shown:
        v = "n/a" if values_[name] is None else "%.6g" % values_[name]
        print("  %-36s %14s %-6s %s" % (name, v, unit, notes.get(name, "")))
    if args.trace:
        print("attribution: %.1f%% of %.1f s wall covered by spans, %.3f s unattributed; "
              "lagrange-basis-build span/wall %.2f; tracing overhead %.3f s"
              % (100 * values_["span_coverage_share"], traced["wall_s"], values_["unattributed_s"],
                 values_["pcs.lagrange_build_span_over_wall"], values_["trace_overhead_s"]))
    else:
        print("  %-36s %14s %-6s (failed / attempted)"
              % ("fail_share", "%d/%d" % (failed, attempted), "ratio"))
    for key in sorted(pins):
        p = pins[key]
        print("  pin %-14s k=%d columns=%d rows_used=%d proof_bytes=%d vk=%s"
              % (key, p["k"], p["columns"], p["rows_used"], p["proof_bytes"], p["vk_digest"]))
    for f in pin_flags:
        print("  FLAG pin " + f)
    for f in failures:
        print("  CHECK FAILED " + f)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "metrics": values_, "notes": notes,
              "pins": pins, "pin_flags": pin_flags, "check_failures": failures,
              "attempted": attempted, "failed": failed}
    reports = os.path.join(build_dir(), "reports")
    os.makedirs(reports, exist_ok=True)
    with open(os.path.join(reports, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values_[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
