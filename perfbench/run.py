"""The repository benchmark: one command, one report.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (``BENCHMARK.json`` gates ``cold-verify`` and ``serve-warm``
and says why each was chosen):

- ``cold-verify``: first-run verification at jobs=1, fresh cache dir;
- ``hard-vcs``: a fixed corpus of slow VCs through ``Solver.check`` at a
  fixed conflict budget (the solver core alone);
- ``replan-warm``: verification after a planner upgrade (VC cache warm,
  plan cache empty);
- ``serve-warm``: two closed-loop clients against ``repro serve`` with
  both cache tiers warm;
- ``hard-vcs-full`` (only when named, minutes a pass): the stress tier
  at full size, budget 300.

Every workload is a closed loop: a caller sends its next request (a
method, a VC or an HTTP request) when the previous one returns.  A run
repeats *passes* of its workload, each in a fresh process, until the
next pass would overrun ``--seconds`` (``hard-vcs`` and traced runs make
at least two).  Pass ``i`` runs under ``PYTHONHASHSEED`` derived from
``--seed`` and ``i // 2``, so passes come in pairs that run the same
program; the deterministic counters of a pair must match exactly.
Times are medians over passes; latency percentiles pool every request
of the run's untraced passes.  Every time is reported in probe-normalised seconds: a pass runs
a fixed machine-speed probe between its operations, and its times are
scaled by ``spec.PROBE_REF_S`` over the mean probe (see ``spec.probe_s``),
because a shared host runs the same pass up to twice as slow while a
neighbour is busy.  The raw times are in the per-layer set as ``raw.*``
and in the text report.

The first run in a checkout builds the benchmark's inputs once (see
``build.py``).  Verdicts are checked against the hand-written
``expected_verdicts.json``: a verdict listed there as a known mismatch is
counted in ``wrong_verdicts`` but does not make the run incorrect.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics (the layers'
self times, the tracing overhead, exact counts) and writes the spans to
``.bench_build/perfbench/traces/``.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 unless the program or the benchmark crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spec  # noqa: E402

WORKLOADS = ("cold-verify", "hard-vcs", "replan-warm", "serve-warm")
#: Runs only when named: the full-size stress tier takes minutes a pass.
OPTIONAL = ("hard-vcs-full",)
MIN_PASSES = {"hard-vcs": 2}
MAX_PASSES = 8
PASS_TIMEOUT_S = {"hard-vcs-full": 1800}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("decided_frac", "ratio"),
    ("request_p50_s", "s"),
    ("request_p90_s", "s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

#: Per-layer metrics of the traced run, by layer; ``layers.py`` names the
#: wrapped call behind each.
PER_LAYER = [
    # plan
    ("core.plan_s", "s"), ("analysis.lint_s", "s"), ("core.elaborate_s", "s"),
    ("core.vcgen_s", "s"), ("smt.rewrite_s", "s"), ("smt.simplify_s", "s"),
    ("core.vcs", "count"), ("smt.simplify.nodes_in", "count"),
    ("smt.simplify.nodes_out", "count"), ("layer.plan.self_s", "s"),
    # engine
    ("engine.plan_cache.get_s", "s"), ("engine.plan_cache.put_s", "s"),
    ("engine.plan_cache.hits", "count"), ("engine.plan_cache.misses", "count"),
    ("engine.vc_cache.get_s", "s"), ("engine.vc_cache.put_s", "s"),
    ("engine.vc_cache.hits", "count"), ("engine.vc_cache.puts", "count"),
    ("engine.journal.record_s", "s"), ("engine.journal.records", "count"),
    ("engine.scheduler.stream_s", "s"), ("engine.scheduler.units", "count"),
    ("engine.scheduler.overhead_s", "s"), ("engine.dedup_hits", "count"),
    ("engine.dedup_rate", "ratio"), ("engine.retries", "count"),
    ("engine.plan_key.seed_unstable", "count"), ("layer.engine.self_s", "s"),
    # solve
    ("smt.solve_s", "s"), ("smt.sat_s", "s"), ("smt.reduce_sets_s", "s"),
    ("smt.preprocess_s", "s"), ("smt.checks", "count"), ("smt.conflicts", "count"),
    ("smt.vars", "count"), ("smt.clauses", "count"), ("smt.conflicts_per_s", "1/s"),
    ("core.plan.seed_unstable", "count"), ("layer.solve.self_s", "s"),
    # service
    ("service.overhead_s", "s"), ("service.rejected", "count"),
    ("layer.service.self_s", "s"),
    # the machine, and the times before probe normalisation
    ("machine.probe_s", "s"), ("raw.wall_s", "s"), ("raw.setup_s", "s"),
    ("raw.request_p50_s", "s"), ("raw.request_p90_s", "s"),
    # the whole traced pass
    ("layer.self_sum_s", "s"), ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
    ("wrong_verdicts", "count"), ("failed_frac", "ratio"),
]

DEFINITIVE = ("valid", "invalid", "static_failure")


class Expected:
    """The hand-written expected-verdict file."""

    def __init__(self, path: Path) -> None:
        doc = json.loads(path.read_text())
        self.default = doc["vc_default"]
        self.methods = doc["methods"]
        self.known_methods = set()
        self.known_vcs = set()
        for entry in doc["known_mismatches"]:
            if entry["vc"] is None:
                self.known_methods.add(entry["method"])
            else:
                self.known_vcs.add((entry["method"], entry["vc"], entry["label"]))

    def judge(self, method: str, vc: int, label: str, status: str) -> str:
        """ok | undecided | error | known_wrong | new_wrong"""
        if method not in self.methods:
            raise KeyError(f"{method} has no expected verdict")
        if status == self.default:
            return "ok"
        if status == "unknown":
            return "undecided"
        if status in ("error", "timeout"):
            return "error"
        if method in self.known_methods or (method, vc, label) in self.known_vcs:
            return "known_wrong"
        return "new_wrong"


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_pass(workload, seed, index, traced, run_dir: Path, build_dir: Path) -> dict:
    pass_dir = run_dir / f"pass{index}"
    pass_dir.mkdir(parents=True)
    cfg = {
        "workload": workload, "seed": seed, "trace": traced,
        "dir": str(pass_dir), "build": str(build_dir),
        "out": str(pass_dir / "result.json"),
    }
    hash_seed = spec.hash_seed(seed, index)
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(spec.SRC))
    proc = subprocess.Popen(
        [sys.executable, str(spec.HERE / "worker.py"), json.dumps(cfg)],
        env=env, cwd=str(spec.ROOT), stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=PASS_TIMEOUT_S.get(workload, 170))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise RuntimeError(f"{workload} pass {index} overran its time limit")
    except BaseException:
        _kill_group(proc)
        raise
    if code != 0:
        raise RuntimeError(f"{workload} pass {index} crashed (exit {code})")
    doc = json.loads(Path(cfg["out"]).read_text())
    doc.update(index=index, traced=traced, hash_seed=hash_seed)
    shutil.rmtree(pass_dir, ignore_errors=True)
    return doc


def run_passes(workload, seed, seconds, trace, build_dir: Path) -> list:
    import build

    run_dir = build.BUILD_ROOT / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    need = max(MIN_PASSES.get(workload, 1), 2 if trace else 1)
    passes = []
    started = time.monotonic()
    try:
        while True:
            index = len(passes)
            passes.append(run_pass(
                workload, seed, index, bool(trace and index % 2 == 1),
                run_dir, build_dir,
            ))
            done = len(passes)
            elapsed = time.monotonic() - started
            if trace and done % 2:
                continue  # traced runs keep untraced/traced pairs whole
            if done >= need and (done >= MAX_PASSES or elapsed + elapsed / done > seconds):
                return passes
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def normalize(p: dict) -> None:
    """Add the probe-normalised times of one pass (see ``spec.probe_s``):
    its wall, set-up and request latencies, each scaled by PROBE_REF_S
    over the mean of the pass's probes.  A neighbour's load flips the
    machine's speed faster than one operation runs, so the mean over the
    whole pass is what tracks the speed the pass ran at."""
    scale = spec.PROBE_REF_S / statistics.mean(p["probes"])
    p["norm_wall_s"] = p["wall_s"] * scale
    p["norm_setup_s"] = p["setup_s"] * scale
    p["norm_latencies"] = [req[0] * scale for req in p["requests"]]


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def summarize(workload, passes, expected: Expected, manifest: dict) -> dict:
    """End-to-end and per-layer metrics of one run, plus its checks."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    problems = []
    for p in passes:
        normalize(p)

    # An operation is one VC, or one HTTP request in serve-warm.  ``failed``
    # (the run's correctness count) leaves out the mismatches the expected
    # file lists; ``failed_frac`` counts them too.
    attempted = failed = failed_any = vcs = decided = 0
    per_pass_wrong = []
    wrong_rows = {}
    for p in passes:
        wrong = 0
        for _latency, status, rows, _segment in p["requests"]:
            judged = [expected.judge(*row) for row in rows]
            vcs += len(rows)
            decided += sum(row[3] in DEFINITIVE for row in rows)
            for row, verdict in zip(rows, judged):
                if verdict in ("known_wrong", "new_wrong"):
                    wrong += 1
                    wrong_rows[tuple(row)] = verdict
            ops = [(status, judged)] if workload == "serve-warm" else [(status, [v]) for v in judged]
            for op_status, op in ops:
                hard = op_status != 200 or "error" in op or "new_wrong" in op
                attempted += 1
                failed += hard
                failed_any += hard or "known_wrong" in op
        per_pass_wrong.append(wrong)

    # Pairs of passes share a hash seed: their deterministic counters and
    # verdicts must repeat exactly.
    for a, b in zip(passes[0::2], passes[1::2]):
        rows_a = [r for req in a["requests"] for r in req[2]]
        rows_b = [r for req in b["requests"] for r in req[2]]
        if a.get("exact") != b.get("exact") or sorted(rows_a) != sorted(rows_b):
            problems.append(
                f"passes {a['index']} and {b['index']} (hash seed {a['hash_seed']}) "
                f"disagree: {a.get('exact')} vs {b.get('exact')}"
            )
    new_wrong = [row for row, verdict in sorted(wrong_rows.items()) if verdict == "new_wrong"]
    if new_wrong:
        problems.append(f"verdicts the expected file does not list: {new_wrong[:3]}")
    for p in plain:
        if p.get("vc_cache_misses"):
            problems.append(f"pass {p['index']}: {p['vc_cache_misses']} VC-cache misses")

    latencies = [lat for p in plain for lat in p["norm_latencies"]]
    raw_latencies = [req[0] for p in plain for req in p["requests"]]
    e2e = {
        "wall_s": statistics.median(p["norm_wall_s"] for p in plain),
        "setup_s": statistics.median(p["norm_setup_s"] for p in plain),
        "decided_frac": decided / vcs if vcs else 0.0,
        "request_p50_s": statistics.median(latencies),
        "request_p90_s": _p90(latencies),
        "requests_per_s": statistics.median(
            len(p["requests"]) / p["norm_wall_s"] for p in plain
        ),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    overheads = [o for p in passes for o in p.get("service_overheads", [])]
    rejected = sum(1 for p in passes for req in p["requests"] if req[1] in (429, 503))
    layer = {
        "wrong_verdicts": statistics.median(per_pass_wrong),
        "failed_frac": failed_any / attempted if attempted else 0.0,
        "service.overhead_s": statistics.median(overheads) if overheads else 0.0,
        "service.rejected": rejected,
        "engine.plan_key.seed_unstable": len(manifest["plan_key_unstable"]),
        "core.plan.seed_unstable": len(manifest["vc_text_unstable"]),
        "machine.probe_s": statistics.median(x for p in plain for x in p["probes"]),
        "raw.wall_s": statistics.median(p["wall_s"] for p in plain),
        "raw.setup_s": statistics.median(p["setup_s"] for p in plain),
        "raw.request_p50_s": statistics.median(raw_latencies),
        "raw.request_p90_s": _p90(raw_latencies),
    }
    if traced:
        import layers

        per_pass = []
        for p in traced:
            m = layers.layer_metrics(p["trace"])
            if m["layer.self_sum_s"] > p["wall_s"] * 1.001 + 1e-4:
                problems.append(
                    f"pass {p['index']}: layer self times {m['layer.self_sum_s']:.3f}s "
                    f"exceed wall {p['wall_s']:.3f}s"
                )
            per_pass.append(m)
        for name in per_pass[0]:
            layer[name] = statistics.median(m[name] for m in per_pass)
        # trace.wall_s is raw, on the scale of the layer self times it
        # bounds; the overhead compares normalised walls, as wall_s does.
        layer["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        layer["trace.overhead_s"] = (
            statistics.median(p["norm_wall_s"] for p in traced) - e2e["wall_s"]
        )

    return {
        "workload": workload,
        "passes": len(passes),
        "hash_seeds": sorted({p["hash_seed"] for p in passes}),
        "walls": [p["wall_s"] for p in passes],
        "norm_walls": [p["norm_wall_s"] for p in passes],
        "setups": [p["setup_s"] for p in passes],
        "wrong_rows": sorted(wrong_rows.items()),
        "requests": len(latencies),
        "e2e": e2e,
        "layer": layer,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def _fmt(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    return str(int(value)) if isinstance(value, float) else str(value)


def print_row(summary, trace: bool) -> None:
    e2e, layer = summary["e2e"], summary["layer"]
    cells = [f"{name}={_fmt(e2e[name])} {unit}" for name, unit in END_TO_END]
    cells.insert(5, f"(n={summary['requests']} requests)")
    cells.append(f"wrong_verdicts={_fmt(layer['wrong_verdicts'])} count")
    cells.append(f"failed_frac={_fmt(layer['failed_frac'])} ratio")
    walls = " ".join(f"{w:.3f}" for w in summary["walls"])
    norm = " ".join(f"{w:.3f}" for w in summary["norm_walls"])
    setups = " ".join(f"{w:.3f}" for w in summary["setups"])
    print(f"{summary['workload']:<12} passes={summary['passes']} (raw wall_s {walls}; "
          f"normalised {norm}; raw setup_s {setups}) "
          f"PYTHONHASHSEED={','.join(map(str, summary['hash_seeds']))}")
    print("    " + "  ".join(cells))
    print(f"    raw: wall_s={_fmt(layer['raw.wall_s'])} s  setup_s={_fmt(layer['raw.setup_s'])} s  "
          f"request_p50_s={_fmt(layer['raw.request_p50_s'])} s  "
          f"request_p90_s={_fmt(layer['raw.request_p90_s'])} s  "
          f"machine.probe_s={_fmt(layer['machine.probe_s'])} s (reference {spec.PROBE_REF_S} s)")
    if trace:
        for name, unit in PER_LAYER:
            print(f"    {name:<32} {_fmt(layer[name])} {unit}")
    for (method, vc, label, status), verdict in summary["wrong_rows"]:
        known = "known mismatch" if verdict == "known_wrong" else "NOT in the expected file"
        print(f"    wrong verdict: {method} #{vc} {label!r} came back {status} ({known})")
    for problem in summary["problems"]:
        print(f"    PROBLEM: {problem}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + OPTIONAL + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (spec.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {spec.SRC}", file=sys.stderr)
        return 2
    import build

    build_dir = build.ensure_built()
    manifest = json.loads((build_dir / "manifest.json").read_text())
    expected = Expected(spec.EXPECTED)

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for workload in chosen:
        passes = run_passes(workload, args.seed, args.seconds, args.trace, build_dir)
        summary = summarize(workload, passes, expected, manifest)
        summaries.append(summary)
        print_row(summary, bool(args.trace))
        if args.trace:
            out = build.BUILD_ROOT / "traces" / f"{workload}-seed{args.seed}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps({
                "workload": workload, "seed": args.seed,
                "per_layer": summary["layer"],
                "passes": [{k: p[k] for k in ("index", "hash_seed", "wall_s", "trace")}
                           for p in passes if p["traced"]],
            }))
            print(f"    spans written to {out.relative_to(spec.ROOT)}")

    def metrics_of(summary):
        if args.trace:
            return {name: _metric(summary["layer"][name], unit) for name, unit in PER_LAYER}
        return {name: _metric(summary["e2e"][name], unit) for name, unit in END_TO_END}

    if len(summaries) == 1:
        metrics = metrics_of(summaries[0])
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in metrics_of(s).items()}
    print(json.dumps({
        "correct": all(not s["problems"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
