"""One measured pass of one workload, in a fresh process.

``run.py`` starts this with the pass's PYTHONHASHSEED and a JSON config;
it writes one JSON document to ``config["out"]``:

- ``setup_s``: process start to the first timed operation (imports,
  session or daemon start, cache copy and warming, corpus loading);
- ``segments``: the timed pass as segments of operations (one method or
  VC, or SERVE_SEGMENT HTTP requests), in seconds; ``wall_s`` is their
  sum;
- ``probes``: the machine-speed probe (``spec.probe_s``) run right after
  set-up and after every segment, while no operation is in flight;
- ``requests``: one ``[latency_s, http_status, rows, segment]`` per
  caller request (a method, a VC, or an HTTP request in ``serve-warm``),
  where ``rows`` are the ``[method, vc, label, status]`` verdicts it
  returned, checked by the parent against the expected-verdict file
  (quarantined slots and wall-clock timeouts arrive as
  ``error``/``timeout``);
- ``exact``: deterministic counters two passes under one hash seed must
  repeat exactly;
- ``peak_rss_mb``, and with tracing on, ``trace``: the spans and counts
  recorded during the timed pass.

Usage: ``python3 perfbench/worker.py '<json config>'``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import urllib.error  # noqa: E402
import urllib.request  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spec  # noqa: E402

sys.path.insert(0, str(spec.SRC))


def _rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _registry():
    from repro.structures.registry import all_methods

    return {m: exp for exp, m in all_methods()}


def _inputs(methods):
    registry = _registry()
    return {
        m: (registry[m].program_factory(), registry[m].ids_factory())
        for m in methods
    }


def _maybe_trace(cfg) -> None:
    if cfg["trace"]:
        import layers

        layers.install()


def _verdict_rows(result) -> list:
    return [
        [result.method, v.index, v.label, "error" if v.quarantined else v.status]
        for v in result.verdicts
    ]


def _segmented(count: int, run_segment):
    """Run ``run_segment(i)`` for each of ``count`` segments, with a
    machine-speed probe after set-up and after every segment.  Returns
    the probes and each segment's ``(start, end)``."""
    probes, windows = [spec.probe_s()], []
    for i in range(count):
        t0 = time.perf_counter()
        run_segment(i)
        windows.append((t0, time.perf_counter()))
        probes.append(spec.probe_s())
    return probes, windows


def _finish_pass(cfg, out: dict, probes, windows, dump=None) -> dict:
    """``dump``: the spans to report when tracing, if not this process's."""
    segments = [end - start for start, end in windows]
    out.update(probes=probes, segments=segments, wall_s=sum(segments))
    if cfg["trace"]:
        import layers

        dump = layers.RECORDER.dump() if dump is None else dump
        out["trace"] = layers.window(dump, windows)
    return out


def _session_pass(cfg, methods, session_kwargs, cache_dir: Path) -> dict:
    """cold-verify and replan-warm: one caller verifying methods in turn."""
    from repro.engine import VerificationSession

    inputs = _inputs(methods)
    _maybe_trace(cfg)
    session = VerificationSession(cache_dir=str(cache_dir), **session_kwargs)
    out = {"setup_s": time.perf_counter() - STARTED}
    requests = []
    exact = {"core.vcs": 0, "smt.simplify.nodes_out": 0, "engine.dedup_hits": 0}
    cache_hits = 0

    def verify(i: int) -> None:
        nonlocal cache_hits
        program, ids = inputs[methods[i]]
        t0 = time.perf_counter()
        result = session.verify(program, ids, methods[i])
        requests.append([time.perf_counter() - t0, 200, _verdict_rows(result), i])
        exact["core.vcs"] += result.n_vcs
        exact["smt.simplify.nodes_out"] += result.nodes_after
        exact["engine.dedup_hits"] += result.dedup_hits
        cache_hits += result.cache_hits

    with session:
        timed = _segmented(len(methods), verify)
    out.update(requests=requests, exact=exact, cache_hits=cache_hits)
    return _finish_pass(cfg, out, *timed)


def cold_verify(cfg) -> dict:
    cache = Path(cfg["dir"]) / "cache"
    methods = spec.ordered(spec.COLD_VERIFY, cfg["seed"], "cold-verify")
    return _session_pass(cfg, methods, dict(
        jobs=1, timeout_s=spec.COLD_BUDGET_S, method_budget_s=spec.COLD_BUDGET_S,
        diagnostics=False,
    ), cache)


def replan_warm(cfg) -> dict:
    cache = Path(cfg["dir"]) / "cache"
    shutil.copytree(Path(cfg["build"]) / "vc", cache, ignore=shutil.ignore_patterns("plan"))
    methods = spec.ordered(spec.REPLAN_WARM, cfg["seed"], "replan-warm")
    out = _session_pass(cfg, methods, dict(jobs=1), cache)
    out["vc_cache_misses"] = out["exact"]["core.vcs"] - out.pop("cache_hits")
    return out


def hard_vcs(cfg) -> dict:
    from repro.engine.plancache import PlanCache
    from repro.smt.solver import BudgetExceeded, Solver
    from repro.smt.terms import mk_not

    budget, wanted = spec.HARD_CORPORA[cfg["workload"]]
    store = PlanCache(Path(cfg["build"]) / "corpus")
    corpus = {}
    for method in sorted({m for m, _ix, _label in wanted}):
        plan = store.get(f"hard-vcs-{method}", conflict_budget=budget)
        if plan is None:
            raise RuntimeError(f"hard-vcs corpus for {method} missing from the build")
        for pvc in plan.vcs:
            corpus[(method, pvc.index)] = pvc
    for method, index, label in wanted:
        got = corpus.get((method, index))
        if got is None or got.label != label:
            raise RuntimeError(
                f"hard-vcs corpus: {method} #{index} is "
                f"{got.label if got else None!r}, expected {label!r}"
            )
    order = spec.ordered(wanted, cfg["seed"], cfg["workload"])
    _maybe_trace(cfg)
    out = {"setup_s": time.perf_counter() - STARTED}
    requests, exact = [], {}

    def check(i: int) -> None:
        method, index, label = order[i]
        pvc = corpus[(method, index)]
        solver = Solver(conflict_budget=budget, assume_rewritten=True)
        solver.add(mk_not(pvc.formula))
        t0 = time.perf_counter()
        try:
            status = "invalid" if solver.check() == "sat" else "valid"
        except BudgetExceeded:
            status = "unknown"
        requests.append([time.perf_counter() - t0, 200, [[method, index, label, status]], i])
        sat = solver.sat
        exact[f"{method}#{index}"] = [
            status,
            sat.n_conflicts if sat else 0,
            len(sat.assigns) if sat else 0,
            len(sat.clauses) if sat else 0,
        ]

    timed = _segmented(len(order), check)
    exact["core.vcs"] = len(order)
    exact["smt.simplify.nodes_out"] = sum(corpus[(m, i)].nodes_after for m, i, _l in order)
    out.update(requests=requests, exact=exact)
    return _finish_pass(cfg, out, *timed)


# -- serve-warm ---------------------------------------------------------------


def _post(port: int, method: str, client: str):
    """One blocking ``POST /v1/verify``: (status, raw body, latency).
    The body is parsed after the timed window, so the client's JSON work
    does not compete with the daemon for the CPUs while it is measured."""
    body = json.dumps({"methods": [method]}).encode()
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/verify", data=body, method="POST",
        headers={"Content-Type": "application/json", "X-Client-Id": client},
    )
    t0 = time.perf_counter()
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            status, payload = resp.status, resp.read()
    except urllib.error.HTTPError as e:
        status, payload = e.code, e.read()
    except OSError:  # refused, reset or timed out: a failed request
        status, payload = 0, b""
    return status, payload, time.perf_counter() - t0


def _document(payload: bytes) -> dict:
    try:
        return json.loads(payload)
    except ValueError:
        return {}


def _response_rows(doc) -> list:
    return [
        [result["method"], v["vc"], v["label"],
         "error" if v.get("quarantined") else v["status"]]
        for result in doc.get("results", [])
        for v in result.get("verdicts", [])
    ]


def serve_warm(cfg) -> dict:
    work = Path(cfg["dir"])
    cache = work / "cache"
    shutil.copytree(Path(cfg["build"]) / "vc", cache)
    port_file, report = work / "port", work / "daemon.json"
    env = dict(os.environ, PYTHONPATH=str(spec.SRC))
    daemon = subprocess.Popen(
        [sys.executable, str(spec.HERE / "serve_launcher.py"),
         str(port_file), str(report), "1" if cfg["trace"] else "0",
         "serve", "--cache-dir", str(cache), "--port", "0", "--quiet"],
        env=env, cwd=str(spec.ROOT),
    )
    try:
        deadline = time.monotonic() + 60
        while not port_file.exists():
            if daemon.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve did not start")
            time.sleep(0.02)
        port = int(port_file.read_text())
        # The copied plan tier leaves out the methods whose plan keys
        # depend on the hash seed; the daemon plans those here.
        for method in spec.SERVE_WARM:
            status, _body, _lat = _post(port, method, "warmup")
            if status != 200:
                raise RuntimeError(f"warm-up request for {method} got HTTP {status}")
        out = {"setup_s": time.perf_counter() - STARTED}

        sequence = spec.ordered(spec.SERVE_WARM * spec.SERVE_ROUNDS, cfg["seed"], "serve-warm")
        size = spec.SERVE_SEGMENT
        results = [[] for _ in range(spec.SERVE_CLIENTS)]

        def client(ix: int, segment: int) -> None:
            part = sequence[segment * size:(segment + 1) * size]
            for method in part[ix::spec.SERVE_CLIENTS]:
                results[ix].append(_post(port, method, f"bench-{ix}") + (segment,))

        def run_segment(segment: int) -> None:
            threads = [threading.Thread(target=client, args=(i, segment))
                       for i in range(spec.SERVE_CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        timed = _segmented(-(-len(sequence) // size), run_segment)
    finally:
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
    if daemon.returncode != 0:
        raise RuntimeError(f"repro serve exited with {daemon.returncode}")

    requests, overheads = [], []
    for status, payload, latency, segment in (r for rs in results for r in rs):
        doc = _document(payload)
        requests.append([latency, status, _response_rows(doc), segment])
        if status == 200:
            overheads.append(latency - doc.get("wall_s", 0.0))
    daemon_doc = json.loads(report.read_text())
    out.update(requests=requests, service_overheads=overheads,
               peak_rss_mb=daemon_doc["peak_rss_mb"])
    return _finish_pass(cfg, out, *timed, dump=daemon_doc.get("trace"))


WORKLOADS = {
    "cold-verify": cold_verify,
    "hard-vcs": hard_vcs,
    "hard-vcs-full": hard_vcs,
    "replan-warm": replan_warm,
    "serve-warm": serve_warm,
}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    out = WORKLOADS[cfg["workload"]](cfg)
    out["hash_seed"] = os.environ.get("PYTHONHASHSEED")
    if "peak_rss_mb" not in out:
        out["peak_rss_mb"] = _rss_mb() + _rss_mb(resource.RUSAGE_CHILDREN)
    Path(cfg["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
