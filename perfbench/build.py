"""One-time build of the benchmark's inputs, once per source tree.

The build is what a checkout pays before its first run, like a compile:

- ``probe``: plans every workload method under a fixed PYTHONHASHSEED
  and records each method's ``plan_key`` and a digest of its planned VC
  text.  Two probes under two different hash seeds give the hash-seed
  stability counts.  The first probe also stores the ``hard-vcs`` and
  ``hard-vcs-full`` corpora (just the corpus VCs) in a plan cache.
- ``warm``: verifies the warm workloads' methods once into a cache dir.
  Every ``replan-warm`` pass starts from a copy of its verdict tier,
  every ``serve-warm`` pass from a copy of both tiers, less the plans of
  the methods whose ``plan_key`` depends on the hash seed.

Outputs live under ``.bench_build/perfbench/<source digest>/`` and are
rebuilt whenever a file under ``src/``, ``spec.py`` or this file changes.

Usage (normally invoked by ``run.py``)::

    python3 perfbench/build.py            # build if missing, print the dir
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spec  # noqa: E402

BUILD_ROOT = spec.ROOT / ".bench_build" / "perfbench"


def source_digest() -> str:
    """Digest of everything the build's outputs depend on."""
    digest = hashlib.sha256()
    paths = sorted(spec.SRC.rglob("*.py")) + [spec.HERE / "spec.py", Path(__file__).resolve()]
    for path in paths:
        digest.update(str(path.relative_to(spec.ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def _registry():
    from repro.structures.registry import all_methods

    return {m: exp for exp, m in all_methods()}


def probe(out: Path, corpus: Optional[Path] = None) -> None:
    """Plan every workload method; record plan keys and VC-text digests."""
    from repro.core.verifier import MethodPlan, Verifier
    from repro.engine.cache import formula_text
    from repro.engine.plancache import PlanCache, plan_key

    registry = _registry()
    wanted = {}
    for method, index, label in spec.HARD_VCS + spec.HARD_FULL_VCS:
        wanted.setdefault(method, {})[index] = label
    doc = {}
    store = PlanCache(corpus) if corpus is not None else None
    for method in spec.WORKLOAD_METHODS:
        exp = registry[method]
        program, ids = exp.program_factory(), exp.ids_factory()
        verifier = Verifier(program, ids)
        plan = verifier.plan(method)
        text = hashlib.sha256()
        for failure in plan.wb_failures + plan.ghost_failures:
            text.update(failure.encode() + b"\0")
        for pvc in plan.vcs:
            body = formula_text(pvc.formula) if pvc.formula is not None else pvc.failure
            text.update(f"{pvc.index}|{pvc.label}|{body}\0".encode())
        doc[method] = {
            "plan_key": plan_key(
                program, ids, method,
                encoding=verifier.encoding,
                memory_safety=verifier.memory_safety,
                simplify=verifier.simplify,
                instantiation_rounds=verifier.instantiation_rounds,
            ),
            "vc_text": text.hexdigest(),
        }
        if store is not None and method in wanted:
            picked = [pvc for pvc in plan.vcs if pvc.index in wanted[method]]
            for pvc in picked:
                if pvc.label != wanted[method][pvc.index]:
                    raise SystemExit(
                        f"hard-vcs corpus: {method} #{pvc.index} is "
                        f"{pvc.label!r}, expected {wanted[method][pvc.index]!r}"
                    )
            store.put(
                f"hard-vcs-{method}",
                MethodPlan(
                    structure=plan.structure, method=method,
                    encoding=plan.encoding, conflict_budget=None,
                    wb_failures=[], ghost_failures=[], vcs=picked,
                    lint=[], simplify=plan.simplify,
                ),
            )
    out.write_text(json.dumps(doc, indent=1, sort_keys=True))


def warm(cache: Path) -> None:
    """Verify every warm-workload method once into ``cache``."""
    from repro.engine import VerificationSession

    registry = _registry()
    with VerificationSession(jobs=2, cache_dir=str(cache), journal=False,
                             diagnostics=False) as session:
        for method in spec.WARM_METHODS:
            exp = registry[method]
            session.verify(exp.program_factory(), exp.ids_factory(), method)


def _run(args, hash_seed: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *args],
        env=dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(spec.SRC)),
        cwd=str(spec.ROOT), stdout=sys.stderr,
    )


def _wait_all(procs) -> None:
    failed = [p.args for p in procs if p.wait() != 0]
    if failed:
        raise RuntimeError(f"build step failed: {failed}")


def _build(target: Path) -> None:
    tmp = target.with_name(target.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    started = time.perf_counter()
    a, b = spec.STABILITY_HASH_SEEDS
    probes = [
        _run(["probe", str(tmp / f"probe-{a}.json"), str(tmp / "corpus")], a),
        _run(["probe", str(tmp / f"probe-{b}.json")], b),
    ]
    _wait_all(probes)
    _wait_all([_run(["warm", str(tmp / "vc")], a)])
    pa = json.loads((tmp / f"probe-{a}.json").read_text())
    pb = json.loads((tmp / f"probe-{b}.json").read_text())
    manifest = {
        "hash_seeds": [a, b],
        "plan_key_unstable": sorted(m for m in pa if pa[m]["plan_key"] != pb[m]["plan_key"]),
        "vc_text_unstable": sorted(m for m in pa if pa[m]["vc_text"] != pb[m]["vc_text"]),
        "build_s": time.perf_counter() - started,
    }
    # Drop the warm plans of the methods whose plan_key depends on
    # PYTHONHASHSEED.  A serve-warm pass under another hash seed would
    # miss some of them, so its set-up time would depend on the hash seed;
    # without them every pass plans the same methods in set-up.
    for method in manifest["plan_key_unstable"]:
        key = pa[method]["plan_key"]
        (tmp / "vc" / "plan" / key[:2] / f"{key}.json").unlink(missing_ok=True)
    (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1))
    os.replace(tmp, target)


def ensure_built() -> Path:
    """The build dir for the current sources, building it if missing."""
    BUILD_ROOT.mkdir(parents=True, exist_ok=True)
    target = BUILD_ROOT / source_digest()
    with open(BUILD_ROOT / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (target / "manifest.json").exists():
            for stale in BUILD_ROOT.iterdir():
                if stale.is_dir() and stale.name not in ("runs", "traces"):
                    shutil.rmtree(stale, ignore_errors=True)
            print(f"perfbench: building {target} (once per source tree)",
                  file=sys.stderr, flush=True)
            _build(target)
    return target


def main(argv) -> int:
    if argv and argv[0] == "probe":
        probe(Path(argv[1]), Path(argv[2]) if len(argv) > 2 else None)
    elif argv and argv[0] == "warm":
        warm(Path(argv[1]))
    else:
        print(ensure_built())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
