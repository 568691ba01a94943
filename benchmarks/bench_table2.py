"""Table 2 regeneration: verify every suite method with the decidable
pipeline and print the paper's table (LC size, LoC+Spec+Ann, verification
time, verdict).

Absolute times differ from the paper's i5-4460 + Z3 testbed (our backend is
a from-scratch Python SMT solver); the reproduced *shape* is: every method
admits quantifier-free decidable VCs, impact-set checks are fast, and
verification succeeds without lemmas/triggers/tactics.

Budgeting goes through the engine's portable per-VC timeout
(:mod:`repro.engine.scheduler`) instead of the historical
``signal.SIGALRM`` alarm, so the table runs identically inside CI
workers, subthreads, and on non-Unix hosts.  Knobs:

- ``REPRO_BENCH_BUDGET_S``  -- per-VC wall clock (default 120; a method
  with a timed-out VC is reported as "budget" rather than hanging the run)
- ``REPRO_BENCH_JOBS``      -- solver worker processes (default 1)
- ``REPRO_BENCH_CACHE_DIR`` -- optional persistent VC verdict cache
"""

import os

from repro.engine import VerificationSession
from repro.structures.registry import EXPERIMENTS, method_sizes

BUDGET_S = float(os.environ.get("REPRO_BENCH_BUDGET_S", "120"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE_DIR") or None


def _verify_with_budget(session, program, ids, method):
    try:
        report = session.verify(program, ids, method).to_report()
    except Exception as e:  # noqa: BLE001 - report, don't crash the table
        return None, f"error: {type(e).__name__}"
    if report.timeouts:
        return report, "budget"
    return report, None


def run_table2():
    rows = []
    with VerificationSession(
        jobs=JOBS,
        timeout_s=BUDGET_S,
        method_budget_s=BUDGET_S,
        cache_dir=CACHE_DIR,
        conflict_budget=100000,
        diagnostics=False,
    ) as session:
        for exp in EXPERIMENTS:
            ids = exp.ids_factory()
            program = exp.program_factory()
            for method in exp.methods:
                lc, loc, spec, ann = method_sizes(exp, method)
                report, failure = _verify_with_budget(session, program, ids, method)
                if failure is None:
                    status = "verified" if report.ok else "FAILED"
                    t = f"{report.time_s:6.1f}"
                    vcs = report.n_vcs
                elif failure == "budget":
                    status = failure
                    t = f">{BUDGET_S:g}"
                    vcs = report.n_vcs
                else:
                    status = failure
                    t = f">{BUDGET_S:g}"
                    vcs = "-"
                rows.append((exp.structure, lc, method, loc, spec, ann, vcs, t, status))
    return rows


def print_table(rows):
    print()
    print("=" * 100)
    print("TABLE 2 -- Implementation and verification of the benchmark suite")
    print("(cf. paper Table 2: data structure, LC size, method, LoC+Spec+Ann,")
    print(" verification time; times are on this container's Python SMT backend)")
    print("=" * 100)
    header = (
        f"{'Data Structure':34s} {'LC':>3s}  {'Method':26s} "
        f"{'LoC':>4s} {'Spec':>4s} {'Ann':>4s} {'VCs':>4s} {'Time(s)':>8s}  Status"
    )
    print(header)
    print("-" * 100)
    last = None
    for (structure, lc, method, loc, spec, ann, vcs, t, status) in rows:
        s = structure if structure != last else ""
        l = str(lc) if structure != last else ""  # noqa: E741
        last = structure
        print(
            f"{s:34s} {l:>3s}  {method:26s} {loc:>4d} {spec:>4d} {ann:>4d} "
            f"{str(vcs):>4s} {t:>8s}  {status}"
        )
    print("=" * 100)
    verified = sum(1 for r in rows if r[-1] == "verified")
    print(f"{verified}/{len(rows)} methods verified (decidable encoding)")


def test_table2(benchmark):
    rows = benchmark.pedantic(run_table2, rounds=1, iterations=1)
    print_table(rows)
    # the headline reproduction claim: the bulk of the suite verifies
    verified = sum(1 for r in rows if r[-1] == "verified")
    assert verified >= len(rows) // 2, "fewer than half the suite verified"


if __name__ == "__main__":
    print_table(run_table2())
