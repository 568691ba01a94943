"""RQ3 (Section 5.3 scatter plot): decidable (Boogie-style) vs quantified
(Dafny-style) verification time on the same methods.

The quantified mode models allocation closure and heap change across calls
with ``forall`` axioms and grounds them with a bounded instantiation engine
(the E-matching role); the decidable mode uses ground closure facts and
pointwise map updates.  The paper's claim is the *shape*: the quantified
encoding is consistently slower (and can fail to instantiate), while the
decidable encoding is fast and predictable.

Budgeting goes through the engine's portable per-method deadline
(``REPRO_RQ3_BUDGET_S``, default 240) instead of ``signal.SIGALRM``, so
the benchmark behaves the same inside CI workers and on non-Unix hosts.
A representative subset keeps the benchmark's wall clock sane.
"""

import os
import time

from repro.engine import VerificationSession
from repro.structures.registry import EXPERIMENTS

DEFAULT_METHODS = [
    ("Singly-Linked List", "sll_find"),
    ("Singly-Linked List", "sll_insert_front"),
    ("Sorted List", "sorted_find"),
    ("Binary Search Tree", "bst_find"),
    ("Treap", "treap_find"),
    ("AVL Tree", "avl_find_min"),
    ("Red-Black Tree", "rbt_find_min"),
    ("Scheduler Queue (overlaid SLL+BST)", "sched_find"),
]

BUDGET_S = float(os.environ.get("REPRO_RQ3_BUDGET_S", "240"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def _run(program, ids, method, encoding):
    session = VerificationSession(
        jobs=JOBS,
        encoding=encoding,
        conflict_budget=100000,
        timeout_s=BUDGET_S,
        method_budget_s=BUDGET_S,
        diagnostics=False,
    )
    start = time.perf_counter()
    try:
        with session:
            report = session.verify(program, ids, method).to_report()
        if report.timeouts:
            return float(BUDGET_S), False, len(report.notes)
        return time.perf_counter() - start, report.ok, len(report.notes)
    except Exception:  # noqa: BLE001
        return time.perf_counter() - start, False, 0


def run_scatter():
    chosen = DEFAULT_METHODS
    byname = {e.structure: e for e in EXPERIMENTS}
    points = []
    for structure, method in chosen:
        exp = byname[structure]
        ids = exp.ids_factory()
        program = exp.program_factory()
        t_dec, ok_dec, _ = _run(program, ids, method, "decidable")
        t_quant, ok_quant, _ = _run(program, ids, method, "quantified")
        points.append((method, t_dec, ok_dec, t_quant, ok_quant))
    return points


def print_scatter(points):
    print()
    print("=" * 78)
    print("RQ3 -- decidable (Boogie-style) vs quantified (Dafny-style) encodings")
    print("(the paper's scatter plot, printed as series; shape: quantified slower)")
    print("=" * 78)
    print(f"{'method':26s} {'decidable(s)':>12s} {'ok':>3s} {'quantified(s)':>13s} {'ok':>3s} {'slowdown':>9s}")
    print("-" * 78)
    slowdowns = []
    for method, t_dec, ok_dec, t_quant, ok_quant in points:
        slow = t_quant / t_dec if t_dec > 0 else float("inf")
        slowdowns.append(slow)
        print(
            f"{method:26s} {t_dec:12.2f} {str(ok_dec)[0]:>3s} {t_quant:13.2f} "
            f"{str(ok_quant)[0]:>3s} {slow:8.1f}x"
        )
    print("-" * 78)
    import math

    geo = math.exp(sum(math.log(max(s, 1e-9)) for s in slowdowns) / len(slowdowns))
    print(f"geometric-mean slowdown of the quantified encoding: {geo:.1f}x")
    print("=" * 78)


def test_rq3_scatter(benchmark):
    points = benchmark.pedantic(run_scatter, rounds=1, iterations=1)
    print_scatter(points)
    # the reproduced claim: quantified encoding is slower on the clear majority
    slower = sum(1 for (_, td, _, tq, _) in points if tq > td)
    assert slower >= len(points) * 0.6


if __name__ == "__main__":
    print_scatter(run_scatter())
