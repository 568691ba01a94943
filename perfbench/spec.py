"""What each workload runs.  Shared by the build, the pass workers and
the report.  The workload seed only orders these lists (and the
``serve-warm`` request sequence) and derives each pass's PYTHONHASHSEED."""

from __future__ import annotations

import hashlib
import random
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected_verdicts.json"

#: Cold, first-run verification at jobs=1.  ``sll_insert_back``,
#: ``sll_copy_all`` and ``rbt_insert`` (~40 s of solving together) are
#: left out so a pass fits the run length; ``replan-warm`` still plans
#: them and ``serve-warm`` still serves them.  ``circ_delete_back`` is
#: left out because its planned VCs change with PYTHONHASHSEED (7-10 s
#: cold depending on the hash seed); ``hard-vcs`` solves its refuted VC
#: and the stability counts report its instability.
COLD_VERIFY = [
    "sll_find",
    "sorted_find",
    "sortedmm_find_last",
    "bst_find",
    "avl_find_min",
    "sched_find",
    "treap_find",
    "rbt_find_min",
    "sll_insert_front",
    "sll_insert",
]
COLD_BUDGET_S = 60.0

#: Re-planning after a planner upgrade: VC tier warm, plan tier empty.
#: ``sll_reverse`` is left out: its planned VC text depends on
#: PYTHONHASHSEED (34 of its VC keys miss a tier warmed under another
#: hash seed, ~25 s of solving), which ``core.plan.seed_unstable`` counts.
REPLAN_WARM = [
    "sll_append",
    "sll_insert_back",
    "sll_copy_all",
    "sll_insert",
    "rbt_insert",
    "bst_find",
    "treap_find",
]

#: The daemon's warm path: the methods requests ask for (the cold methods
#: above plus the three left out of a cold pass).  A pass asks for each
#: one SERVE_ROUNDS times, in an order drawn from the workload seed, in
#: segments of SERVE_SEGMENT requests with a machine-speed probe between
#: segments (no request is in flight while the probe runs).
SERVE_WARM = [
    "sll_find",
    "sorted_find",
    "sortedmm_find_last",
    "bst_find",
    "avl_find_min",
    "sched_find",
    "treap_find",
    "rbt_find_min",
    "sll_insert_front",
    "sll_insert",
    "sll_insert_back",
    "sll_copy_all",
    "rbt_insert",
]
SERVE_CLIENTS = 2
SERVE_ROUNDS = 8  # 104 requests per pass
SERVE_SEGMENT = 8

#: The solver stress tier: (method, VC index, label) at a fixed conflict
#: budget, planned once per build and checked label by label in set-up.
#: At this budget the seed runs out of budget on sorted_insert #85,
#: proves the bst_insert and avl_insert VCs (avl_insert #113 with zero
#: conflicts: preprocessing only) and refutes circ_delete_back #87.
HARD_BUDGET = 100
HARD_VCS = [
    ("sorted_insert", 85, "assert LC(EVar(name='tmp')) [Br]"),
    ("bst_insert", 99, "assert LC(EVar(name='x')) [Br]"),
    ("avl_insert", 113, "store to x.min within modifies"),
    ("avl_insert", 50, "assert LC(EVar(name='tmp')) [Br]"),
    ("circ_delete_back", 87, "assert LC(EVar(name='x')) [Br]"),
]
#: The stress tier at full size (``--workload hard-vcs-full``, ~8 min a
#: pass, too long for a timed run): the slowest VCs of these methods at
#: budget 300, including the three that come back sat at the seed.
HARD_FULL_BUDGET = 300
HARD_FULL_VCS = [
    ("sorted_insert", 76, "assert LC(EVar(name='y')) [Br]"),
    ("sorted_insert", 77, "assert LC(EVar(name='y')) [Br]"),
    ("sorted_insert", 80, "store to tmp.prev within modifies"),
    ("sorted_insert", 84, "assert LC(EVar(name='tmp')) [Br]"),
    ("sorted_insert", 118, "assert LC(EVar(name='x')) [Br]"),
    ("sorted_insert", 139, "ensures: r.keys == EUnion (path 2)"),
    ("bst_insert", 60, "assert LC(EVar(name='x')) [Br]"),
    ("bst_insert", 119, "assert LC(EVar(name='x')) [Br]"),
    ("avl_insert", 41, "store to x.l within modifies"),
    ("avl_insert", 43, "assert LC(EVar(name='y')) [Br]"),
    ("avl_insert", 49, "store to tmp.p within modifies"),
    ("avl_insert", 51, "assert LC(EVar(name='tmp')) [Br]"),
    ("avl_insert", 88, "assert LC(EVar(name='y')) [Br]"),
]
HARD_CORPORA = {
    "hard-vcs": (HARD_BUDGET, HARD_VCS),
    "hard-vcs-full": (HARD_FULL_BUDGET, HARD_FULL_VCS),
}
HARD_METHODS = sorted({m for m, _ix, _label in HARD_VCS + HARD_FULL_VCS})

#: Methods whose VC verdicts the build caches for the warm workloads.
WARM_METHODS = sorted(set(REPLAN_WARM) | set(SERVE_WARM))

#: The hash-seed stability counts cover every workload method, and the
#: two methods left out of a pass for that reason.
WORKLOAD_METHODS = sorted(
    set(COLD_VERIFY) | set(REPLAN_WARM) | set(SERVE_WARM) | set(HARD_METHODS)
    | {"circ_delete_back", "sll_reverse"}
)

#: The two fixed hash seeds the build compares plans under.
STABILITY_HASH_SEEDS = (1, 2)

#: The machine-speed probe.  On a shared host the same pass runs up to
#: twice as slow while a neighbour is busy; that state flips within a
#: second on each CPU and drifts over minutes.  A pass therefore runs
#: this fixed interpreter-bound loop after set-up and between operations,
#: while nothing of the program runs, and reports its times scaled by
#: PROBE_REF_S / (mean probe of the pass): seconds on a machine where one
#: repetition of the loop takes PROBE_REF_S.  The raw times are reported
#: too.
PROBE_ITERATIONS = 16000
PROBE_REPS = 3
PROBE_REF_S = 0.010


def _probe_loop(n: int) -> int:
    # Ints and tuples of ints only: their hashes, and so this loop's
    # work, do not depend on PYTHONHASHSEED.
    table, ring, acc = {}, [], 0
    for i in range(n):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + 1
        ring.append(key)
        if len(ring) > 32:
            acc ^= hash(ring.pop(0))
    return acc + len(table)


def probe_s() -> float:
    """Mean seconds of one repetition of the probe loop, measured now."""
    started = time.perf_counter()
    for _ in range(PROBE_REPS):
        _probe_loop(PROBE_ITERATIONS)
    return (time.perf_counter() - started) / PROBE_REPS


def hash_seed(seed: int, pass_index: int) -> int:
    """PYTHONHASHSEED for a pass: derived from the workload seed only.
    Passes come in pairs that share one value, so each pair repeats the
    same program exactly."""
    digest = hashlib.sha256(f"{seed}:{pass_index // 2}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 4294967295 + 1


def ordered(methods, seed: int, salt: str) -> list:
    out = list(methods)
    random.Random(f"{salt}:{seed}").shuffle(out)
    return out
