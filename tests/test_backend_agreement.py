"""Backend agreement: the in-tree solver vs. an external SMT-LIB2 solver.

Runs the ``crosscheck`` backend (both solvers on every VC, verdicts must
agree) over a few fast registry methods.  A genuine intree-vs-reference
disagreement -- the soundness alarm the paper's predictability claim
rules out -- fails the build.

Skips cleanly when no external solver binary is installed (the runtime
is stdlib-only; nothing is auto-installed), and when the installed
binary cannot parse the printed theory combination (e.g. a solver
without native finite-set support): those are availability problems,
not verdict disagreements.
"""

import os
import shutil

import pytest

from repro.engine import VerificationSession
from repro.structures.registry import EXPERIMENTS

METHODS = [
    ("Singly-Linked List", "sll_find"),
    ("Sorted List", "sorted_find"),
    ("Scheduler Queue (overlaid SLL+BST)", "sched_find"),
]

_SOLVER = os.environ.get("REPRO_SMT2_SOLVER", "z3")


def _experiment(structure):
    return next(e for e in EXPERIMENTS if e.structure == structure)


@pytest.mark.skipif(
    shutil.which(_SOLVER) is None,
    reason=f"no external SMT-LIB2 solver '{_SOLVER}' on PATH "
    "(set REPRO_SMT2_SOLVER to point at one)",
)
@pytest.mark.parametrize("structure,method", METHODS)
def test_crosscheck_backend_agrees_on_fast_methods(structure, method):
    exp = _experiment(structure)
    with VerificationSession(
        jobs=1, backend="crosscheck:intree,smtlib2", diagnostics=False
    ) as session:
        report = session.verify(
            exp.program_factory(), exp.ids_factory(), method
        ).to_report()
    if report.ok:
        return
    # Classify the failures: a verdict disagreement must fail loudly;
    # an external solver that errored/answered unknown is an
    # environment limitation and skips.
    disagreements = [f for f in report.failed if " says " in f]
    assert not disagreements, f"backend verdict mismatch: {disagreements}"
    external_noise = [f for f in report.failed if "external solver" in f]
    if external_noise:
        pytest.skip(
            f"external solver '{_SOLVER}' could not process the queries: "
            f"{external_noise[0][:200]}"
        )
    pytest.fail(f"crosscheck run failed unexpectedly: {report.failed}")
