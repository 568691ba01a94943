"""Service-layer tests: the ``repro serve`` daemon end to end.

Unit coverage for the admission machinery (token buckets and the
bounded FIFO queue, both on an injected fake clock so nothing sleeps)
and the strict wire models, then HTTP integration against a real
:class:`~repro.service.server.ReproServer` on an ephemeral port:

- strict 400s for malformed bodies, unknown selections and backend pins;
- 429 ``queue_full`` shed at the door while the in-flight request is
  untouched (the handler is gated on an Event so the test controls
  exactly when the slot frees);
- 429 ``client_budget_exhausted`` with a ``Retry-After`` header once a
  client spends its solve-second budget, while other clients still run;
- streamed JSONL parity: the ``/v1/verify/stream`` lines round-trip
  through :meth:`VcEvent.from_json` into the same event sequence an
  in-process session produces, and the stream (summary line included)
  passes ``benchmarks/check_schema.py``;
- graceful drain mid-request: new work 503s, admitted work finishes;
- /metrics shape, and the acceptance criterion: two concurrent clients
  get verdicts identical to a sequential in-process run, the second
  served warm from the shared caches (hits visible in /metrics).
"""

import contextlib
import importlib.util
import json
import queue as _queue
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import cli
from repro.engine.events import VcEvent
from repro.engine.session import VerificationRequest, VerificationSession
from repro.service.models import ValidationError, VerifyRequest
from repro.service.queue import (
    AdmissionQueue,
    BudgetExhausted,
    Draining,
    QueueFull,
    QueueTimeout,
    TokenBucket,
)
from repro.service.server import ServeConfig, make_server
from repro.structures.registry import EXPERIMENTS

FAST_METHOD = "sll_find"
FAST_STRUCTURE = "Singly-Linked List"


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- token bucket -------------------------------------------------------------


def test_token_bucket_refills_continuously_up_to_capacity():
    clock = FakeClock()
    bucket = TokenBucket(capacity_s=10.0, refill_per_s=1.0, clock=clock)
    assert bucket.balance() == 10.0
    bucket.charge(7.0)
    assert bucket.balance() == pytest.approx(3.0)
    clock.advance(4.0)
    assert bucket.balance() == pytest.approx(7.0)
    clock.advance(1000.0)
    assert bucket.balance() == 10.0  # capped at capacity


def test_token_bucket_goes_negative_and_reports_retry_after():
    clock = FakeClock()
    bucket = TokenBucket(capacity_s=2.0, refill_per_s=0.5, clock=clock)
    bucket.charge(5.0)  # in-flight work is never cut off, balance goes negative
    assert bucket.balance() == pytest.approx(-3.0)
    assert bucket.retry_after_s() == pytest.approx(6.0)  # -(-3)/0.5
    clock.advance(6.0)
    assert bucket.retry_after_s() == 0.0
    assert bucket.balance() == pytest.approx(0.0, abs=1e-9)


# -- admission queue ----------------------------------------------------------


def test_queue_fast_path_admits_up_to_max_inflight():
    queue = AdmissionQueue(max_inflight=2, max_queue=0, clock=FakeClock())
    queue.admit("a")
    queue.admit("b")
    with pytest.raises(QueueFull):
        queue.admit("c")
    queue.release("a")
    queue.admit("c")  # the freed slot is available again
    snap = queue.snapshot()
    assert snap["inflight"] == 2
    assert snap["counters"]["rejected_queue_full"] == 1
    assert snap["counters"]["admitted"] == 3


def test_queue_slots_transfer_fifo_to_waiters():
    queue = AdmissionQueue(max_inflight=1, max_queue=4)
    queue.admit("holder")
    admitted = _queue.Queue()  # names in the order the slot reached them

    def wait_in_line(name):
        queue.admit(name)
        admitted.put(name)

    def enqueue(name, depth):
        threading.Thread(target=wait_in_line, args=(name,), daemon=True).start()
        deadline = time.time() + 5
        while queue.snapshot()["depth"] < depth and time.time() < deadline:
            time.sleep(0.01)
        assert queue.snapshot()["depth"] == depth

    enqueue("first", 1)  # "first" is in line before "second" arrives
    enqueue("second", 2)
    # One slot: each release admits exactly one waiter, and the next
    # release waits for that hand-off, so `order` is the hand-off order.
    queue.release("holder")
    order = [admitted.get(timeout=5)]
    queue.release(order[0])
    order.append(admitted.get(timeout=5))
    assert order == ["first", "second"]
    assert queue.snapshot()["inflight"] == 1  # "second" still holds its slot


def test_queue_wait_deadline_times_out():
    queue = AdmissionQueue(max_inflight=1, max_queue=4)
    queue.admit("holder")
    with pytest.raises(QueueTimeout):
        queue.admit("late", deadline_s=0.05)
    assert queue.snapshot()["counters"]["queue_timeouts"] == 1
    assert queue.snapshot()["depth"] == 0  # the timed-out ticket is removed


def test_queue_budget_gate_and_refill():
    clock = FakeClock()
    queue = AdmissionQueue(
        max_inflight=4, max_queue=0,
        client_budget_s=2.0, budget_window_s=20.0, clock=clock,
    )
    queue.admit("alice")
    queue.release("alice", charge_s=3.0)  # overdraws: balance = -1
    with pytest.raises(BudgetExhausted) as excinfo:
        queue.admit("alice")
    assert excinfo.value.retry_after_s == pytest.approx(10.0)  # 1 / (2/20)
    queue.admit("bob")  # budgets are per client
    clock.advance(11.0)
    queue.admit("alice")  # refilled past zero
    assert queue.snapshot()["counters"]["rejected_budget"] == 1
    assert queue.snapshot()["clients"]["alice"]["charged_s"] == pytest.approx(3.0)


def test_queue_draining_rejects_new_work_and_waits_idle():
    queue = AdmissionQueue(max_inflight=2, max_queue=4)
    queue.admit("a")
    queue.begin_drain()
    with pytest.raises(Draining):
        queue.admit("b")
    assert not queue.wait_idle(timeout_s=0.05)
    queue.release("a")
    assert queue.wait_idle(timeout_s=1.0)
    assert queue.snapshot()["counters"]["rejected_draining"] == 1


def test_queue_draining_rejection_carries_retry_after():
    queue = AdmissionQueue(max_inflight=1, drain_retry_after_s=12.5)
    queue.begin_drain()
    with pytest.raises(Draining) as exc:
        queue.admit("a")
    assert exc.value.retry_after_s == 12.5
    # Without the knob the rejection has no retry hint (no header sent).
    bare = AdmissionQueue(max_inflight=1)
    bare.begin_drain()
    with pytest.raises(Draining) as exc:
        bare.admit("a")
    assert exc.value.retry_after_s is None


# -- wire models --------------------------------------------------------------


@pytest.mark.parametrize(
    "body",
    [
        [],  # not an object
        {},  # empty selection
        {"methdos": ["sll_find"]},  # unknown key (the motivating typo)
        {"methods": "sll_find"},  # not a list
        {"methods": [1]},  # not strings
        {"all": "yes"},  # bool field with wrong type
        {"methods": ["sll_find"], "timeout_s": 0},  # non-positive budget
        {"methods": ["sll_find"], "timeout_s": True},  # bool is not a number
        {"structure": ""},  # empty string selector
    ],
)
def test_request_validation_rejects(body):
    with pytest.raises(ValidationError):
        VerifyRequest.from_json(body)


def test_request_roundtrip_and_error_envelope():
    doc = {"structure": FAST_STRUCTURE, "methods": [FAST_METHOD],
           "timeout_s": 2.5, "client": "c1"}
    request = VerifyRequest.from_json(doc)
    assert VerifyRequest.from_json(request.to_json()) == request
    envelope = ValidationError("nope").to_json()
    assert envelope["schema_version"] == 1
    assert envelope["error"]["code"] == "invalid_request"
    assert "retry_after_s" not in envelope["error"]


# -- HTTP integration ---------------------------------------------------------


@contextlib.contextmanager
def serving(session=None, **overrides):
    own_session = session is None
    if own_session:
        session = VerificationSession(jobs=1, diagnostics=False)
    config = ServeConfig(port=0, quiet=True, **overrides)
    server = make_server(session, config)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base, server, session
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        if own_session:
            session.close()


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return response.status, json.loads(response.read()), dict(response.headers)


def _post(base, path, doc, headers=None, raw=None):
    data = raw if raw is not None else json.dumps(doc).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=data, method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


def _load_check_schema():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "check_schema.py"
    spec = importlib.util.spec_from_file_location("check_schema", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gated_safe_verify(monkeypatch):
    """Patch cli._safe_verify so the test controls when in-flight work
    finishes: returns (entered, gate) Events."""
    entered, gate = threading.Event(), threading.Event()
    real = cli._safe_verify

    def gated(session, exp, method, **kwargs):
        entered.set()
        assert gate.wait(30), "test never opened the verify gate"
        return real(session, exp, method, **kwargs)

    monkeypatch.setattr(cli, "_safe_verify", gated)
    return entered, gate


def test_healthz_registry_schema_and_404():
    with serving() as (base, _server, session):
        status, doc, _ = _get(base, "/healthz")
        assert status == 200 and doc["status"] == "ok"
        assert doc["backend"] == session.backend_spec

        status, doc, _ = _get(base, "/v1/registry")
        assert status == 200
        assert doc["n_methods"] == sum(len(e.methods) for e in EXPERIMENTS)
        assert doc["serving_backend"] == session.backend_spec

        status, doc, _ = _get(base, "/v1/schema")
        assert status == 200
        assert "POST /v1/verify" in doc["endpoints"]
        assert doc["error_codes"]["queue_full"] == 429

        try:
            urllib.request.urlopen(base + "/nope", timeout=10)
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as error:
            assert error.code == 404
            assert json.loads(error.read())["error"]["code"] == "not_found"


def test_http_400s_are_typed_envelopes():
    with serving() as (base, server, _session):
        cases = [
            (b"{not json", "invalid_request"),
            (json.dumps({"methdos": ["x"]}).encode(), "invalid_request"),
            (json.dumps({"methods": ["no_such_method"]}).encode(),
             "unknown_selection"),
            (json.dumps({"methods": [FAST_METHOD],
                         "backend": "smtlib2:z3"}).encode(),
             "backend_unsupported"),
        ]
        for raw, code in cases:
            status, body, _ = _post(base, "/v1/verify", None, raw=raw)
            envelope = json.loads(body)
            assert status == 400, (raw, envelope)
            assert envelope["error"]["code"] == code
        assert server.metrics.snapshot()["http"]["validation_errors"] == len(cases)


def test_blocking_verify_document_validates_and_counts(tmp_path):
    checker = _load_check_schema()
    with serving() as (base, server, _session):
        status, body, _ = _post(
            base, "/v1/verify", {"methods": [FAST_METHOD]},
            headers={"X-Client-Id": "tester"},
        )
        assert status == 200
        doc = json.loads(body)
        assert doc["schema_version"] == 8 and doc["command"] == "verify"
        assert doc["n_methods"] == 1 and doc["n_verified"] == 1
        assert doc["service"] == {"schema_version": 1, "client": "tester"}
        errs = checker.SchemaErrors()
        checker.check_report(doc, errs)
        assert errs.problems == []
        metrics = server.metrics.snapshot()
        assert metrics["http"]["responses"] == 1
        assert metrics["methods"]["verified"] == 1


def test_queue_full_429_leaves_inflight_untouched(monkeypatch):
    entered, gate = _gated_safe_verify(monkeypatch)
    with serving(max_inflight=1, max_queue=0) as (base, server, _session):
        inflight = {}

        def occupant():
            inflight["response"] = _post(
                base, "/v1/verify", {"methods": [FAST_METHOD]},
                headers={"X-Client-Id": "occupant"},
            )

        thread = threading.Thread(target=occupant)
        thread.start()
        assert entered.wait(30)  # the occupant holds the only slot mid-verify

        status, body, _ = _post(base, "/v1/verify", {"methods": [FAST_METHOD]},
                                headers={"X-Client-Id": "shed"})
        envelope = json.loads(body)
        assert status == 429
        assert envelope["error"]["code"] == "queue_full"
        assert server.queue.snapshot()["inflight"] == 1  # occupant undisturbed

        gate.set()
        thread.join(timeout=60)
        status, body, _ = inflight["response"]
        assert status == 200
        assert json.loads(body)["n_verified"] == 1
        counters = server.queue.snapshot()["counters"]
        assert counters["rejected_queue_full"] == 1
        assert counters["completed"] == 1


def test_client_budget_exhaustion_429_with_retry_after():
    with serving(client_budget_s=0.001, budget_window_s=3600.0) as (
        base, _server, _session,
    ):
        status, body, _ = _post(base, "/v1/verify", {"methods": [FAST_METHOD]},
                                headers={"X-Client-Id": "alice"})
        assert status == 200  # a fresh bucket admits its first request

        status, body, headers = _post(
            base, "/v1/verify", {"methods": [FAST_METHOD]},
            headers={"X-Client-Id": "alice"},
        )
        envelope = json.loads(body)
        assert status == 429
        assert envelope["error"]["code"] == "client_budget_exhausted"
        assert envelope["error"]["retry_after_s"] > 0
        assert int(headers["Retry-After"]) >= 1

        status, _body, _ = _post(base, "/v1/verify", {"methods": [FAST_METHOD]},
                                 headers={"X-Client-Id": "bob"})
        assert status == 200  # budgets are per client, bob is unaffected


def test_stream_matches_in_process_events_and_schema():
    with serving() as (base, _server, _session):
        status, body, headers = _post(base, "/v1/verify/stream",
                                      {"methods": [FAST_METHOD]})
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
    lines = [json.loads(line) for line in body.decode().splitlines() if line]
    assert lines[-1]["kind"] == "summary"
    streamed = [VcEvent.from_json(doc) for doc in lines[:-1]]

    exp = next(e for e in EXPERIMENTS if e.structure == FAST_STRUCTURE)
    with VerificationSession(jobs=1, diagnostics=False) as session:
        run = session.submit(
            VerificationRequest(exp.program_factory(), exp.ids_factory(), FAST_METHOD)
        )
        local = list(run)

    def shape(events):
        return [(e.kind, e.index, e.label, e.verdict, e.stage) for e in events]

    assert shape(streamed) == shape(local)
    # Round-trip law: from_json(to_json) is the identity on the wire form.
    assert [e.to_json() for e in streamed] == lines[:-1]

    checker = _load_check_schema()
    errs = checker.SchemaErrors()
    checker.check_events_jsonl(body.decode().splitlines(), errs)
    assert errs.problems == []


def test_graceful_drain_finishes_inflight_rejects_new(monkeypatch):
    entered, gate = _gated_safe_verify(monkeypatch)
    with serving(drain_timeout_s=30.0) as (base, server, _session):
        inflight = {}

        def occupant():
            inflight["response"] = _post(base, "/v1/verify",
                                         {"methods": [FAST_METHOD]})

        thread = threading.Thread(target=occupant)
        thread.start()
        assert entered.wait(30)

        server.begin_drain()  # what SIGTERM/SIGINT trigger
        status, body, _ = _post(base, "/v1/verify", {"methods": [FAST_METHOD]})
        assert status == 503
        assert json.loads(body)["error"]["code"] == "draining"

        gate.set()
        thread.join(timeout=60)
        status, body, _ = inflight["response"]
        assert status == 200  # the admitted request ran to completion
        assert json.loads(body)["n_verified"] == 1
        deadline = time.time() + 10
        while not server.drained_clean and time.time() < deadline:
            time.sleep(0.02)
        assert server.drained_clean


def test_draining_503_carries_retry_after_and_healthz_reports(monkeypatch):
    """The drain rejection tells clients when to come back: the 503
    envelope carries retry_after_s (= the drain window) plus a
    Retry-After header, and /healthz flips to "draining" while the
    admitted work finishes."""
    entered, gate = _gated_safe_verify(monkeypatch)
    with serving(drain_timeout_s=45.0) as (base, server, _session):
        inflight = {}

        def occupant():
            inflight["response"] = _post(base, "/v1/verify",
                                         {"methods": [FAST_METHOD]})

        thread = threading.Thread(target=occupant)
        thread.start()
        assert entered.wait(30)
        server.begin_drain()

        status, doc, _ = _get(base, "/healthz")
        assert status == 200 and doc["status"] == "draining"

        status, body, headers = _post(base, "/v1/verify",
                                      {"methods": [FAST_METHOD]})
        assert status == 503
        envelope = json.loads(body)
        assert envelope["error"]["code"] == "draining"
        assert envelope["error"]["retry_after_s"] == 45.0
        assert headers["Retry-After"] == "45"

        gate.set()
        thread.join(timeout=60)
        status, _body, _ = inflight["response"]
        assert status == 200  # the admitted request still completed


def test_handler_fault_site_yields_internal_error_envelope():
    from repro.engine import faults

    with serving() as (base, _server, _session):
        faults.install("handler")
        try:
            status, body, _ = _post(base, "/v1/verify",
                                    {"methods": [FAST_METHOD]})
        finally:
            faults.clear()
        assert status == 500
        envelope = json.loads(body)
        assert envelope["error"]["code"] == "internal_error"
        assert "injected fault: handler" in envelope["error"]["message"]
        # With the plan cleared the same request is served normally.
        status, body, _ = _post(base, "/v1/verify", {"methods": [FAST_METHOD]})
        assert status == 200 and json.loads(body)["n_verified"] == 1


def test_metrics_shape(tmp_path):
    session = VerificationSession(jobs=1, cache_dir=str(tmp_path),
                                  diagnostics=False)
    try:
        with serving(session=session) as (base, _server, _session):
            _post(base, "/v1/verify", {"methods": [FAST_METHOD]})
            status, doc, _ = _get(base, "/metrics")
    finally:
        session.close()
    assert status == 200
    assert doc["schema_version"] == 1
    assert doc["service"]["backend"] == "intree"
    assert doc["service"]["draining"] is False
    queue = doc["queue"]
    assert queue["counters"]["admitted"] == 1
    assert queue["inflight"] == 0 and queue["depth"] == 0
    assert set(queue["budgets"]) == {"enabled", "client_budget_s",
                                     "budget_window_s"}
    assert doc["cache"]["enabled"] is True
    assert "vc" in doc["cache"]["tiers"]
    assert doc["http"]["responses"] == 1
    assert doc["methods"]["verified"] == 1
    assert doc["solve_seconds_by_backend"].keys() == {"intree"}


def test_concurrent_clients_identical_verdicts_second_served_warm(tmp_path):
    """The acceptance criterion: two clients hitting the daemon
    concurrently both get verdicts identical to a sequential in-process
    run, with the later request served warm from the shared caches."""
    exp = next(e for e in EXPERIMENTS if e.structure == FAST_STRUCTURE)
    with VerificationSession(jobs=1, diagnostics=False) as reference_session:
        reference = reference_session.verify(
            exp.program_factory(), exp.ids_factory(), FAST_METHOD
        )

    session = VerificationSession(jobs=1, cache_dir=str(tmp_path),
                                  diagnostics=False)
    try:
        with serving(session=session, max_inflight=2) as (base, _server, _s):
            responses = {}
            barrier = threading.Barrier(2)

            def client(name):
                barrier.wait(timeout=10)
                responses[name] = _post(
                    base, "/v1/verify", {"methods": [FAST_METHOD]},
                    headers={"X-Client-Id": name},
                )

            threads = [threading.Thread(target=client, args=(name,))
                       for name in ("c1", "c2")]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            status, doc, _ = _get(base, "/metrics")
    finally:
        session.close()

    rows = {}
    for name in ("c1", "c2"):
        http_status, body, _ = responses[name]
        assert http_status == 200, body
        doc_n = json.loads(body)
        (row,) = doc_n["results"]
        assert row["status"] == "verified" and row["ok"] is True
        assert row["n_vcs"] == reference.n_vcs
        assert row["failed"] == list(reference.failed)
        rows[name] = row
    # The later request (the session lock decides which one that is) was
    # served warm: every VC replayed from the shared verdict cache
    # (same-session entries, so the events are labeled dedup) and nothing
    # was re-solved.
    warm = max(rows.values(), key=lambda r: r["cache_hits"])
    assert warm["cache_hits"] == reference.n_vcs
    assert warm["events"].get("solved", 0) == 0
    assert doc["cache"]["tiers"]["vc"]["hits"] > 0  # the warm serve, in /metrics
