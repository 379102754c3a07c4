"""serve_read: the production read path, HTTP request to JSON response.

``repro serve`` runs as a child process, so the client's JSON work does
not share the server's interpreter lock.  A bibliography and a
``nested_sections`` report are loaded through ``POST /documents``; one
:class:`~repro.server.client.ServiceClient` connection runs a closed
loop, round-robin over prepared queries for the read mix (Q1-Q7 and the
multibox query).  The working set is 12 plans against the plan cache's
128 entries.  One connection, not two: on a 2-core host two connections
keep the client and the server's interpreter busy at once, and the
figures then follow the scheduler more than the program.

Every HTTP ``result`` must match an in-process reference byte for byte;
the reference itself is cross-checked against ``engine="naive"`` on
reduced-size documents.  The traced run measures the server from the
client side and takes the in-process layers from a replay of the same
request sequence.
"""

from __future__ import annotations

import gc
import os
import select
import subprocess
import sys
import threading
import time
from typing import Any, Optional

from repro.engine.cache import DocumentIndexCache
from repro.engine.plan_cache import PlanCache
from repro.server.client import ServiceClient, ServiceError
from repro.session import ExecOptions, QuerySession
from repro.ssd import parse_document, serialize

from . import catalog, harness, spans
from .harness import Op, Outcome

SIZES = {
    "bib_entries": 700,
    "sections_depth": 11,
    "naive_bib_entries": 60,
    "naive_sections_depth": 5,
    "clients": 1,
    "setups": 6,
    "schedule_ops": 20000,
    "replay_ops": 180,
}

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_STARTUP_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve`` child process with its documents loaded."""

    def __init__(self, documents: dict[str, str], reads: list[catalog.ReadOp]) -> None:
        env = dict(os.environ)
        sources = os.path.join(_ROOT, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [sources, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [sources]
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=_ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.port = self._await_port()
            self.digests: dict[str, str] = {}
            with ServiceClient(port=self.port) as admin:
                for name, xml in documents.items():
                    admin.add_document(name, xml)
                for op in reads:
                    if op.template not in self.digests:
                        self.digests[op.template] = admin.prepare(op.template)["digest"]
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        stdout = self.process.stdout
        assert stdout is not None
        ready, _, _ = select.select([stdout], [], [], _STARTUP_TIMEOUT_S)
        line = stdout.readline() if ready else ""
        if "listening on" not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        return int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])

    def query(self, client: ServiceClient, op: catalog.ReadOp) -> dict[str, Any]:
        return client.query(
            prepared=self.digests[op.template],
            params=dict(op.params),
            document=op.document,
        )

    def stop(self) -> None:
        """Shut down cleanly, or kill; always wait for the process to end."""
        if self.process.poll() is None:
            try:
                if getattr(self, "port", None):
                    with ServiceClient(port=self.port, timeout=10) as admin:
                        admin.shutdown()
                self.process.wait(timeout=30)
            except (OSError, ServiceError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait(timeout=30)
        if self.process.stdout is not None:
            self.process.stdout.close()


def _start(
    documents: dict[str, str], reads: list[catalog.ReadOp], clients: int
) -> Server:
    """Start, load, prepare and warm every distinct read on every connection."""
    server = Server(documents, reads)
    try:
        for _ in range(clients):
            with ServiceClient(port=server.port) as client:
                for op in catalog.distinct_reads(reads).values():
                    server.query(client, op)
    except BaseException:
        server.stop()
        raise
    return server


def _sessions(documents: dict[str, str]) -> dict[str, QuerySession]:
    return {
        name: QuerySession(
            parse_document(xml), indexes=DocumentIndexCache(), plans=PlanCache()
        )
        for name, xml in documents.items()
    }


def _answers(
    sessions: dict[str, QuerySession],
    reads: dict[tuple, catalog.ReadOp],
    options: Optional[ExecOptions] = None,
) -> dict[tuple, str]:
    answers = {}
    for key, op in reads.items():
        row = sessions[op.document].execute(op.text(), options=options)
        if row.error is not None:
            raise row.error
        answers[key] = serialize(row.result.root)
    return answers


def references(
    seed: int, sizes: dict[str, Any], documents: dict[str, str],
    reads: dict[tuple, catalog.ReadOp], outcome: Outcome,
) -> dict[tuple, str]:
    """In-process answers, cross-checked against the naive engine."""
    small = {
        "bib": catalog.bib_xml(sizes["naive_bib_entries"], seed),
        "sections": catalog.sections_xml(sizes["naive_sections_depth"], seed),
    }
    default = _answers(_sessions(small), reads)
    naive = _answers(_sessions(small), reads, ExecOptions(engine="naive"))
    for key in reads:
        if default[key] != naive[key]:
            outcome.fail(f"reference disagrees with the naive engine on {key}")
    return _answers(_sessions(documents), reads)


def _client_loop(
    server: Server, schedule: list[catalog.ReadOp], offset: int, stride: int,
    deadline: float, expected: dict[tuple, str], out: list[tuple],
) -> None:
    """One connection's closed loop.

    Appends (op, start, rtt, server_s, problem) per request; ``problem``
    is None for a correct answer, else what went wrong.  Any exception a
    request raises (an HTTP error, a dropped connection, a truncated or
    undecodable body) is a failed op, never the end of the loop.
    """
    with ServiceClient(port=server.port) as client:
        position = offset
        while time.perf_counter() < deadline:
            op = schedule[position % len(schedule)]
            position += stride
            started = time.perf_counter()
            try:
                payload = server.query(client, op)
                rtt = time.perf_counter() - started
                seconds = float(payload.get("seconds", 0.0))
                problem = (
                    None if payload.get("result") == expected[op.key]
                    else "HTTP result differs from reference"
                )
            except Exception as error:  # noqa: BLE001 - every error is a failed op
                rtt, seconds = time.perf_counter() - started, 0.0
                problem = f"request failed: {type(error).__name__}: {error}"
            out.append((op, started, rtt, seconds, problem))


def _http_window(
    server: Server, schedule: list[catalog.ReadOp], clients: int,
    seconds: float, expected: dict[tuple, str], outcome: Outcome,
) -> tuple[list[tuple], float]:
    results: list[list[tuple]] = [[] for _ in range(clients)]
    gc.collect()
    started = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(server, schedule, j, clients, started + seconds, expected,
                  results[j]),
        )
        for j in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    records = sorted(
        ((op, start - started, *rest) for rs in results for op, start, *rest in rs),
        key=lambda r: r[1],
    )
    for op, _start, _rtt, _seconds, problem in records:
        outcome.attempted += 1
        if problem is not None:
            outcome.fail(f"{op.shape} {op.params}: {problem}")
    return records, elapsed


def run(
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Optional[dict[str, Any]] = None,
    corrupt: bool = False,
) -> Outcome:
    sizes = {**SIZES, **(sizes or {})}
    documents = {
        "bib": catalog.bib_xml(sizes["bib_entries"], seed),
        "sections": catalog.sections_xml(sizes["sections_depth"], seed),
    }
    schedule = catalog.read_schedule(seed, sizes["schedule_ops"])
    reads = catalog.distinct_reads(schedule)
    outcome = Outcome(sizes={
        **sizes, "working_set_plans": len(reads),
        "plan_cache_entries": catalog.PLAN_CACHE_ENTRIES,
    })
    expected = references(seed, sizes, documents, reads, outcome)
    if corrupt:
        victim = schedule[0].key
        expected[victim] = expected[victim] + "<corrupted/>"
    clients = sizes["clients"]
    server, setups = harness.repeated_setup(
        1 if trace else (sizes["setups"] + 1) // 2,
        lambda: _start(documents, schedule, clients),
        lambda old: old.stop(),
    )
    try:
        with ServiceClient(port=server.port) as admin:
            queued = _queued(admin.metrics())
            records, window_s = _http_window(
                server, schedule, clients, seconds, expected, outcome
            )
            queued = _queued(admin.metrics()) - queued
    finally:
        server.stop()
    ops = [Op(op.shape, rtt, start + rtt) for op, start, rtt, _sec, _problem in records]
    outcome.checks["rank"] = harness.rank_check(ops, "serve_read")
    if not trace:
        setups += harness.setups_after(
            sizes["setups"] // 2,
            lambda: _start(documents, schedule, clients),
            lambda old: old.stop(),
        )
        outcome.metrics = harness.end_to_end(
            setup_s=harness.median(setups), window_s=window_s, ops=ops,
            rss_mb=harness.rss_children_mb(), checks=outcome.checks,
        )
        return outcome

    replay = [op for op, *_rest in records[: sizes["replay_ops"]]]
    values = {
        **_replay(replay, documents, expected, outcome),
        **harness.op_shape_metrics(ops),
        "server.overhead_ms": harness.median(
            rtt - sec for _op, _s, rtt, sec, _problem in records
        ) * 1000,
        "server.admission_queued": queued,
        "session.execute_ms": harness.median(
            sec for _op, _s, _rtt, sec, _problem in records
        ) * 1000,
        "engine.index.build_ms": sum(
            harness.index_build_ms(xml) for xml in documents.values()
        ),
    }
    outcome.metrics = harness.layer_metrics(values)
    return outcome


def _queued(metrics: dict[str, Any]) -> int:
    return sum(
        tenant["admission"]["queued_total"]
        for tenant in metrics["tenants"].values()
    )


def _replay(
    replay: list[catalog.ReadOp], documents: dict[str, str],
    expected: dict[tuple, str], outcome: Outcome,
) -> dict[str, float]:
    """The in-process layers, from the HTTP request sequence replayed.

    Two warmed session sets run the sequence in lockstep: one untraced
    (also timing ``ExecOptions(trace=True)`` against off, interleaved),
    one with spans recorded around every layer.
    """
    plain, traced = _sessions(documents), _sessions(documents)
    for op in catalog.distinct_reads(replay).values():
        plain[op.document].execute(op.text())
        traced[op.document].execute(op.text())
    recorder = spans.Recorder()
    untraced, engine_off, engine_on, stats, nodes, sizes = [], [], [], [], [], []
    for position, op in enumerate(replay):
        session, text = plain[op.document], op.text()
        untraced.append(harness.timed(
            lambda: serialize(session.execute(text).result.root)
        )[1])
        pair = [(engine_off, ExecOptions()), (engine_on, ExecOptions(trace=True))]
        for bucket, options in pair if position % 2 else reversed(pair):
            bucket.append(session.execute(text, options=options).seconds)
        with spans.installed(recorder), recorder.op(op.shape):
            row = traced[op.document].execute(text)
            with recorder.span("ssd.serializer"):
                payload = serialize(row.result.root)
        stats.append(row.stats)
        nodes.append(row.result.root.size())
        sizes.append(len(payload))
        outcome.attempted += 1
        if payload != expected[op.key]:
            outcome.fail(f"{op.shape} {op.params}: replayed result differs")
    per_op = recorder.per_op()
    outcome.layer_rows = spans.span_table(per_op)
    outcome.spans = recorder.export()
    return {
        **spans.span_layer_values(per_op),
        **harness.engine_counter_metrics(stats),
        "xmlgl.construct.result_nodes": harness.mean(nodes),
        "ssd.serializer.bytes": harness.mean(sizes),
        "engine.trace.overhead_ratio": harness.ratio(
            harness.median(engine_on), harness.median(engine_off)
        ),
        "bench.trace_overhead_ratio": harness.ratio(
            harness.median(op["seconds"] for op in per_op),
            harness.median(untraced),
        ),
    }
