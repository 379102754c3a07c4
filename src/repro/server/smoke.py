"""End-to-end smoke check: ``python -m repro.server.smoke``.

The CI server-smoke job runs this module.  It must prove, in a few
seconds, that the whole serving stack holds together in one process:

1. record the baseline thread set,
2. start the service on an **ephemeral** port (``port=0``),
3. poll ``/healthz`` until live,
4. register a prepared query and run it through the Python client,
5. verify the result matches a direct :meth:`QuerySession.run`,
6. with ``--subscriptions``: subscribe two continuous queries, commit an
   entry insert, a value edit and an entry delete through the typed
   endpoint, long-poll the deltas, and check that each subscription's
   initial rows plus its deltas equal a fresh evaluation of its query
   over a local copy that took the same edits,
7. shut down cleanly and assert **zero leaked threads** — the executor
   and the event-loop thread must both be gone.

Exit status 0 on success; any failure raises (non-zero exit).
"""

from __future__ import annotations

import sys
import threading
import time

SMOKE_XML = (
    "<bib>"
    "<book year='1995'><title>DB Systems</title></book>"
    "<book year='1999'><title>XML-GL</title></book>"
    "</bib>"
)

SMOKE_QUERY = (
    "query { book as B { @year as Y } where Y >= ${year} } "
    "construct { hits { B } }"
)


SMOKE_WATCH_QUERY = (
    "query { book as B { @year as Y } } construct { hits { B } }"
)

SMOKE_TEXT_QUERY = (
    "query { book as B { title as T { text as V } } } construct { hits { B } }"
)


def _scalars(row: dict) -> tuple:
    """A wire row's circle values: what identifies it across edits (an
    element's XML is serialized when the delta is drained, so it shows
    the element as it is then, not as it was when the row changed)."""
    return tuple(sorted(
        (variable, cell["value"])
        for variable, cell in row.items()
        if cell["kind"] == "value"
    ))


def _fresh_rows(query: str, document) -> "Counter[tuple]":
    """A from-scratch evaluation of ``query``, as wire rows."""
    from collections import Counter

    from ..engine.cache import DocumentIndexCache
    from ..xmlgl.dsl import parse_rule
    from ..xmlgl.evaluator import rule_bindings
    from .service import _binding_payload

    bindings = rule_bindings(
        parse_rule(query), document, indexes=DocumentIndexCache()
    )
    return Counter(_scalars(_binding_payload(binding)) for binding in bindings)


def _replay(rows: "Counter[tuple]", deltas: list) -> None:
    """Apply drained wire deltas to ``rows`` in place."""
    for delta in deltas:
        if delta["resync"]:
            rows.clear()
        for row in delta["removed"]:
            rows[_scalars(row)] -= 1
        for row in delta["added"]:
            rows[_scalars(row)] += 1
    for key in [key for key, count in rows.items() if count == 0]:
        del rows[key]


def run_smoke(verbose: bool = True, subscriptions: bool = False) -> None:
    from ..session import QuerySession
    from ..ssd import parse_document, serialize
    from .client import ServiceClient
    from .config import ServerConfig, TenantConfig
    from .service import BackgroundServer
    from .store import DocumentStore

    def say(message: str) -> None:
        if verbose:
            print(f"smoke: {message}")

    baseline = set(threading.enumerate())
    store = DocumentStore()
    store.add("bib", parse_document(SMOKE_XML))
    config = ServerConfig(
        port=0,
        max_workers=2,
        tenants=(TenantConfig(name="smoke", max_concurrency=2, max_queue=4),),
    )
    server = BackgroundServer(config, store=store).start()
    say(f"listening on 127.0.0.1:{server.port}")

    client = ServiceClient(port=server.port)
    try:
        deadline = time.monotonic() + 10.0
        while True:
            try:
                health = client.healthz()
                if health["status"] == "ok":
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise AssertionError("healthz never became ready")
            time.sleep(0.05)
        say(f"healthz ok ({health['documents']} documents)")

        prepared = client.prepare(SMOKE_QUERY)
        assert prepared["params"] == ["year"], prepared
        outcome = client.query(
            prepared=prepared["digest"],
            params={"year": 1999},
            document="bib",
            tenant="smoke",
        )
        assert outcome["ok"], outcome
        expected_doc = QuerySession(parse_document(SMOKE_XML)).run(
            SMOKE_QUERY.replace("${year}", "1999")
        )
        assert expected_doc.root is not None
        expected = serialize(expected_doc.root)
        assert outcome["result"] == expected, (outcome["result"], expected)
        say("prepared query result matches direct QuerySession.run")

        metrics = client.metrics()
        admission = metrics["tenants"]["smoke"]["admission"]
        assert admission["completed"] >= 1 and admission["errors"] == 0, admission
        say("metrics consistent")

        if subscriptions:
            from ..engine.mutate import apply_batch, ops_from_spec

            mirror = parse_document(SMOKE_XML)
            queries = (SMOKE_WATCH_QUERY, SMOKE_TEXT_QUERY)
            subs = [
                client.subscribe(query, document="bib", tenant="smoke")
                for query in queries
            ]
            replayed = [_fresh_rows(query, mirror) for query in queries]
            assert subs[0]["rows"] == 2, subs[0]
            say(f"subscribed {subs[0]['id']} ({subs[0]['rows']} initial rows)")

            def commit(spec: list, woken: tuple) -> list:
                """Commit ``spec`` on the server and the mirror; drain
                each subscription (long-polling those ``woken``)."""
                committed = client.mutate("bib", spec, tenant="smoke")
                assert committed["applied"] == len(spec), committed
                apply_batch(mirror, ops_from_spec(mirror, spec))
                drained = []
                for position, sub in enumerate(subs):
                    deltas = client.deltas(
                        sub["id"], timeout_s=5.0 if position in woken else 0.0
                    )["deltas"]
                    _replay(replayed[position], deltas)
                    drained.append(deltas)
                return drained

            drained = commit([{
                "op": "insert",
                "parent": [],
                "xml": "<book year='2002'><title>SSD</title></book>",
                "index": 2,
            }], woken=(0, 1))
            assert len(drained[0]) == 1, drained
            delta = drained[0][0]
            assert len(delta["added"]) == 1 and not delta["removed"], delta
            say(f"delta delivered at revision {delta['revision']}")
            # A mutation the query's footprint does not cover must not
            # wake it; the text-reading subscription sees the edit.
            drained = commit(
                [{"op": "update_value", "target": [0, 0], "value": "DBs"}],
                woken=(1,),
            )
            assert drained[0] == [] and len(drained[1]) == 1, drained
            say("irrelevant mutation skipped; value edit delivered")
            drained = commit([{"op": "delete", "target": [1]}], woken=(0, 1))
            assert all(len(deltas) == 1 for deltas in drained), drained
            for query, rows in zip(queries, replayed):
                fresh = _fresh_rows(query, mirror)
                assert rows == fresh, (query, rows, fresh)
            for sub in subs:
                client.unsubscribe(sub["id"])
            say("initial rows plus deltas equal a fresh evaluation; unsubscribed")

        client.shutdown()
    finally:
        client.close()
        server.stop()

    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        leaked = [
            t for t in threading.enumerate()
            if t not in baseline and t.is_alive()
        ]
        if not leaked:
            break
        time.sleep(0.05)
    else:
        raise AssertionError(f"leaked threads after shutdown: {leaked}")
    say("clean shutdown, zero leaked threads")


if __name__ == "__main__":
    run_smoke(subscriptions="--subscriptions" in sys.argv[1:])
    sys.exit(0)
