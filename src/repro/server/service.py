"""The asyncio multi-tenant query service.

:class:`QueryService` is the ROADMAP's "millions of users" front-end: a
long-running asyncio HTTP/JSON server over the existing engine, organised
as the EdgeDB-style split the ROADMAP names —

* the **event loop** owns I/O, admission control and governance: it
  parses requests, resolves the tenant, overlays the tenant's
  :class:`~repro.engine.limits.QueryBudget` template, and admits/queues/
  rejects through per-tenant :class:`~repro.server.admission.TenantGate`\\ s;
* **executor workers** own the CPU: admitted evaluations run on a shared
  :class:`~concurrent.futures.ThreadPoolExecutor` through
  :meth:`repro.session.QuerySession.execute` (the thread-safe serving
  path), so the loop never blocks on matching.

Documents are named, immutable versions in a
:class:`~repro.server.store.DocumentStore`; the service keeps one shared
:class:`~repro.session.QuerySession` per stored version, all folding into
one service-wide :class:`~repro.engine.metrics.MetricsRegistry` — which
is exactly why the ``run()`` error-path metrics fix matters end to end:
``/metrics`` error counts are only trustworthy because *failed*
evaluations record too.

Endpoints (JSON in, JSON out):

===============================  ============================================
``POST /query``                  evaluate query text or a prepared digest
``POST /batch``                  evaluate a list of queries (thread/process)
``POST /prepare``                register a (parameterized) prepared query
``GET  /healthz``                liveness: ok + document/tenant counts
``GET  /metrics``                engine registry + per-tenant metrics
``GET  /documents``              the store's name/version listing
``POST /documents``              admin: load a new document version
``POST /documents/NAME/mutate``  apply a typed mutation batch to the head
``POST /subscriptions``          register a continuous query on a head
``GET  /subscriptions/ID/deltas``  long-poll the subscription's deltas
``DELETE /subscriptions/ID``     close and detach a subscription
``POST /shutdown``               begin a clean shutdown (drains, then exits)
===============================  ============================================

Mutation and continuous queries ride the mutable-head machinery of the
store (:mod:`repro.server.store`): loaded versions stay frozen, the first
mutation of a name forks a live head, typed batches maintain its cached
index incrementally, and version-less queries read the head under a
per-name read lock (mutations take the write lock).  Subscriptions attach
to the head's shared session; their deltas are drained — admission-gated
per tenant like every evaluation — through the long-poll endpoint.

Prepared queries use ``${name}`` placeholders (bare ``$ID`` is already
DSL syntax for construct attributes).  Parameter values substitute as DSL
literals; because DSL strings have no escape mechanism, a string value
containing *both* quote characters is rejected rather than silently
corrupted.  Un-parameterized prepared queries are keyed by the plan
cache's canonical digest, so semantically equal texts share one digest
(and one compiled plan); parameterized templates are keyed by their
template text, and every substituted instance still shares compiled
plans through the plan cache's canonical keying.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import hashlib
import re
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Optional

from ..engine.bindings import Binding
from ..engine.metrics import MetricsRegistry
from ..engine.mutate import MutationResult, ops_from_spec
from ..engine.subscribe import ResultDelta, Subscription
from ..errors import (
    BudgetExceeded,
    QuerySyntaxError,
    ReproError,
    XmlSyntaxError,
)
from ..session import BatchResult, QuerySession
from ..ssd import Document, Element, Node, serialize
from .admission import AdmissionRejected, TenantGate
from .config import _BUDGET_FIELDS, ServerConfig, TenantConfig
from .http import (
    ProtocolError,
    Request,
    Response,
    encode_response,
    json_response,
    read_request,
)
from .store import DocumentStore, StoredDocument, UnknownDocument

__all__ = ["BackgroundServer", "PreparedQuery", "QueryService", "run_forever"]

#: Prepared-query placeholder: ``${name}``.  Bare ``$ID`` is live DSL
#: syntax (construct attributes), so placeholders need the braces.
_PARAM_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


class UnknownTenant(ReproError):
    """A request named a tenant the service has no gate for."""


class UnknownPrepared(ReproError):
    """A request referenced a prepared-query digest never registered."""


class UnknownSubscription(ReproError):
    """A request referenced a subscription id the service has no entry for."""


@dataclass
class _ServerSubscription:
    """One registered continuous query: subscription + owning context."""

    subscription: "Subscription"
    session: QuerySession
    document: str
    tenant: str


def _render_param(name: str, value: Any) -> str:
    """Render one parameter value as a DSL literal."""
    if isinstance(value, bool):
        raise ReproError(f"parameter {name!r}: booleans are not DSL literals")
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        if '"' not in value:
            return f'"{value}"'
        if "'" not in value:
            return f"'{value}'"
        raise ReproError(
            f"parameter {name!r} contains both quote characters; DSL "
            "strings have no escape mechanism"
        )
    raise ReproError(
        f"parameter {name!r} has unsupported type {type(value).__name__}; "
        "pass a string or a number"
    )


@dataclass(frozen=True)
class PreparedQuery:
    """One registered prepared query (template text + parameter names)."""

    digest: str
    text: str
    params: tuple[str, ...]

    def substitute(self, values: Mapping[str, Any]) -> str:
        """The executable query text with every placeholder bound."""
        missing = [name for name in self.params if name not in values]
        if missing:
            raise ReproError(
                f"prepared query {self.digest[:12]} missing parameters: "
                f"{missing}"
            )
        extra = sorted(set(values) - set(self.params))
        if extra:
            raise ReproError(
                f"prepared query {self.digest[:12]} got unknown parameters: "
                f"{extra}"
            )
        rendered = {
            name: _render_param(name, values[name]) for name in self.params
        }
        return _PARAM_RE.sub(lambda m: rendered[m.group(1)], self.text)


def canonical_digest(text: str) -> str:
    """The plan cache's canonical digest for un-parameterized query text."""
    from ..analysis.rewrite import canonical_rule_text, rewrite_rule
    from ..xmlgl.dsl import parse_rule

    rewritten, _report = rewrite_rule(parse_rule(text))
    return hashlib.sha256(canonical_rule_text(rewritten).encode()).hexdigest()


def _stats_summary(row: BatchResult) -> dict[str, Any]:
    """The client-facing per-query stats block."""
    counters = row.stats.as_dict()
    return {
        "bindings_produced": counters.get("bindings_produced", 0),
        "plan_cache_hits": counters.get("plan_cache_hits", 0),
        "plan_cache_misses": counters.get("plan_cache_misses", 0),
        "truncated": bool(row.stats.extra.get("truncated", False)),
    }


def _row_payload(row: BatchResult) -> dict[str, Any]:
    """One evaluation outcome as a JSON-ready mapping."""
    payload: dict[str, Any] = {
        "ok": row.ok,
        "seconds": row.seconds,
        "stats": _stats_summary(row),
    }
    if row.ok:
        assert row.result is not None
        root = row.result.root
        payload["result"] = serialize(root) if root is not None else ""
    else:
        payload["error"] = {
            "type": type(row.error).__name__,
            "message": str(row.error),
        }
    return payload


def _binding_payload(binding: Binding) -> dict[str, Any]:
    """One binding row as a JSON-ready mapping (elements serialize to XML)."""
    row: dict[str, Any] = {}
    for variable in binding:
        value = binding[variable]
        if isinstance(value, Element):
            row[variable] = {"kind": "element", "xml": serialize(value)}
        elif isinstance(value, Node):
            row[variable] = {"kind": "node", "value": str(value)}
        elif isinstance(value, (str, int, float, bool)) or value is None:
            row[variable] = {"kind": "value", "value": value}
        else:
            row[variable] = {"kind": "value", "value": str(value)}
    return row


def _delta_payload(delta: ResultDelta) -> dict[str, Any]:
    """One delta on the wire; ``resync`` tells the consumer to drop the
    rows it holds and take ``added`` as the whole current row set."""
    return {
        "revision": delta.revision,
        "resync": delta.resync,
        "added": [_binding_payload(binding) for binding in delta.added],
        "removed": [_binding_payload(binding) for binding in delta.removed],
    }


def _error_status(error: BaseException) -> int:
    """Map an exception to the HTTP status the service answers with."""
    if isinstance(error, AdmissionRejected):
        return 429
    if isinstance(
        error,
        (UnknownDocument, UnknownTenant, UnknownPrepared, UnknownSubscription),
    ):
        return 404
    if isinstance(error, BudgetExceeded):  # DeadlineExceeded is a subclass
        return 408
    if isinstance(error, (QuerySyntaxError, XmlSyntaxError)):
        return 400
    if isinstance(error, ProtocolError):
        return error.status
    if isinstance(error, ReproError):
        return 422
    return 500


class QueryService:
    """The service: store + sessions + gates + executor + HTTP front."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        store: Optional[DocumentStore] = None,
    ) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self.config = config if config is not None else ServerConfig()
        self.store = store if store is not None else DocumentStore()
        #: Service-wide engine registry: every session folds into it, so
        #: ``/metrics`` aggregates successes *and* failures across tenants.
        self.metrics = MetricsRegistry()
        self.gates: dict[str, TenantGate] = {
            tenant.name: TenantGate(tenant)
            for tenant in self.config.tenant_roster()
        }
        #: Per-tenant engine registries, recorded alongside the service one
        #: so ``/metrics`` can attribute totals tenant by tenant.
        self.tenant_metrics: dict[str, MetricsRegistry] = {
            name: MetricsRegistry() for name in self.gates
        }
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_workers,
            thread_name_prefix="repro-serve",
        )
        # Session keys are (name, version) for frozen snapshots and
        # (name, "head") for the mutable fork — one shared session per
        # servable document either way.
        self._sessions: dict[tuple[str, Any], QuerySession] = {}
        self._sessions_lock = threading.Lock()
        self._prepared: dict[str, PreparedQuery] = {}
        self._subscriptions: dict[str, _ServerSubscription] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set[asyncio.Task] = set()
        self._shutdown = asyncio.Event()
        self._started_at = time.monotonic()
        self.port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (``port=0`` → ephemeral)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def wait_shutdown(self) -> None:
        await self._shutdown.wait()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def close(self) -> None:
        """Stop accepting, close connections, drain the executor.

        ``Server.wait_closed`` does not wait for in-flight handlers, so
        open keep-alive connections are cancelled explicitly — the
        handler treats cancellation as a quiet close.  The executor is
        drained last (``wait=True``): after :meth:`close` returns there
        are zero service threads left, which the CI smoke job asserts.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Wake parked long-polls before cancelling their connections, so
        # no default-executor thread sleeps out its timeout after close.
        with self._sessions_lock:
            entries = list(self._subscriptions.values())
        for entry in entries:
            entry.subscription.close()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._pool.shutdown(wait=True)

    # -- documents & sessions ------------------------------------------------

    def add_document(self, name: str, document: Document) -> StoredDocument:
        stored = self.store.add(name, document)
        self._drop_superseded_head()
        return stored

    def _drop_superseded_head(self) -> None:
        """Tear down the session/subscriptions of a head a re-load killed."""
        superseded = self.store.pop_superseded_head()
        if superseded is None:
            return
        with self._sessions_lock:
            session = self._sessions.pop((superseded.name, "head"), None)
            dead = [
                sid
                for sid, entry in self._subscriptions.items()
                if entry.session is session
            ]
            entries = [self._subscriptions.pop(sid) for sid in dead]
        for entry in entries:
            entry.subscription.close()

    def _session_for(self, stored: StoredDocument) -> QuerySession:
        """The shared session serving one stored document version."""
        key = (stored.name, "head" if stored.head else stored.version)
        with self._sessions_lock:
            session = self._sessions.get(key)
            if session is None:
                session = QuerySession(stored.document, metrics=self.metrics)
                self._sessions[key] = session
            return session

    def _tenant(self, name: Optional[str]) -> TenantGate:
        gate = self.gates.get(name if name else self.config.default_tenant)
        if gate is None:
            raise UnknownTenant(
                f"unknown tenant {name!r}; configured: {sorted(self.gates)}"
            )
        return gate

    def _read_guard(self, stored: StoredDocument):
        """A read lock over the mutable head; a no-op for frozen versions."""
        if stored.head:
            return self.store.head_lock(stored.name).reading()
        return contextlib.nullcontext()

    # -- request handling ----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await read_request(
                        reader,
                        max_body_bytes=self.config.max_body_bytes,
                        timeout_s=self.config.idle_timeout_s,
                    )
                except asyncio.IncompleteReadError:
                    break
                except ProtocolError as exc:
                    # includes the 408 for a request that stalled partway
                    writer.write(
                        encode_response(
                            json_response(
                                {"error": {"type": "ProtocolError",
                                           "message": str(exc)}},
                                status=exc.status,
                            ),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                keep = request.keep_alive and response.status < 500
                writer.write(encode_response(response, keep_alive=keep))
                await writer.drain()
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # shutdown cancelled this connection: close quietly (the task
            # ends cleanly, so the loop doesn't log a phantom exception)
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _dispatch(self, request: Request) -> Response:
        if self._shutdown.is_set() and request.path != "/healthz":
            return json_response(
                {"error": {"type": "ShuttingDown",
                           "message": "service is shutting down"}},
                status=503,
            )
        route = (request.method, request.path)
        handler: Optional[Callable] = {
            ("POST", "/query"): self._handle_query,
            ("POST", "/batch"): self._handle_batch,
            ("POST", "/prepare"): self._handle_prepare,
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/documents"): self._handle_documents_get,
            ("POST", "/documents"): self._handle_documents_post,
            ("POST", "/subscriptions"): self._handle_subscribe,
            ("POST", "/shutdown"): self._handle_shutdown,
        }.get(route)
        args: tuple = ()
        if handler is None:
            # Path-parameter routes: NAME/ID segments are percent-free
            # single path components.
            mutate = re.fullmatch(r"/documents/([^/]+)/mutate", request.path)
            deltas = re.fullmatch(
                r"/subscriptions/([^/]+)/deltas", request.path
            )
            drop = re.fullmatch(r"/subscriptions/([^/]+)", request.path)
            if mutate is not None and request.method == "POST":
                handler, args = self._handle_mutate, (mutate.group(1),)
            elif deltas is not None and request.method == "GET":
                handler, args = self._handle_deltas, (deltas.group(1),)
            elif drop is not None and request.method == "DELETE":
                handler, args = self._handle_unsubscribe, (drop.group(1),)
        if handler is None:
            known_path = request.path in {
                "/query", "/batch", "/prepare", "/healthz", "/metrics",
                "/documents", "/subscriptions", "/shutdown",
            } or re.fullmatch(
                r"/documents/[^/]+/mutate|/subscriptions/[^/]+(/deltas)?",
                request.path,
            )
            status = 405 if known_path else 404
            return json_response(
                {"error": {"type": "NoSuchRoute",
                           "message": f"{request.method} {request.path}"}},
                status=status,
            )
        try:
            return await handler(request, *args)
        except (ProtocolError, ReproError) as exc:
            return json_response(
                {"error": {"type": type(exc).__name__, "message": str(exc)}},
                status=_error_status(exc),
            )
        except Exception as exc:  # a bug, not a client error
            return json_response(
                {"error": {"type": type(exc).__name__, "message": str(exc)}},
                status=500,
            )

    # -- endpoint handlers ---------------------------------------------------

    def _resolve_query_text(self, payload: Mapping[str, Any]) -> str:
        """Query text from ``query`` or ``prepared``+``params``."""
        text = payload.get("query")
        digest = payload.get("prepared")
        if (text is None) == (digest is None):
            raise ProtocolError(
                400, "pass exactly one of 'query' (text) or 'prepared' (digest)"
            )
        if text is not None:
            if not isinstance(text, str):
                raise ProtocolError(400, "'query' must be a string")
            return text
        prepared = self._prepared.get(digest)
        if prepared is None:
            raise UnknownPrepared(f"no prepared query with digest {digest!r}")
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise ProtocolError(400, "'params' must be an object")
        return prepared.substitute(params)

    def _resolve_budget(
        self, payload: Mapping[str, Any], tenant: TenantConfig
    ):
        """The effective budget: tenant template tightened by the request."""
        request_budget = payload.get("budget", {})
        if not isinstance(request_budget, Mapping):
            raise ProtocolError(400, "'budget' must be an object")
        unknown = sorted(
            set(request_budget) - set(_BUDGET_FIELDS) - {"on_limit"}
        )
        if unknown:
            raise ProtocolError(400, f"unknown budget fields: {unknown}")
        for name in _BUDGET_FIELDS:
            value = request_budget.get(name)
            if value is not None and not isinstance(value, (int, float)):
                raise ProtocolError(400, f"budget field {name!r} must be a number")
        return tenant.overlay(request_budget)

    async def _admit_and_run(
        self,
        gate: TenantGate,
        work: Callable[[], Any],
        *,
        error_of: Callable[[Any], bool] = lambda outcome: False,
    ) -> Any:
        """Admission-gated executor hand-off; the loop never blocks on CPU.

        ``error_of`` inspects the outcome (e.g. a :class:`BatchResult`
        whose captured error never raises) so the gate's error counter
        matches what the client actually observed.
        """
        await gate.acquire()
        error = True
        try:
            outcome = await asyncio.get_running_loop().run_in_executor(
                self._pool, work
            )
            error = error_of(outcome)
            return outcome
        finally:
            gate.release(error=error)

    async def _handle_query(self, request: Request) -> Response:
        payload = request.json()
        if not isinstance(payload, Mapping):
            raise ProtocolError(400, "request body must be a JSON object")
        text = self._resolve_query_text(payload)
        gate = self._tenant(payload.get("tenant"))
        budget = self._resolve_budget(payload, gate.config)
        stored = self.store.get(payload.get("document"), payload.get("version"))
        session = self._session_for(stored)
        registry = self.tenant_metrics[gate.config.name]

        def work() -> BatchResult:
            # The per-call bundle replaces the session defaults wholesale,
            # so budget=None here means an unlimited tenant genuinely runs
            # unbudgeted.
            with self._read_guard(stored):
                row = session.execute(
                    text, options=replace(session.defaults, budget=budget)
                )
            registry.record(
                row.stats, seconds=row.seconds, query=text,
                error=row.error is not None,
            )
            return row

        row = await self._admit_and_run(
            gate, work, error_of=lambda outcome: outcome.error is not None
        )
        status = 200 if row.ok else _error_status(row.error)
        return json_response(
            {"tenant": gate.config.name,
             "document": {"name": stored.name, "version": stored.version,
                          "head": stored.head},
             **_row_payload(row)},
            status=status,
        )

    async def _handle_batch(self, request: Request) -> Response:
        payload = request.json()
        if not isinstance(payload, Mapping):
            raise ProtocolError(400, "request body must be a JSON object")
        queries = payload.get("queries")
        if not isinstance(queries, list) or not all(
            isinstance(q, str) for q in queries
        ):
            raise ProtocolError(400, "'queries' must be a list of strings")
        executor = payload.get("executor", "thread")
        if executor not in ("thread", "process"):
            raise ProtocolError(400, "'executor' must be 'thread' or 'process'")
        gate = self._tenant(payload.get("tenant"))
        budget = self._resolve_budget(payload, gate.config)
        stored = self.store.get(payload.get("document"), payload.get("version"))
        session = self._session_for(stored)
        registry = self.tenant_metrics[gate.config.name]

        def work() -> list[BatchResult]:
            with self._read_guard(stored):
                rows = session.run_batch(
                    queries,
                    options=replace(session.defaults, budget=budget),
                    executor=executor,
                )
            for row in rows:
                registry.record(
                    row.stats, seconds=row.seconds,
                    query=row.source_text, error=row.error is not None,
                )
            return rows

        rows = await self._admit_and_run(
            gate, work,
            error_of=lambda outcome: any(r.error is not None for r in outcome),
        )
        return json_response(
            {"tenant": gate.config.name,
             "document": {"name": stored.name, "version": stored.version,
                          "head": stored.head},
             "rows": [_row_payload(row) for row in rows]}
        )

    async def _handle_prepare(self, request: Request) -> Response:
        payload = request.json()
        if not isinstance(payload, Mapping):
            raise ProtocolError(400, "request body must be a JSON object")
        text = payload.get("query")
        if not isinstance(text, str):
            raise ProtocolError(400, "'query' must be a string")
        params = tuple(dict.fromkeys(_PARAM_RE.findall(text)))
        loop = asyncio.get_running_loop()
        if params:
            # Validate the template's syntax by substituting throwaway
            # literals (a string, then a number — either shape must parse).
            digest = hashlib.sha256(text.encode()).hexdigest()
            prepared = PreparedQuery(digest=digest, text=text, params=params)
            from ..xmlgl.dsl import parse_rule

            def validate() -> None:
                for probe in ('"0"', "0"):
                    try:
                        parse_rule(
                            _PARAM_RE.sub(probe, text)
                        )
                        return
                    except QuerySyntaxError:
                        continue
                raise QuerySyntaxError(
                    "prepared template does not parse with placeholder "
                    "values substituted"
                )

            await loop.run_in_executor(self._pool, validate)
        else:
            # No placeholders: key by the plan cache's canonical digest so
            # semantically equal texts map onto one prepared entry.
            digest = await loop.run_in_executor(
                self._pool, functools.partial(canonical_digest, text)
            )
            prepared = PreparedQuery(digest=digest, text=text, params=())
        self._prepared[digest] = prepared
        return json_response({"digest": digest, "params": list(params)})

    async def _handle_healthz(self, request: Request) -> Response:
        return json_response(
            {
                "status": "shutting-down" if self._shutdown.is_set() else "ok",
                "documents": len(self.store),
                "tenants": sorted(self.gates),
                "prepared": len(self._prepared),
                "uptime_s": time.monotonic() - self._started_at,
            }
        )

    async def _handle_metrics(self, request: Request) -> Response:
        return json_response(
            {
                "engine": self.metrics.snapshot(),
                "tenants": {
                    name: {
                        "admission": gate.snapshot(),
                        "engine": self.tenant_metrics[name].snapshot(),
                    }
                    for name, gate in sorted(self.gates.items())
                },
            }
        )

    async def _handle_documents_get(self, request: Request) -> Response:
        return json_response({"documents": self.store.describe()})

    async def _handle_documents_post(self, request: Request) -> Response:
        payload = request.json()
        if not isinstance(payload, Mapping):
            raise ProtocolError(400, "request body must be a JSON object")
        name = payload.get("name")
        xml_text = payload.get("xml")
        if not isinstance(name, str) or not isinstance(xml_text, str):
            raise ProtocolError(400, "'name' and 'xml' must be strings")
        loop = asyncio.get_running_loop()

        def load() -> StoredDocument:
            loaded = self.store.add_xml(name, xml_text)
            self._drop_superseded_head()
            return loaded

        stored = await loop.run_in_executor(self._pool, load)
        return json_response(stored.describe())

    # -- mutation & continuous queries ---------------------------------------

    async def _handle_mutate(self, request: Request, name: str) -> Response:
        """Apply one typed mutation batch to the document's mutable head.

        The batch spec (``ops`` — see
        :func:`repro.engine.mutate.ops_from_spec`) is validated in full
        before anything applies; the commit runs on an executor worker
        under the name's write lock, maintaining the head's cached index
        in place and notifying every attached subscription before the
        lock drops.
        """
        payload = request.json()
        if not isinstance(payload, Mapping):
            raise ProtocolError(400, "request body must be a JSON object")
        ops = payload.get("ops")
        if not isinstance(ops, list):
            raise ProtocolError(400, "'ops' must be a list of op objects")
        gate = self._tenant(payload.get("tenant"))

        def work() -> tuple[StoredDocument, MutationResult, int]:
            stored = self.store.head(name)
            session = self._session_for(stored)
            with self.store.head_lock(stored.name).writing():
                batch = ops_from_spec(stored.document, ops)
                result = session.mutate(batch)
            return stored, result, len(session.subscriptions())

        stored, result, notified = await self._admit_and_run(gate, work)
        return json_response(
            {
                "tenant": gate.config.name,
                "document": {
                    "name": stored.name,
                    "version": stored.version,
                    "head": True,
                },
                "revision": result.doc_revision,
                "applied": result.applied,
                "structural": result.structural,
                "nodes_added": result.nodes_added,
                "nodes_removed": result.nodes_removed,
                "subscriptions_notified": notified,
            }
        )

    async def _handle_subscribe(self, request: Request) -> Response:
        """Register a continuous query against a document's mutable head.

        Subscribing forks the head if the name has none yet (the query
        must watch the *live* document, not a frozen version).  The
        initial evaluation runs eagerly under the read lock; mutation
        commits then re-evaluate or skip per the query's footprint.
        """
        payload = request.json()
        if not isinstance(payload, Mapping):
            raise ProtocolError(400, "request body must be a JSON object")
        text = self._resolve_query_text(payload)
        gate = self._tenant(payload.get("tenant"))
        name = payload.get("document")
        if name is not None and not isinstance(name, str):
            raise ProtocolError(400, "'document' must be a string")

        def work() -> tuple[StoredDocument, _ServerSubscription]:
            stored = self.store.head(name)
            session = self._session_for(stored)
            with self.store.head_lock(stored.name).reading():
                subscription = session.subscribe(text)
            return stored, _ServerSubscription(
                subscription=subscription,
                session=session,
                document=stored.name,
                tenant=gate.config.name,
            )

        stored, entry = await self._admit_and_run(gate, work)
        with self._sessions_lock:
            self._subscriptions[entry.subscription.id] = entry
        return json_response(
            {
                "id": entry.subscription.id,
                "tenant": entry.tenant,
                "document": {
                    "name": stored.name,
                    "version": stored.version,
                    "head": True,
                },
                "rows": len(entry.subscription.rows()),
                "revision": entry.subscription.last_revision,
            }
        )

    def _subscription(self, subscription_id: str) -> _ServerSubscription:
        with self._sessions_lock:
            entry = self._subscriptions.get(subscription_id)
        if entry is None:
            raise UnknownSubscription(
                f"no subscription with id {subscription_id!r}"
            )
        return entry

    async def _handle_deltas(
        self, request: Request, subscription_id: str
    ) -> Response:
        """Long-poll a subscription's queued deltas.

        ``?timeout_s=N`` blocks up to ``N`` seconds (capped at 30) for the
        first delta; the default drains whatever is queued immediately.
        Only the drain is admission-gated — a parked long-poll must not
        consume the tenant's concurrency slot while it sleeps, so the
        wait itself runs before admission and the (cheap) drain after.
        A subscription that a failed re-evaluation closed reports the
        failure under ``error``.
        """
        entry = self._subscription(subscription_id)
        gate = self._tenant(entry.tenant)
        raw_timeout = request.query.get("timeout_s", "0")
        try:
            timeout = min(max(float(raw_timeout), 0.0), 30.0)
        except ValueError:
            raise ProtocolError(400, "'timeout_s' must be a number") from None
        if timeout > 0 and not entry.subscription.pending:
            # Park without holding an admission slot: the bounded wait
            # only watches the pending queue (no draining), the drain
            # below runs under admission.
            await asyncio.get_running_loop().run_in_executor(
                None,
                functools.partial(entry.subscription.wait_pending, timeout),
            )

        def work() -> list[ResultDelta]:
            return entry.subscription.poll()

        deltas = await self._admit_and_run(gate, work)
        payload = {
            "id": entry.subscription.id,
            "revision": entry.subscription.last_revision,
            "closed": entry.subscription.closed,
            "deltas": [_delta_payload(delta) for delta in deltas],
        }
        error = entry.subscription.error
        if error is not None:
            payload["error"] = {"type": type(error).__name__, "message": str(error)}
        return json_response(payload)

    async def _handle_unsubscribe(
        self, request: Request, subscription_id: str
    ) -> Response:
        entry = self._subscription(subscription_id)
        with self._sessions_lock:
            self._subscriptions.pop(subscription_id, None)
        entry.session.unsubscribe(entry.subscription)
        return json_response({"id": subscription_id, "closed": True})

    async def _handle_shutdown(self, request: Request) -> Response:
        self._shutdown.set()
        return json_response({"status": "shutting-down"})


async def _serve(
    service: QueryService,
    on_ready: Optional[Callable[[QueryService], None]] = None,
) -> None:
    """Start, announce, handle signals, wait for shutdown, drain."""
    import signal

    await service.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, service.request_shutdown)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    if on_ready is not None:
        on_ready(service)
    try:
        await service.wait_shutdown()
    finally:
        await service.close()


def run_forever(
    config: ServerConfig,
    store: Optional[DocumentStore] = None,
    on_ready: Optional[Callable[[QueryService], None]] = None,
) -> None:
    """Blocking entry point for ``repro serve``."""
    service = QueryService(config, store=store)
    asyncio.run(_serve(service, on_ready))


class BackgroundServer:
    """A :class:`QueryService` on a dedicated event-loop thread.

    The harness tests and the CI smoke job use this to run the service
    inside one process: ``start()`` blocks until the port is bound,
    ``stop()`` requests shutdown and joins the thread (executor drained,
    zero leaked threads).
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        store: Optional[DocumentStore] = None,
    ) -> None:
        self.service = QueryService(config, store=store)
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._failure: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )

    @property
    def port(self) -> int:
        assert self.service.port is not None, "server not started"
        return self.service.port

    @property
    def address(self) -> tuple[str, int]:
        return (self.service.config.host, self.port)

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            await self.service.start()
            self._ready.set()
            try:
                await self.service.wait_shutdown()
            finally:
                await self.service.close()

        try:
            asyncio.run(main())
        except BaseException as exc:  # surface bind errors to start()
            self._failure = exc
            self._ready.set()

    def start(self, timeout: float = 10.0) -> "BackgroundServer":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ReproError("background server failed to start in time")
        if self._failure is not None:
            raise ReproError(
                f"background server failed to start: {self._failure}"
            ) from self._failure
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.service.request_shutdown)
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise ReproError("background server failed to stop in time")

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
