"""The HTTP endpoint surface: routing, payloads, status mapping."""

import socket

import pytest

from repro.server import DocumentStore, ServerConfig, TenantConfig
from repro.server.client import ServiceError
from repro.server.service import PreparedQuery, canonical_digest
from repro.session import QuerySession
from repro.ssd import parse_document, serialize

from .conftest import BIB_XML, COUNT_QUERY, RECENT_QUERY


class TestHealthAndRouting:
    def test_healthz(self, bib_store, server_factory, client_factory):
        client = client_factory(server_factory(store=bib_store))
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["documents"] == 1
        assert "public" in health["tenants"]
        assert health["uptime_s"] >= 0

    def test_unknown_route_404_wrong_method_405(
        self, bib_store, server_factory, client_factory
    ):
        client = client_factory(server_factory(store=bib_store))
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/query")
        assert excinfo.value.status == 405

    def test_malformed_json_body_is_400(
        self, bib_store, server_factory, client_factory
    ):
        client = client_factory(server_factory(store=bib_store))
        client._conn.request(
            "POST", "/query", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = client._conn.getresponse()
        response.read()
        assert response.status == 400


class TestQueryEndpoint:
    def test_result_byte_identical_to_direct_run(
        self, bib_store, server_factory, client_factory
    ):
        client = client_factory(server_factory(store=bib_store))
        payload = client.query(RECENT_QUERY, document="bib")
        direct = QuerySession(parse_document(BIB_XML)).run(RECENT_QUERY)
        assert payload["ok"]
        assert payload["result"] == serialize(direct.root)
        assert payload["tenant"] == "public"
        assert payload["document"] == {
            "name": "bib", "version": 1, "head": False,
        }

    def test_unnamed_document_shorthand(
        self, bib_store, server_factory, client_factory
    ):
        client = client_factory(server_factory(store=bib_store))
        assert client.query(COUNT_QUERY)["ok"]

    def test_version_pinning(self, server_factory, client_factory):
        store = DocumentStore()
        store.add_xml("d", "<r><item/></r>")
        store.add_xml("d", "<r><item/><item/><item/></r>")
        client = client_factory(server_factory(store=store))
        query = "query { item as I } construct { n { count(I) } }"
        latest = client.query(query, document="d")
        pinned = client.query(query, document="d", version=1)
        assert "3" in latest["result"]
        assert "1" in pinned["result"]

    def test_parse_error_is_400(self, bib_store, server_factory, client_factory):
        client = client_factory(server_factory(store=bib_store))
        with pytest.raises(ServiceError) as excinfo:
            client.query("query { book as } construct }{")
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"]["type"] == "QuerySyntaxError"

    def test_unknown_document_is_404(
        self, bib_store, server_factory, client_factory
    ):
        client = client_factory(server_factory(store=bib_store))
        with pytest.raises(ServiceError) as excinfo:
            client.query(COUNT_QUERY, document="missing")
        assert excinfo.value.status == 404

    def test_query_and_prepared_are_mutually_exclusive(
        self, bib_store, server_factory, client_factory
    ):
        client = client_factory(server_factory(store=bib_store))
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/query", {"document": "bib"})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.request(
                "POST", "/query",
                {"query": COUNT_QUERY, "prepared": "abc", "document": "bib"},
            )
        assert excinfo.value.status == 400

    def test_bad_budget_fields_are_400(
        self, bib_store, server_factory, client_factory
    ):
        client = client_factory(server_factory(store=bib_store))
        with pytest.raises(ServiceError) as excinfo:
            client.query(COUNT_QUERY, budget={"max_wrk": 5})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.query(COUNT_QUERY, budget={"max_work": "lots"})
        assert excinfo.value.status == 400


class TestPreparedQueries:
    def test_prepare_then_execute(
        self, bib_store, server_factory, client_factory
    ):
        client = client_factory(server_factory(store=bib_store))
        prepared = client.prepare(RECENT_QUERY)
        assert prepared["params"] == []
        payload = client.query(prepared=prepared["digest"])
        direct = QuerySession(parse_document(BIB_XML)).run(RECENT_QUERY)
        assert payload["result"] == serialize(direct.root)

    def test_canonical_digest_shared_across_equal_texts(
        self, bib_store, server_factory, client_factory
    ):
        client = client_factory(server_factory(store=bib_store))
        spaced = RECENT_QUERY.replace(" { ", "  {  ")
        first = client.prepare(RECENT_QUERY)
        second = client.prepare(spaced)
        assert first["digest"] == second["digest"]
        assert first["digest"] == canonical_digest(RECENT_QUERY)

    def test_parameter_substitution(
        self, bib_store, server_factory, client_factory
    ):
        client = client_factory(server_factory(store=bib_store))
        template = (
            "query { book as B { @year as Y } where Y >= ${year} } "
            "construct { hits { B } }"
        )
        prepared = client.prepare(template)
        assert prepared["params"] == ["year"]
        for year, expected in ((1999, 2), (1994, 3), (2001, 0)):
            payload = client.query(
                prepared=prepared["digest"], params={"year": year}
            )
            assert payload["stats"]["bindings_produced"] == expected

    def test_missing_and_extra_params_rejected(
        self, bib_store, server_factory, client_factory
    ):
        client = client_factory(server_factory(store=bib_store))
        prepared = client.prepare(
            "query { book as B { @year as Y } where Y >= ${year} } "
            "construct { hits { B } }"
        )
        with pytest.raises(ServiceError) as excinfo:
            client.query(prepared=prepared["digest"])
        assert excinfo.value.status == 422
        with pytest.raises(ServiceError) as excinfo:
            client.query(
                prepared=prepared["digest"],
                params={"year": 1999, "bogus": 1},
            )
        assert excinfo.value.status == 422

    def test_unknown_digest_is_404(
        self, bib_store, server_factory, client_factory
    ):
        client = client_factory(server_factory(store=bib_store))
        with pytest.raises(ServiceError) as excinfo:
            client.query(prepared="deadbeef")
        assert excinfo.value.status == 404

    def test_unparseable_template_rejected_at_prepare(
        self, bib_store, server_factory, client_factory
    ):
        client = client_factory(server_factory(store=bib_store))
        with pytest.raises(ServiceError) as excinfo:
            client.prepare("query { ${x} oops")
        assert excinfo.value.status == 400

    def test_string_param_quoting(self):
        prepared = PreparedQuery(
            digest="d", text="where T = ${t}", params=("t",)
        )
        assert prepared.substitute({"t": "plain"}) == 'where T = "plain"'
        assert prepared.substitute({"t": 'has "quotes"'}) == (
            "where T = 'has \"quotes\"'"
        )
        with pytest.raises(Exception, match="both quote characters"):
            prepared.substitute({"t": "has \"both\" 'kinds'"})
        with pytest.raises(Exception, match="boolean"):
            prepared.substitute({"t": True})


class TestDocumentsEndpoint:
    def test_admin_add_creates_new_version(
        self, bib_store, server_factory, client_factory
    ):
        client = client_factory(server_factory(store=bib_store))
        stored = client.add_document("bib", "<bib><book year='2020'/></bib>")
        assert stored["version"] == 2
        listing = client.documents()["documents"]
        assert listing[0]["latest"] == 2
        # latest now sees one book; pinned v1 still the original three
        query = "query { book as B } construct { n { count(B) } }"
        assert "1" in client.query(query, document="bib")["result"]
        assert "3" in client.query(query, document="bib", version=1)["result"]

    def test_bad_xml_is_400(self, bib_store, server_factory, client_factory):
        client = client_factory(server_factory(store=bib_store))
        with pytest.raises(ServiceError) as excinfo:
            client.add_document("bad", "<r><oops></r>")
        assert excinfo.value.status == 400


class TestBatchEndpoint:
    def test_thread_batch(self, bib_store, server_factory, client_factory):
        client = client_factory(server_factory(store=bib_store))
        payload = client.batch([RECENT_QUERY, COUNT_QUERY])
        assert [row["ok"] for row in payload["rows"]] == [True, True]
        direct = QuerySession(parse_document(BIB_XML))
        assert payload["rows"][0]["result"] == serialize(
            direct.run(RECENT_QUERY).root
        )

    def test_process_batch(self, bib_store, server_factory, client_factory):
        client = client_factory(server_factory(store=bib_store))
        payload = client.batch([RECENT_QUERY, COUNT_QUERY], executor="process")
        assert [row["ok"] for row in payload["rows"]] == [True, True]
        direct = QuerySession(parse_document(BIB_XML))
        assert payload["rows"][0]["result"] == serialize(
            direct.run(RECENT_QUERY).root
        )

    def test_batch_rows_carry_errors_without_failing_the_batch(
        self, bib_store, server_factory, client_factory
    ):
        client = client_factory(server_factory(store=bib_store))
        payload = client.batch(
            [RECENT_QUERY, COUNT_QUERY],
            budget={"max_work": 1, "on_limit": "raise"},
        )
        assert all(not row["ok"] for row in payload["rows"])
        assert all(
            row["error"]["type"] in ("BudgetExceeded", "DeadlineExceeded")
            for row in payload["rows"]
        )


class TestMetricsEndpoint:
    def test_totals_match_observed_successes_and_errors(
        self, bib_store, server_factory, client_factory
    ):
        client = client_factory(server_factory(store=bib_store))
        ok_count, err_count = 4, 2
        for _ in range(ok_count):
            assert client.query(COUNT_QUERY)["ok"]
        for _ in range(err_count):
            with pytest.raises(ServiceError):
                client.query(COUNT_QUERY, budget={"max_work": 1})
        metrics = client.metrics()
        engine = metrics["engine"]
        assert engine["queries"] == ok_count + err_count
        assert engine["errors"] == err_count  # the run() finally-fix, end to end
        assert engine["governance"]["budget_exceeded"] == err_count
        tenant = metrics["tenants"]["public"]
        assert tenant["engine"]["queries"] == ok_count + err_count
        assert tenant["engine"]["errors"] == err_count
        assert tenant["admission"]["completed"] == ok_count + err_count
        assert tenant["admission"]["errors"] == err_count


def read_until_close(sock):
    sock.settimeout(5.0)
    chunks = []
    while True:
        chunk = sock.recv(4096)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


class TestStalledRequests:
    """A begun request that stalls is answered 408; an idle one is not."""

    @pytest.fixture
    def server(self, bib_store, server_factory):
        config = ServerConfig(port=0, max_workers=2, idle_timeout_s=0.3)
        return server_factory(config, store=bib_store)

    @pytest.mark.parametrize(
        "partial",
        [
            b"POST /query HTTP/1.1\r\nHost: x\r\n",
            b"POST /query HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"query\":",
        ],
        ids=["head", "body"],
    )
    def test_stalled_request_gets_408_and_close(self, server, partial):
        with socket.create_connection(server.address) as sock:
            sock.sendall(partial)
            reply = read_until_close(sock)
        assert reply.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert b"\r\nConnection: close\r\n" in reply
        assert b'"type": "ProtocolError"' in reply

    def test_blank_line_before_request_line_is_400_at_once(self, server):
        # the byte read to detect a started request must not hide the
        # head's terminator from the parser
        with socket.create_connection(server.address) as sock:
            sock.sendall(b"\r\n\r\n")
            reply = read_until_close(sock)
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")

    def test_idle_connection_closes_silently(self, server):
        with socket.create_connection(server.address) as sock:
            assert read_until_close(sock) == b""

    def test_idle_keep_alive_after_a_request_closes_silently(self, server):
        with socket.create_connection(server.address) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            reply = read_until_close(sock)
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        assert reply.count(b"HTTP/1.1") == 1


class TestShutdown:
    def test_shutdown_endpoint_reports_and_drains(
        self, bib_store, server_factory, client_factory
    ):
        server = server_factory(store=bib_store)
        client = client_factory(server)
        assert client.query(COUNT_QUERY)["ok"]
        assert client.shutdown()["status"] == "shutting-down"
        server.stop()


class TestServerConfigValidation:
    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ServerConfig(
                tenants=(TenantConfig(name="a"), TenantConfig(name="a"))
            )

    def test_roster_always_has_default(self):
        roster = ServerConfig(tenants=(TenantConfig(name="a"),)).tenant_roster()
        assert {tenant.name for tenant in roster} == {"a", "public"}
        explicit = ServerConfig(
            tenants=(TenantConfig(name="public", max_work=5),)
        ).tenant_roster()
        assert len(explicit) == 1 and explicit[0].max_work == 5

    def test_tenant_spec_parsing(self):
        tenant = TenantConfig.from_spec(
            "analytics,max_concurrency=2,deadline_ms=100.5,on_limit=partial"
        )
        assert tenant.name == "analytics"
        assert tenant.max_concurrency == 2
        assert tenant.deadline_ms == 100.5
        assert tenant.on_limit == "partial"
        with pytest.raises(ValueError):
            TenantConfig.from_spec("t,bogus_key=1")
        with pytest.raises(ValueError):
            TenantConfig.from_spec("t,max_queue")
