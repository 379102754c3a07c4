"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main

RULE = """
query { book as B { @year as Y  title as T } where Y >= 1995 }
construct { recent { entry for B { value Y copy T } } }
"""
DATA = (
    '<bib><book year="2000"><title>New</title></book>'
    '<book year="1990"><title>Old</title></book></bib>'
)
WG_RULES = """
rule pairs { match { b: book  t: title  b -child-> t } }
rule mark {
  match { b: book }
  construct { b.seen = 'yes' }
}
"""
DTD = """
<!ELEMENT bib (book*)>
<!ELEMENT book (title)>
<!ATTLIST book year CDATA #REQUIRED>
<!ELEMENT title (#PCDATA)>
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, content in (
        ("rule.xgl", RULE),
        ("data.xml", DATA),
        ("rules.wgl", WG_RULES),
        ("schema.dtd", DTD),
        ("bad.xml", '<bib><book><title>t</title></book></bib>'),
    ):
        path = tmp_path / name
        path.write_text(content)
        paths[name] = str(path)
    paths["tmp"] = tmp_path
    return paths


def run(argv):
    out = io.StringIO()
    status = main(argv, out=out)
    return status, out.getvalue()


class TestXmlglCommand:
    def test_runs_rule(self, files):
        status, output = run(["xmlgl", files["rule.xgl"], files["data.xml"]])
        assert status == 0
        assert "<title>New</title>" in output
        assert "Old" not in output

    def test_compact(self, files):
        status, output = run(
            ["xmlgl", files["rule.xgl"], files["data.xml"], "--compact"]
        )
        assert status == 0
        assert output.count("\n") == 1

    def test_named_sources(self, files, tmp_path):
        rule = tmp_path / "multi.xgl"
        rule.write_text(
            "query docs { book as B { title as T } } construct { r { collect T } }"
        )
        status, output = run(
            ["xmlgl", str(rule), "--source", f"docs={files['data.xml']}"]
        )
        assert status == 0 and "<title>" in output

    def test_bad_source_spec(self, files):
        status, _ = run(["xmlgl", files["rule.xgl"], "--source", "nopath"])
        assert status == 2

    def test_missing_document(self, files):
        status, _ = run(["xmlgl", files["rule.xgl"]])
        assert status == 2

    def test_missing_file(self, files):
        status, _ = run(["xmlgl", "/nonexistent.xgl", files["data.xml"]])
        assert status == 2

    def test_syntax_error_reported(self, files, tmp_path):
        bad = tmp_path / "bad.xgl"
        bad.write_text("query { !!! }")
        status, _ = run(["xmlgl", str(bad), files["data.xml"]])
        assert status == 2


class TestWglogCommand:
    def test_query_mode(self, files):
        status, output = run(["wglog", files["rules.wgl"], files["data.xml"]])
        assert status == 0
        assert "rule pairs: 2 matches" in output

    def test_apply_mode(self, files):
        status, output = run(
            ["wglog", files["rules.wgl"], files["data.xml"], "--apply"]
        )
        assert status == 0
        assert "# additions:" in output
        assert "seen='yes'" in output


class TestRenderCommand:
    def test_ascii_to_stdout(self, files):
        status, output = run(["render", files["rule.xgl"]])
        assert status == 0
        assert "book" in output and "#" in output

    def test_svg_to_file(self, files):
        target = files["tmp"] / "out.svg"
        status, output = run(["render", files["rule.xgl"], "-o", str(target)])
        assert status == 0
        assert target.read_text().startswith("<svg")

    def test_wglog_rendering(self, files):
        status, output = run(["render", files["rules.wgl"], "--lang", "wglog"])
        assert status == 0
        assert "book" in output


class TestValidateCommand:
    def test_valid_document(self, files):
        status, output = run(
            ["validate", files["data.xml"], "--dtd", files["schema.dtd"]]
        )
        assert status == 0
        assert "# 0 violation(s)" in output

    def test_invalid_document_nonzero_exit(self, files):
        status, output = run(
            ["validate", files["bad.xml"], "--dtd", files["schema.dtd"]]
        )
        assert status == 1
        assert "year" in output

    def test_as_xmlgl_schema(self, files):
        status, output = run(
            [
                "validate", files["bad.xml"],
                "--dtd", files["schema.dtd"], "--as-xmlgl",
            ]
        )
        assert status == 1


class TestCompareCommand:
    def test_report(self, files):
        status, output = run(["compare", "--entries", "10", "--seed", "1"])
        assert status == 0
        assert "XML-GL" in output and "AGREE" in output


class TestInferCommand:
    def test_xmlgl_schema_output(self, files):
        status, output = run(["infer", files["data.xml"]])
        assert status == 0
        assert "root bib" in output
        assert "book -> title" in output

    def test_dtd_output(self, files):
        status, output = run(["infer", files["data.xml"], "--dtd"])
        assert status == 0
        assert "<!ELEMENT" in output

    def test_wglog_output(self, files):
        status, output = run(["infer", files["data.xml"], "--wglog"])
        assert status == 0
        assert "entity book" in output
        assert "-child->" in output

    def test_multiple_documents(self, files, tmp_path):
        other = tmp_path / "other.xml"
        other.write_text("<bib><book year='1'><title>t</title></book></bib>")
        status, output = run(["infer", files["data.xml"], str(other)])
        assert status == 0


class TestFmtCommand:
    def test_xmlgl_canonical(self, files):
        status, output = run(["fmt", files["rule.xgl"]])
        assert status == 0
        assert "query {" in output and "construct {" in output
        # canonical form is a fixpoint: formatting it again is identical
        import tempfile, os
        with tempfile.NamedTemporaryFile("w", suffix=".xgl", delete=False) as f:
            f.write(output)
            path = f.name
        try:
            status2, output2 = run(["fmt", path])
        finally:
            os.unlink(path)
        assert status2 == 0 and output2 == output

    def test_wglog_canonical(self, files):
        status, output = run(["fmt", files["rules.wgl"], "--lang", "wglog"])
        assert status == 0
        assert "match {" in output


class TestRunCommand:
    def test_runs_like_xmlgl(self, files):
        status, output = run(["run", files["rule.xgl"], files["data.xml"]])
        assert status == 0
        assert "<title>New</title>" in output

    def test_trace_prints_span_tree_to_stderr(self, files, capsys):
        status, output = run(
            ["run", files["rule.xgl"], files["data.xml"], "--trace"]
        )
        assert status == 0
        assert "<title>New</title>" in output
        err = capsys.readouterr().err
        assert "match" in err and "construct" in err

    def test_explain_replaces_result(self, files):
        status, output = run(
            ["run", files["rule.xgl"], files["data.xml"], "--explain"]
        )
        assert status == 0
        assert output.startswith("EXPLAIN")
        assert "<recent>" not in output

    def test_records_into_global_registry(self, files):
        from repro.engine.metrics import global_registry

        before = global_registry.queries
        status, _ = run(["run", files["rule.xgl"], files["data.xml"]])
        assert status == 0
        assert global_registry.queries == before + 1

    def test_metrics_flag_prints_snapshot(self, files, capsys):
        status, _ = run(
            ["run", files["rule.xgl"], files["data.xml"], "--metrics"]
        )
        assert status == 0
        err = capsys.readouterr().err
        import json

        assert json.loads(err)["queries"] >= 1

    def test_missing_document(self, files):
        status, _ = run(["run", files["rule.xgl"]])
        assert status == 2


class TestExplainCommand:
    def test_explains_with_document(self, files):
        status, output = run(["explain", files["rule.xgl"], files["data.xml"]])
        assert status == 0
        assert output.startswith("EXPLAIN")
        assert "fragment" in output
        assert "pools" in output

    def test_no_document_uses_synthetic_workload(self, files):
        status, output = run(["explain", files["rule.xgl"]])
        assert status == 0
        assert "built-in bibliography" in output

    def test_json_round_trips(self, files):
        import json

        status, output = run(
            ["explain", files["rule.xgl"], files["data.xml"], "--format", "json"]
        )
        assert status == 0
        payload = json.loads(output)
        assert payload["graphs"][0]["fragments"]

    def test_shipped_example_join_query(self):
        # the acceptance path: the committed FIG-Q3 example must explain
        # against the synthetic workload; forcing the pipeline shows the
        # join forest and the pre/post semi-join pool sizes
        status, output = run(
            ["explain", "examples/fig_q3_join.xgl", "--engine", "pipeline"]
        )
        assert status == 0
        assert "join forest" in output
        assert "semi-join" in output
        assert "->" in output

    def test_shipped_example_pipeline_default(self):
        # without --engine the same example runs on the pipeline default
        # and reports the plan-cache outcome
        status, output = run(["explain", "examples/fig_q3_join.xgl"])
        assert status == 0
        assert "engine: pipeline" in output
        assert "plan: " in output
        assert "join forest" in output

    def test_shipped_negation_example_runs_on_the_pipeline(self):
        # a crossed arc filters its parent's pool: no fragment falls back
        import json

        status, output = run(
            ["explain", "examples/fig_q5_negation.xgl", "--format", "json"]
        )
        assert status == 0
        fragments = json.loads(output)["graphs"][0]["fragments"]
        assert [f["decision"] for f in fragments] == ["pipeline"]

    def test_missing_file(self):
        status, _ = run(["explain", "/nonexistent.xgl"])
        assert status == 2


class TestWatchCommand:
    WATCH_RULE = (
        "query { book as B { title as T } } construct { r { collect T } }"
    )

    def setup_files(self, tmp_path, edits):
        import json

        rule = tmp_path / "watch.xgl"
        rule.write_text(self.WATCH_RULE)
        doc = tmp_path / "watch.xml"
        doc.write_text(DATA)
        script = tmp_path / "edits.json"
        script.write_text(json.dumps(edits))
        return str(rule), str(doc), str(script)

    def test_prints_deltas_per_batch(self, tmp_path):
        rule, doc, script = self.setup_files(
            tmp_path,
            [
                [{"op": "insert", "parent": [],
                  "xml": "<book><title>Third</title></book>"}],
                [{"op": "delete", "target": [0]}],
            ],
        )
        status, output = run(["watch", rule, doc, "--edits", script])
        assert status == 0
        assert "# initial rows: 2" in output
        assert "rev 1: +1 -0" in output
        assert "Third" in output
        assert "rev 2: +0 -1" in output
        assert "# final rows: 2" in output

    def test_irrelevant_batches_produce_no_delta_lines(self, tmp_path, capsys):
        rule, doc, script = self.setup_files(
            tmp_path,
            [[{"op": "insert", "parent": [], "xml": "<journal/>"}]],
        )
        status, output = run(["watch", rule, doc, "--edits", script, "--stats"])
        assert status == 0
        assert "rev" not in output.replace("rows", "")
        stderr = capsys.readouterr().err
        assert "no delta" in stderr
        assert "1 skips" in stderr

    def test_bad_script_shape_is_usage_error(self, tmp_path, capsys):
        rule, doc, script = self.setup_files(tmp_path, [])
        (tmp_path / "edits.json").write_text('{"not": "a list"}')
        status, _ = run(["watch", rule, doc, "--edits", script])
        assert status == 2
