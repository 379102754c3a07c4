"""Command-line interface.

Everything the library does, scriptable from a shell::

    python -m repro xmlgl rule.xgl data.xml            # run a query
    python -m repro xmlgl rule.xgl a.xml --source b=c.xml
    python -m repro run rule.xgl data.xml --trace      # run + span tree
    python -m repro run rule.xgl data.xml --timeout 50 --on-limit partial
    python -m repro explain rule.xgl                   # EXPLAIN ANALYZE
    python -m repro wglog rules.wgl data.xml --apply   # generative semantics
    python -m repro lint rule.xgl --format json        # static analysis
    python -m repro rewrite rule.xgl                   # static query rewriting
    python -m repro render rule.xgl -o figure.svg      # draw the query
    python -m repro validate data.xml --dtd schema.dtd
    python -m repro compare --entries 30               # TAB-1 + FIG-Q* report

Rule files hold the textual DSLs of :mod:`repro.xmlgl.dsl` /
:mod:`repro.wglog.dsl`; exit status is non-zero on errors and on failed
validation, so the commands compose in shell pipelines.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for the tests and for --help docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graphical query languages for semi-structured data "
        "(XML-GL and WG-Log).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    xmlgl = commands.add_parser("xmlgl", help="run an XML-GL rule or program")
    xmlgl.add_argument("rule", help="rule/program file (XML-GL DSL)")
    xmlgl.add_argument("document", nargs="?", help="input XML document")
    xmlgl.add_argument(
        "--source",
        action="append",
        default=[],
        metavar="NAME=FILE",
        help="named source document (repeatable)",
    )
    xmlgl.add_argument("--compact", action="store_true", help="no pretty printing")
    xmlgl.add_argument(
        "--stats", action="store_true",
        help="print evaluation counters (EvalStats) to stderr",
    )

    run = commands.add_parser(
        "run", help="run an XML-GL rule with observability (tracing/EXPLAIN)"
    )
    run.add_argument("rule", help="rule/program file (XML-GL DSL)")
    run.add_argument("document", nargs="?", help="input XML document")
    run.add_argument(
        "--source",
        action="append",
        default=[],
        metavar="NAME=FILE",
        help="named source document (repeatable)",
    )
    run.add_argument("--compact", action="store_true", help="no pretty printing")
    run.add_argument(
        "--trace", action="store_true",
        help="record spans and print the span tree to stderr after the result",
    )
    run.add_argument(
        "--explain", action="store_true",
        help="print the EXPLAIN report instead of the result document",
    )
    run.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="EXPLAIN output format (with --explain)",
    )
    run.add_argument(
        "--no-rewrite", action="store_true",
        help="evaluate the drawn query verbatim, skipping the static "
        "rewrite layer (canonicalization, minimization, pruning)",
    )
    run.add_argument(
        "--metrics", action="store_true",
        help="print the process metrics snapshot (JSON) to stderr afterwards",
    )
    run.add_argument(
        "--timeout", type=float, metavar="MS",
        help="query deadline in milliseconds (QueryBudget.deadline_ms)",
    )
    run.add_argument(
        "--max-work", type=int, metavar="UNITS",
        help="cap on matcher work units (QueryBudget.max_work)",
    )
    run.add_argument(
        "--on-limit", choices=("raise", "partial"), default="raise",
        help="on a tripped budget: fail (exit 4) or return a truncated "
        "result flagged in the stats (default: raise)",
    )
    run.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="shard the input document by top-level subtree across N "
        "worker processes and merge the per-shard results (collect-style "
        "constructs only; budgets apply per shard; incompatible with "
        "--trace/--explain)",
    )

    explain = commands.add_parser(
        "explain",
        help="EXPLAIN ANALYZE an XML-GL rule: join forest, engine decisions, "
        "semi-join pool sizes",
    )
    explain.add_argument("rule", help="rule file (XML-GL DSL)")
    explain.add_argument(
        "document", nargs="?",
        help="input XML document (default: built-in synthetic bibliography)",
    )
    explain.add_argument(
        "--source",
        action="append",
        default=[],
        metavar="NAME=FILE",
        help="named source document (repeatable)",
    )
    explain.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report output format",
    )
    explain.add_argument(
        "--engine",
        choices=("pipeline", "backtracking", "naive"),
        default="pipeline",
        help="evaluation engine (default: pipeline)",
    )
    explain.add_argument(
        "--no-rewrite", action="store_true",
        help="explain the drawn query verbatim, skipping the static "
        "rewrite layer",
    )

    wglog = commands.add_parser("wglog", help="run WG-Log rules over bridged XML")
    wglog.add_argument("rules", help="rules file (WG-Log DSL, optional schema block)")
    wglog.add_argument("document", help="input XML document (bridged to a graph)")
    wglog.add_argument(
        "--apply", action="store_true",
        help="apply rules generatively (fixpoint) and print the instance",
    )
    wglog.add_argument(
        "--no-schema-check", action="store_true",
        help="skip checking rules against the file's schema block",
    )

    lint = commands.add_parser(
        "lint", help="statically analyse a rule file (no evaluation)"
    )
    lint.add_argument("rule", help="rule/program file (either DSL)")
    lint.add_argument(
        "--lang", choices=("xmlgl", "wglog"), default="xmlgl",
        help="which language the file is written in",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="diagnostic output format",
    )
    lint.add_argument(
        "--schema",
        help="schema to lint against: a DTD file for xmlgl "
        "(wglog uses the rule file's own schema block)",
    )

    rewrite = commands.add_parser(
        "rewrite",
        help="statically rewrite a rule file: canonicalization, "
        "containment-based minimization, condition simplification",
    )
    rewrite.add_argument("rule", help="rule/program file (either DSL)")
    rewrite.add_argument(
        "--lang", choices=("xmlgl", "wglog"), default="xmlgl",
        help="which language the file is written in",
    )
    rewrite.add_argument(
        "--schema",
        help="DTD file enabling schema-informed pruning (xmlgl only); "
        "the rewrites then assume documents conform to it",
    )
    rewrite.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report output format",
    )

    render = commands.add_parser("render", help="render a rule as SVG/ASCII")
    render.add_argument("rule", help="rule file (either DSL)")
    render.add_argument(
        "--lang", choices=("xmlgl", "wglog"), default="xmlgl",
        help="which language the file is written in",
    )
    render.add_argument("-o", "--output", help="SVG output path (default: stdout ASCII)")

    validate = commands.add_parser("validate", help="validate XML against a DTD")
    validate.add_argument("document", help="input XML document")
    validate.add_argument("--dtd", required=True, help="DTD file")
    validate.add_argument(
        "--as-xmlgl", action="store_true",
        help="translate the DTD to an XML-GL schema graph and validate with it",
    )

    compare = commands.add_parser(
        "compare", help="print TAB-1 and the paired-query agreement report"
    )
    compare.add_argument("--entries", type=int, default=30, help="dataset size")
    compare.add_argument("--seed", type=int, default=3, help="dataset seed")

    fmt = commands.add_parser(
        "fmt", help="reprint a rule file in canonical DSL form"
    )
    fmt.add_argument("rule", help="rule/program file")
    fmt.add_argument(
        "--lang", choices=("xmlgl", "wglog"), default="xmlgl",
        help="which language the file is written in",
    )

    infer = commands.add_parser(
        "infer", help="infer a schema from XML documents (DataGuide-style)"
    )
    infer.add_argument("documents", nargs="+", help="sample XML documents")
    infer.add_argument(
        "--dtd", action="store_true",
        help="emit DTD text instead of the XML-GL schema description",
    )
    infer.add_argument(
        "--wglog", action="store_true",
        help="bridge the first document to a graph and infer a WG-Log schema",
    )

    serve = commands.add_parser(
        "serve", help="run the async multi-tenant query service"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8601,
        help="bind port (0 picks an ephemeral port, printed at startup)",
    )
    serve.add_argument(
        "--document", action="append", default=[], metavar="NAME=FILE",
        help="load an XML document into the store at startup (repeatable)",
    )
    serve.add_argument(
        "--tenant", action="append", default=[], metavar="SPEC",
        help=(
            "tenant spec NAME[,key=value]... — keys: max_concurrency, "
            "max_queue, deadline_ms, max_work, max_bindings, "
            "max_result_nodes, max_hashjoin_rows, on_limit (repeatable)"
        ),
    )
    serve.add_argument(
        "--max-workers", type=int, default=8,
        help="evaluation executor threads",
    )

    watch = commands.add_parser(
        "watch",
        help="run a continuous query over a mutating document",
        description=(
            "Subscribe a rule to a document, replay a JSON edit script "
            "batch by batch, and print the binding deltas each commit "
            "produces.  The edit script is a JSON list of batches; each "
            "batch is a list of op objects in the mutation wire form "
            "(see repro.engine.mutate.ops_from_spec)."
        ),
    )
    watch.add_argument("rule", help="file containing one XML-GL rule")
    watch.add_argument("document", help="XML document to mutate and watch")
    watch.add_argument(
        "--edits", required=True, metavar="FILE",
        help="JSON edit script: a list of batches of op objects",
    )
    watch.add_argument(
        "--stats", action="store_true",
        help="print subscription eval/skip counters to stderr",
    )

    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_document(path: str):
    from .ssd import parse_document

    return parse_document(_read(path))


def _gather_sources(args: argparse.Namespace):
    """Sources from positional ``document`` + repeatable ``--source NAME=FILE``.

    Returns ``None`` when the arguments were malformed (an error has been
    printed) and the sentinel ``{}`` when no document at all was named —
    callers decide whether that is an error or means "use a default".
    """
    sources: dict = {}
    for spec in args.source:
        name, _, path = spec.partition("=")
        if not path:
            print(f"--source expects NAME=FILE, got {spec!r}", file=sys.stderr)
            return None
        sources[name] = _load_document(path)
    if args.document:
        if sources:
            sources.setdefault("input", _load_document(args.document))
        else:
            return _load_document(args.document)
    return sources


def _cmd_xmlgl(args: argparse.Namespace, out) -> int:
    from .engine.stats import EvalStats
    from .ssd import pretty, serialize
    from .xmlgl import evaluate_program
    from .xmlgl.dsl import parse_program

    program = parse_program(_read(args.rule))
    sources = _gather_sources(args)
    if sources is None:
        return 2
    if not sources:
        print("no input document given", file=sys.stderr)
        return 2
    stats = EvalStats()
    result = evaluate_program(program, sources, stats=stats)
    print(serialize(result) if args.compact else pretty(result), file=out)
    if args.stats:
        for counter, amount in stats.as_dict().items():
            shown = f"{amount:.6f}" if counter == "seconds" else str(amount)
            print(f"# {counter}: {shown}", file=sys.stderr)
    return 0


def _cmd_run(args: argparse.Namespace, out) -> int:
    import time
    from dataclasses import replace

    from .engine.limits import QueryBudget
    from .engine.metrics import global_registry
    from .engine.options import ExecOptions
    from .engine.stats import EvalStats
    from .engine.trace import Tracer
    from .errors import BudgetExceeded, QueryCancelled
    from .ssd import pretty, serialize
    from .xmlgl import evaluate_program
    from .xmlgl.dsl import parse_program

    program = parse_program(_read(args.rule))
    sources = _gather_sources(args)
    if sources is None:
        return 2
    budget = None
    if args.timeout is not None or args.max_work is not None:
        budget = QueryBudget(
            deadline_ms=args.timeout,
            max_work=args.max_work,
            on_limit=args.on_limit,
        )
    options = ExecOptions(rewrite=not args.no_rewrite)
    if args.explain:
        from .explain import explain

        if len(program.rules) > 1:
            print(
                "# note: explaining the first of "
                f"{len(program.rules)} rules",
                file=sys.stderr,
            )
        report = explain(
            program.rules[0], sources if sources else None, options=options
        )
        print(report.render(args.format), file=out)
        if args.metrics:
            print(global_registry.to_json(), file=sys.stderr)
        return 0
    if not sources:
        print("no input document given", file=sys.stderr)
        return 2
    options = replace(options, budget=budget)
    if args.workers and args.workers > 1:
        return _run_sharded(args, program, sources, options, out)
    stats = EvalStats()
    if args.trace:
        stats.trace = Tracer()
    started = time.perf_counter()
    try:
        result = evaluate_program(program, sources, options=options, stats=stats)
    except (BudgetExceeded, QueryCancelled) as error:
        elapsed = time.perf_counter() - started
        global_registry.record(stats, seconds=elapsed, query=args.rule, error=True)
        print(f"error: {error}", file=sys.stderr)
        if args.trace and stats.trace is not None:
            print(stats.trace.render_text(), file=sys.stderr)
        if args.metrics:
            print(global_registry.to_json(), file=sys.stderr)
        return 4
    elapsed = time.perf_counter() - started
    global_registry.record(stats, seconds=elapsed, query=args.rule)
    print(serialize(result) if args.compact else pretty(result), file=out)
    if stats.extra.get("truncated"):
        cause = next(
            (
                key[len("truncated_by_"):]
                for key in stats.extra
                if key.startswith("truncated_by_")
            ),
            "?",
        )
        print(
            f"# truncated: budget limit {cause} reached (partial result)",
            file=sys.stderr,
        )
    if args.trace:
        print(stats.trace.render_text(), file=sys.stderr)
    if args.metrics:
        print(global_registry.to_json(), file=sys.stderr)
    return 0


def _run_sharded(args: argparse.Namespace, program, sources, options, out) -> int:
    """The ``repro run --workers N`` arm: document sharding + merge.

    Splits the (single, unnamed) input document by top-level subtree,
    evaluates the program's first rule per shard on a process pool, and
    merges the per-shard result documents in document order.  Sound for
    collect-style constructs whose matches stay inside one top-level
    subtree; global aggregations must run single-process.
    """
    from .engine.metrics import global_registry
    from .engine.shard import ShardedExecutor, merge_shard_results, shard_document
    from .errors import BudgetExceeded, QueryCancelled
    from .ssd import pretty, serialize
    from .ssd.model import Document
    from .xmlgl.unparse import unparse_rule

    if args.trace:
        print("error: --trace is incompatible with --workers", file=sys.stderr)
        return 2
    if not isinstance(sources, Document):
        print(
            "error: --workers requires a single positional input document",
            file=sys.stderr,
        )
        return 2
    if len(program.rules) > 1:
        print(
            f"# note: running the first of {len(program.rules)} rules",
            file=sys.stderr,
        )
    query = unparse_rule(program.rules[0])
    pieces = shard_document(sources, args.workers)
    executor = ShardedExecutor(max_workers=args.workers)
    # One single-document corpus entry per shard: outcomes come back in
    # shard (= document) order with merged stats and typed errors.
    run = executor.map_corpus(
        query,
        {f"shard{position}": piece for position, piece in enumerate(pieces)},
        shards=len(pieces),
        options=options,
    )
    failed = next((error for error in run.errors if error is not None), None)
    if failed is not None:
        global_registry.record(run.stats, query=args.rule, error=True)
        print(f"error: {failed}", file=sys.stderr)
        return 4 if isinstance(failed, (BudgetExceeded, QueryCancelled)) else 2
    global_registry.record(run.stats, query=args.rule)
    result = merge_shard_results([doc for doc in run.results if doc is not None])
    print(serialize(result) if args.compact else pretty(result), file=out)
    print(
        f"# sharded: {len(pieces)} shard(s) across up to {args.workers} "
        "worker process(es)",
        file=sys.stderr,
    )
    if args.metrics:
        print(global_registry.to_json(), file=sys.stderr)
    return 0


def _cmd_explain(args: argparse.Namespace, out) -> int:
    from .explain import explain
    from .xmlgl.dsl import parse_program

    program = parse_program(_read(args.rule))
    sources = _gather_sources(args)
    if sources is None:
        return 2
    if len(program.rules) > 1:
        print(
            f"# note: explaining the first of {len(program.rules)} rules",
            file=sys.stderr,
        )
    from .engine.options import ExecOptions

    options = ExecOptions(engine=args.engine, rewrite=not args.no_rewrite)
    report = explain(
        program.rules[0], sources if sources else None, options=options
    )
    print(report.render(args.format), file=out)
    return 0


def _cmd_wglog(args: argparse.Namespace, out) -> int:
    from .wglog import apply_program, document_to_instance, query
    from .wglog.dsl import parse_wglog

    schema, rules = parse_wglog(_read(args.rules))
    if args.no_schema_check:
        schema = None
    instance, _ = document_to_instance(_load_document(args.document))
    if args.apply:
        added = apply_program(instance, rules, schema=schema)
        print(f"# additions: {added}", file=out)
        print(instance.describe(), file=out)
        return 0
    for rule in rules:
        bindings = query(rule, instance, schema=schema)
        print(f"# rule {rule.name or '?'}: {len(bindings)} matches", file=out)
        for binding in bindings:
            row = ", ".join(f"{k}={binding[k]}" for k in sorted(binding))
            print(f"  {row}", file=out)
    return 0


def _cmd_lint(args: argparse.Namespace, out) -> int:
    from .analysis import (
        AnalysisContext,
        analyze_program,
        analyze_rule,
        has_errors,
        render_json,
        render_text,
    )

    source = _read(args.rule)
    if args.lang == "xmlgl":
        from .xmlgl.dsl import parse_program

        xml_schema = None
        if args.schema:
            from .ssd import parse_dtd
            from .xmlgl.schema import dtd_to_schema

            dtd = parse_dtd(_read(args.schema))
            if not dtd.elements:
                print("error: the DTD declares no elements", file=sys.stderr)
                return 2
            root = next(iter(dtd.elements))
            xml_schema, _ = dtd_to_schema(dtd, root)
        context = AnalysisContext(xml_schema=xml_schema)
        findings = []
        for rule in parse_program(source).rules:
            findings.extend(analyze_rule(rule, context))
    else:
        from .wglog.dsl import parse_wglog

        wg_schema, rules = parse_wglog(source)
        context = AnalysisContext(wg_schema=wg_schema)
        findings = analyze_program(rules, context)
    print(
        render_json(findings) if args.format == "json" else render_text(findings),
        file=out,
    )
    return 1 if has_errors(findings) else 0


def _cmd_rewrite(args: argparse.Namespace, out) -> int:
    import json

    from .analysis import render_text
    from .analysis.rewrite import rewrite_rule, rewrite_rulegraph

    source = _read(args.rule)
    reports = []  # (name, rewritten_text, RewriteReport)
    if args.lang == "xmlgl":
        from .xmlgl.dsl import parse_program
        from .xmlgl.unparse import unparse_rule

        xml_schema = None
        if args.schema:
            from .ssd import parse_dtd
            from .xmlgl.schema import dtd_to_schema

            dtd = parse_dtd(_read(args.schema))
            if not dtd.elements:
                print("error: the DTD declares no elements", file=sys.stderr)
                return 2
            root = next(iter(dtd.elements))
            xml_schema, _ = dtd_to_schema(dtd, root)
        for position, rule in enumerate(parse_program(source).rules):
            rewritten, report = rewrite_rule(rule, schema=xml_schema)
            name = rule.name or f"rule {position}"
            reports.append((name, unparse_rule(rewritten), report))
    else:
        if args.schema:
            print(
                "error: --schema applies to xmlgl only (wglog uses the "
                "rule file's own schema block)",
                file=sys.stderr,
            )
            return 2
        from .wglog.dsl import parse_wglog
        from .wglog.unparse import unparse_rule as unparse_wg_rule

        _, rules = parse_wglog(source)
        for position, rule in enumerate(rules):
            rewritten, report = rewrite_rulegraph(rule)
            name = rule.name or f"rule {position}"
            reports.append((name, unparse_wg_rule(rewritten), report))
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"rule": name, "rewritten": text, **report.as_dict()}
                    for name, text, report in reports
                ],
                indent=2,
                sort_keys=True,
            ),
            file=out,
        )
    else:
        for name, text, report in reports:
            print(f"# {name}: rewrites: {report.describe()}", file=out)
            if report.diagnostics:
                print(render_text(report.diagnostics), file=out)
            print(text, file=out)
    # a statically-false query is a warning-level outcome, not a failure
    return 0


def _cmd_render(args: argparse.Namespace, out) -> int:
    from .visual import (
        render_ascii,
        render_svg,
        wglog_rule_diagram,
        xmlgl_rule_diagram,
    )

    if args.lang == "xmlgl":
        from .xmlgl.dsl import parse_rule

        diagram = xmlgl_rule_diagram(parse_rule(_read(args.rule)))
    else:
        from .wglog.dsl import parse_wglog

        _, rules = parse_wglog(_read(args.rule))
        diagram = wglog_rule_diagram(rules[0])
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(render_svg(diagram))
        print(f"wrote {args.output}", file=out)
    else:
        print(render_ascii(diagram), file=out)
    return 0


def _cmd_validate(args: argparse.Namespace, out) -> int:
    from .ssd import parse_dtd, validate

    document = _load_document(args.document)
    dtd = parse_dtd(_read(args.dtd))
    if args.as_xmlgl:
        from .xmlgl.schema import dtd_to_schema

        root = document.root.tag if document.root is not None else ""
        schema, notes = dtd_to_schema(dtd, root)
        for note in notes:
            print(f"# note: {note}", file=out)
        violations = schema.validate(document)
    else:
        violations = validate(document, dtd)
    for violation in violations:
        print(violation, file=out)
    print(f"# {len(violations)} violation(s)", file=out)
    return 1 if violations else 0


def _cmd_compare(args: argparse.Namespace, out) -> int:
    from .compare import compare_catalog, render_matrix, report
    from .workloads import bibliography

    print(render_matrix(), file=out)
    print(file=out)
    results = compare_catalog(bibliography(args.entries, seed=args.seed))
    print(report(results), file=out)
    disagreements = [r for r in results if r.comparable and not r.agree]
    return 1 if disagreements else 0


def _cmd_fmt(args: argparse.Namespace, out) -> int:
    if args.lang == "xmlgl":
        from .xmlgl.dsl import parse_program
        from .xmlgl.unparse import unparse_program

        print(unparse_program(parse_program(_read(args.rule))), file=out)
    else:
        from .wglog.dsl import parse_wglog
        from .wglog.unparse import unparse_wglog

        schema, rules = parse_wglog(_read(args.rule))
        print(unparse_wglog(schema, rules), file=out)
    return 0


def _cmd_infer(args: argparse.Namespace, out) -> int:
    if args.wglog:
        from .wglog import document_to_instance
        from .wglog.schema import infer_wg_schema

        instance, _ = document_to_instance(_load_document(args.documents[0]))
        print(infer_wg_schema(instance).describe(), file=out)
        return 0
    from .ssd import infer_schema

    schema = infer_schema([_load_document(path) for path in args.documents])
    if args.dtd:
        from .xmlgl.schema import schema_to_dtd

        text, notes = schema_to_dtd(schema)
        for note in notes:
            print(f"# note: {note}", file=out)
        print(text, file=out)
    else:
        print(schema.describe(), file=out)
    return 0


def _cmd_serve(args: argparse.Namespace, out) -> int:
    from .server import DocumentStore, ServerConfig, TenantConfig, run_forever

    store = DocumentStore()
    for spec in args.document:
        name, _, path = spec.partition("=")
        if not path:
            print(f"--document expects NAME=FILE, got {spec!r}", file=sys.stderr)
            return 2
        store.add(name, _load_document(path))
    try:
        tenants = tuple(TenantConfig.from_spec(spec) for spec in args.tenant)
        config = ServerConfig(
            host=args.host,
            port=args.port,
            max_workers=args.max_workers,
            tenants=tenants,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    def announce(service) -> None:
        # The "listening on" line is the startup contract: the smoke job
        # and subprocess tests parse the (possibly ephemeral) port off it.
        print(
            f"repro serve listening on {config.host}:{service.port} "
            f"({len(store)} documents, "
            f"{len(service.gates)} tenants)",
            file=out,
            flush=True,
        )

    run_forever(config, store=store, on_ready=announce)
    return 0


def _cmd_watch(args: argparse.Namespace, out) -> int:
    import json

    from .engine.cache import DocumentIndexCache
    from .engine.mutate import ops_from_spec
    from .session import QuerySession
    from .ssd import serialize
    from .ssd.model import Element

    def show(binding) -> str:
        parts = []
        for variable in sorted(binding):
            value = binding[variable]
            rendered = serialize(value) if isinstance(value, Element) else str(value)
            parts.append(f"{variable}={rendered}")
        return " ".join(parts)

    document = _load_document(args.document)
    with open(args.edits, encoding="utf-8") as handle:
        script = json.load(handle)
    if not isinstance(script, list):
        print("--edits file must hold a JSON list of batches", file=sys.stderr)
        return 2
    # A private index cache: the watched document mutates, and nothing
    # else in the process should share its maintained index.
    session = QuerySession(document, indexes=DocumentIndexCache())
    subscription = session.subscribe(_read(args.rule))
    print(f"# initial rows: {len(subscription.rows())}", file=out)
    for position, batch_spec in enumerate(script):
        batch = ops_from_spec(document, batch_spec)
        result = session.mutate(batch)
        deltas = subscription.poll()
        for delta in deltas:
            print(f"# {delta.describe()}", file=out)
            for binding in delta.added:
                print(f"+ {show(binding)}", file=out)
            for binding in delta.removed:
                print(f"- {show(binding)}", file=out)
        if not deltas and args.stats:
            print(
                f"# batch {position}: rev {result.doc_revision} (no delta)",
                file=sys.stderr,
            )
    print(f"# final rows: {len(subscription.rows())}", file=out)
    if args.stats:
        print(f"# {subscription.describe()}", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns the exit status."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "xmlgl": _cmd_xmlgl,
        "run": _cmd_run,
        "explain": _cmd_explain,
        "wglog": _cmd_wglog,
        "lint": _cmd_lint,
        "rewrite": _cmd_rewrite,
        "render": _cmd_render,
        "validate": _cmd_validate,
        "compare": _cmd_compare,
        "infer": _cmd_infer,
        "fmt": _cmd_fmt,
        "serve": _cmd_serve,
        "watch": _cmd_watch,
    }
    try:
        return handlers[args.command](args, out)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`): not an error
        return 0
