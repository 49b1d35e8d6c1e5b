"""Command-line interface.

    axgate compile <file.pol> [--print-digest]
    axgate serve --config <file>
    axgate audit verify <log> [--expect-head DIGEST]
    axgate audit show <log> --seq N
    axgate audit explain <log> --request-id R --policy <file.pol>
                         [--traces <file>]
    axgate bench --policy <file> --samples N [--state <json>]
                 [--tool NAME] [--params JSON]
    axgate difftest --seed S --cases N [--env-reuse K]
    axgate replay <scenario.scn> --mode {kernel,gateway}
                  [--gateway-mode {shadow,enforce}]
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .audit import (
    archive_path,
    find_record,
    load_archived_bindings,
    verify_chain,
)
from .bench import bench
from .compiler import compile_file
from .gateway import load_config, serve
from .kernel import ActionRequest, RefusalCause, SystemState, verify
from .notices import render_notice_from_parts
from .oracle import oracle_verify
from .randgen import iter_instances
from .scenario import load_scenario, replay
from .values import Money


def _compiled(path: str):
    """The environment the policy at `path` compiles to, or None. Its
    diagnostics go to stderr either way."""
    result = compile_file(path)
    for diag in result.diagnostics:
        print(diag.render(), file=sys.stderr)
    return result.environment


def _cmd_compile(args) -> int:
    env = _compiled(args.file)
    if env is None:
        return 1
    if args.print_digest:
        print(env.version_digest)
    return 0


def _cmd_serve(args) -> int:
    from .gateway import GatewayStartupError

    try:
        config = load_config(args.config)
        serve(config)
    except (OSError, GatewayStartupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for diag in getattr(exc, "diagnostics", []):
            print(diag.render(), file=sys.stderr)
        return 1
    return 0


def _cmd_audit_verify(args) -> int:
    report = verify_chain(args.file, expected_head=args.expect_head)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_audit_show(args) -> int:
    record = find_record(args.file, seq=args.seq)
    if record is None:
        print(f"no record with seq {args.seq}", file=sys.stderr)
        return 1
    doc = record.payload()
    doc["record_digest"] = record.record_digest
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _synthesize_value(decl):
    if decl.kind == "quantity":
        return Fraction(1)
    if decl.kind == "money":
        return Money(Fraction(100), decl.ccy)
    if decl.kind == "flag":
        return True
    if decl.kind == "enum":
        return decl.atoms[0]
    return "bench"


def _cmd_audit_explain(args) -> int:
    record = find_record(args.file, request_id=args.request_id)
    if record is None:
        print(f"no record for request id {args.request_id!r}", file=sys.stderr)
        return 1
    if record.decision != "Refuted":
        print(f"request {args.request_id!r} was {record.decision}; "
              f"no notice to render")
        return 0
    env = _compiled(args.policy)
    if env is None:
        return 1
    if env.version_digest != record.env_version:
        print(f"error: {args.policy} compiles to version {env.version_digest}, "
              f"but the record was decided under {record.env_version}",
              file=sys.stderr)
        return 1
    bindings = load_archived_bindings(args.traces or archive_path(args.file),
                                      record.trace_digest, env)
    causes = tuple(RefusalCause(*c) for c in record.refusal_causes)
    notice = render_notice_from_parts(causes, bindings, env, record.request_id)
    print(notice.render())
    return 0


def _cmd_bench(args) -> int:
    env = _compiled(args.policy)
    if env is None:
        return 1

    from .gateway import coerce_facts, load_state_file

    raw_params = json.loads(args.params) if args.params else {}
    if not isinstance(raw_params, dict):
        print("error: --params must be a JSON object", file=sys.stderr)
        return 1
    state_facts = {}
    if args.state:
        state_facts = load_state_file(args.state, env).facts
        if state_facts is None:
            print(f"error: cannot read state facts from {args.state}",
                  file=sys.stderr)
            return 1

    params = {}
    facts = {}
    for decl in env.registry:
        if decl.origin == "derived":
            continue
        target = params if decl.origin == "request" else facts
        target[decl.symbol] = _synthesize_value(decl)
    params.update(coerce_facts(raw_params, env, "request"))
    facts.update(state_facts)

    request = ActionRequest("bench", args.tool, params)
    state = SystemState(facts)
    report = bench(env, request, state, args.samples)
    sample = verify(request, state, env)
    print(report.render())
    print(f"decision under benchmarked bindings: {sample.decision}")
    return 0


def _cmd_difftest(args) -> int:
    mismatches = 0
    decisions = {"Proven": 0, "Refuted": 0}
    for inst in iter_instances(args.seed, args.cases, env_reuse=args.env_reuse):
        kernel = verify(inst.request, inst.state, inst.env).decision
        oracle = oracle_verify(inst.request, inst.state, inst.env)
        decisions[kernel] += 1
        if kernel != oracle:
            mismatches += 1
            print(f"MISMATCH request={inst.request.request_id} "
                  f"kernel={kernel} oracle={oracle}", file=sys.stderr)
            print(inst.source, file=sys.stderr)
    print(f"cases: {args.cases}  proven: {decisions['Proven']}  "
          f"refuted: {decisions['Refuted']}  mismatches: {mismatches}")
    return 0 if mismatches == 0 else 1


def _cmd_replay(args) -> int:
    scenario = load_scenario(args.scenario)
    report = replay(scenario, mode=args.mode, gateway_mode=args.gateway_mode)
    print(report.render(), end="")
    if not report.ok:
        mismatch = report.first_mismatch()
        if mismatch is not None:
            print(f"first divergent step: {mismatch.index} "
                  f"({mismatch.request_id}: expected {mismatch.expected}, "
                  f"got {mismatch.actual})", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="axgate", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a policy file")
    p.add_argument("file")
    p.add_argument("--print-digest", action="store_true")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("serve", help="run the interception gateway")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_serve)

    audit = sub.add_parser("audit", help="audit log tools")
    audit_sub = audit.add_subparsers(dest="audit_command", required=True)
    p = audit_sub.add_parser("verify", help="verify the hash chain")
    p.add_argument("file")
    p.add_argument("--expect-head",
                   help="trusted head digest; detects tail truncation")
    p.set_defaults(func=_cmd_audit_verify)
    p = audit_sub.add_parser("show", help="print one record")
    p.add_argument("file")
    p.add_argument("--seq", type=int, required=True)
    p.set_defaults(func=_cmd_audit_show)
    p = audit_sub.add_parser("explain", help="re-render a refusal notice")
    p.add_argument("file")
    p.add_argument("--request-id", required=True)
    p.add_argument("--policy", required=True,
                   help="the policy source the record was decided under")
    p.add_argument("--traces", help="trace archive (default: <log>.traces)")
    p.set_defaults(func=_cmd_audit_explain)

    p = sub.add_parser("bench", help="latency microbenchmark")
    p.add_argument("--policy", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--tool", default="execute_trade")
    p.add_argument("--params", help="request params JSON")
    p.add_argument("--state", help="state facts JSON file")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("difftest", help="kernel vs brute-force oracle")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cases", type=int, required=True)
    p.add_argument("--env-reuse", type=int, default=25)
    p.set_defaults(func=_cmd_difftest)

    p = sub.add_parser("replay", help="replay a scripted scenario")
    p.add_argument("scenario")
    p.add_argument("--mode", choices=("kernel", "gateway"), default="kernel")
    p.add_argument("--gateway-mode", choices=("shadow", "enforce"),
                   default="enforce")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    from .scenario import ScenarioError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
