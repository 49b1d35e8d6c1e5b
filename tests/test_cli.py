import json
import re

import pytest

from axgate.cli import main

POLICY = """\
concept volume : quantity from request "Order volume (shares)"
concept max_order_size : quantity from state "Maximum order size (shares)"
axiom max_order forbid execute_trade when volume > max_order_size
  explain "Order volume {volume} exceeds the maximum order size {max_order_size}."
axiom ordinary permit execute_trade when volume > 0
"""


@pytest.fixture()
def policy_file(tmp_path):
    path = tmp_path / "policy.pol"
    path.write_text(POLICY, encoding="utf-8")
    return path


def test_compile_success_prints_digest(policy_file, capsys):
    code = main(["compile", str(policy_file), "--print-digest"])
    assert code == 0
    captured = capsys.readouterr()
    digest = captured.out.strip()
    assert re.fullmatch(r"[0-9a-f]{64}", digest)


def test_compile_failure_prints_located_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.pol"
    bad.write_text("axiom x forbid t when ghost > 1\n", encoding="utf-8")
    code = main(["compile", str(bad)])
    assert code == 1
    captured = capsys.readouterr()
    # one-per-line: `severity code line:col message`
    line = captured.err.strip().splitlines()[0]
    assert re.match(r"^error [a-z-]+ \d+:\d+ ", line)


def test_difftest_cli(capsys):
    code = main(["difftest", "--seed", "3", "--cases", "200"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mismatches: 0" in out


def _replay_one_step(tmp_path, expect):
    """`axgate replay` in kernel mode of one call that the policy proves,
    with `expect` as the expected decision."""
    scn = tmp_path / "s.scn"
    scn.write_text(
        "name = tiny\npolicy = policy.pol\n[state]\nmax_order_size = 100\n"
        f"[step]\ntool = execute_trade\nexpect = {expect}\n"
        'params = {"volume": 5}\n', encoding="utf-8")
    (tmp_path / "policy.pol").write_text(POLICY, encoding="utf-8")
    return main(["replay", str(scn), "--mode", "kernel"])


def test_replay_cli(tmp_path, capsys):
    assert _replay_one_step(tmp_path, "Proven") == 0
    out = capsys.readouterr().out
    assert "passed: 1" in out and "failed: 0" in out


def test_replay_cli_mismatch_exit_code(tmp_path, capsys):
    assert _replay_one_step(tmp_path, "Refuted") == 1
    assert "first divergent step: 0" in capsys.readouterr().err


def test_bench_cli(policy_file, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"facts": {"max_order_size": 100}}))
    code = main([
        "bench", "--policy", str(policy_file), "--samples", "500",
        "--state", str(state), "--params", '{"volume": 5}',
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "p50" in out and "decision under benchmarked bindings: Proven" in out


def test_bench_cli_reads_the_state_file_as_the_gateway_does(policy_file,
                                                          tmp_path, capsys):
    state = tmp_path / "state.json"
    bench = ["bench", "--policy", str(policy_file), "--samples", "50"]
    state.write_text(json.dumps({"facts": {"unregistered": 5}}))
    assert main([*bench, "--state", str(state)]) == 0
    assert "decision under benchmarked bindings: Proven" in \
        capsys.readouterr().out
    # only {"facts": {...}} is a state file: a bare object is not
    for unreadable in ("[1, 2]", "{not json", '{"facts": 5}',
                       '{"max_order_size": 100}'):
        state.write_text(unreadable)
        assert main([*bench, "--state", str(state)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
    assert main([*bench, "--state", str(tmp_path / "absent.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("params", ["5", "[1]", '"volume"', "{not json"])
def test_bench_cli_refuses_params_that_are_not_an_object(policy_file, params,
                                                         capsys):
    code = main(["bench", "--policy", str(policy_file), "--samples", "50",
                 "--params", params])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def _refuse_through_gateway(policy_path, facts, params, request_id, workdir):
    """Send one refused /v1/execute through a real gateway; return the audit
    log path and the notice lines of the 403 response."""
    from pathlib import Path

    from axgate.gateway import Gateway
    from axgate.scenario import gateway_config, request

    workdir.mkdir(exist_ok=True)
    source = Path(policy_path).read_text(encoding="utf-8")
    config = gateway_config(workdir, source, facts, "http://127.0.0.1:9/none")
    body = json.dumps({"request_id": request_id, "tool": "execute_trade",
                       "params": params}).encode()
    with Gateway(config) as gw:
        status, _, data = request(gw.address, "POST", "/v1/execute", body)
        gw.pump.drain()
    assert status == 403
    return Path(config.audit_log_path), json.loads(data)["notice"]["lines"]


def test_audit_cli_verify_show_explain(policy_file, tmp_path, capsys):
    # produce a real audit log + trace archive through the gateway
    log, lines = _refuse_through_gateway(
        policy_file, {"max_order_size": 100}, {"volume": 99999}, "blocked-1",
        tmp_path / "quantity")

    assert main(["audit", "verify", str(log)]) == 0
    out = capsys.readouterr().out
    assert "chain intact" in out

    assert main(["audit", "show", str(log), "--seq", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["request_id"] == "blocked-1"
    assert doc["decision"] == "Refuted"

    assert main(["audit", "explain", str(log), "--request-id", "blocked-1",
                 "--policy", str(policy_file)]) == 0
    out = capsys.readouterr().out
    assert "Order volume 99999 exceeds the maximum order size 100." in out
    assert out.splitlines() == lines

    assert main(["audit", "show", str(log), "--seq", "99"]) == 1
    capsys.readouterr()

    # a policy that compiles to another version is not the one the record
    # was decided under: explain names both digests and renders nothing
    other = tmp_path / "other.pol"
    other.write_text(
        'concept volume : money "USD" from request "Order volume (shares)"\n'
        'concept max_order_size : money "USD" from state '
        '"Maximum order size (shares)"\n'
        "axiom max_order forbid execute_trade when volume > max_order_size\n"
        '  explain "Order volume {volume} exceeds the maximum order size '
        '{max_order_size}."\n', encoding="utf-8")
    record_version = json.loads(log.read_text())["env_version"]
    assert main(["compile", str(other), "--print-digest"]) == 0
    other_version = capsys.readouterr().out.strip()
    assert other_version != record_version
    assert main(["audit", "explain", str(log), "--request-id", "blocked-1",
                 "--policy", str(other)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert other_version in captured.err and record_version in captured.err


def test_audit_cli_explain_renders_the_shipped_policy_notice(tmp_path,
                                                             capsys):
    # capital_threshold cites two money bindings, one of them derived
    shipped = "src/axgate/policies/sec15c3_5.pol"
    log, lines = _refuse_through_gateway(
        shipped,
        {"share_price": {"minor": 20000, "ccy": "USD"},
         "daily_capital": {"minor": 5_000_000_000, "ccy": "USD"},
         "max_order_size": 100000},
        {"volume": 50000}, "blocked-2", tmp_path / "money")
    assert lines == ["Trade value 10000000 USD exceeds 10% of the available "
                     "daily capital 50000000 USD."]
    assert main(["audit", "explain", str(log), "--request-id", "blocked-2",
                 "--policy", shipped]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_audit_cli_explain_refuses_a_policy_with_diagnostics(
        policy_file, tmp_path, capsys):
    log, _ = _refuse_through_gateway(
        policy_file, {"max_order_size": 100}, {"volume": 99999}, "blocked-1",
        tmp_path / "gw")
    bad = tmp_path / "bad.pol"
    bad.write_text("axiom x forbid t when ghost > 1\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["audit", "explain", str(log), "--request-id", "blocked-1",
                 "--policy", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(r"^error unregistered-symbol 1:23 ", captured.err)


def test_audit_cli_reports_a_line_that_is_not_a_record(tmp_path, capsys):
    log = tmp_path / "audit.log"
    log.write_text('\n{"seq": 1}\n', encoding="utf-8")
    for argv in (["audit", "show", str(log), "--seq", "1"],
                 ["audit", "explain", str(log), "--request-id", "r",
                  "--policy", str(tmp_path / "unused.pol")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 1" in err


def test_audit_cli_explain_skips_damaged_archive_lines(policy_file, tmp_path,
                                                       capsys):
    log, lines = _refuse_through_gateway(
        policy_file, {"max_order_size": 100}, {"volume": 99999}, "blocked-1",
        tmp_path / "gw")
    archive = tmp_path / "gw" / "audit.log.traces"
    good = archive.read_bytes()
    entry = b'{"trace_digest": "%s", "trace": %%s}\n' % \
        json.loads(good)["trace_digest"].encode()
    unavailable = ["Order volume <Order volume (shares): unavailable> exceeds "
                   "the maximum order size <Maximum order size (shares): "
                   "unavailable>."]
    for damaged, expected in (
        (b"[1]\nnot json\n" + good, lines),
        # the record's own entry, damaged inside: its values are unavailable
        (entry % b"5", unavailable),
        (entry % b'{"bindings": 5}', unavailable),
        (entry % b'{"bindings": {"volume": "1/0", "max_order_size": 100}}',
         unavailable),
        # a damaged entry hides no later one
        (entry % b"5" + good, lines),
    ):
        archive.write_bytes(damaged)
        capsys.readouterr()
        assert main(["audit", "explain", str(log), "--request-id",
                     "blocked-1", "--policy", str(policy_file)]) == 0, damaged
        assert capsys.readouterr().out.splitlines() == expected, damaged


def test_audit_cli_show_prints_only_a_verified_chain_prefix(tmp_path,
                                                            capsys):
    """With one byte flipped in record k, `audit verify` reports it as
    before, `audit show` prints every record before it and exits 1 on it
    and after it, naming the line and the verifier's cause."""
    from axgate.audit import AuditWriter

    log = tmp_path / "audit.log"
    with AuditWriter(str(log), fsync=False) as writer:
        for i in range(10):
            writer.append(ts_ns=i, request_id=f"r{i}", tool="execute_trade",
                          env_version="e" * 64, decision="Refuted",
                          trace_digest="t" * 64, refusal_causes=(),
                          enforced=True)
    k = 6
    lines = log.read_bytes().splitlines(keepends=True)
    lines[k] = lines[k].replace(b'"request_id":"r6"', b'"request_id":"s6"')
    log.write_bytes(b"".join(lines))

    assert main(["audit", "verify", str(log)]) == 1
    assert capsys.readouterr().out == \
        f"bad record at index {k}: digest-mismatch\n"
    for j in range(10):
        code = main(["audit", "show", str(log), "--seq", str(j)])
        captured = capsys.readouterr()
        if j < k:
            assert code == 0
            assert json.loads(captured.out)["request_id"] == f"r{j}"
        else:
            assert (code, captured.out) == (1, "")
            assert f"line {k + 1} fails verification: digest-mismatch" in \
                captured.err


def test_audit_cli_explain_ignores_an_entry_edited_under_its_digest(
        policy_file, tmp_path, capsys):
    """An archive entry rewritten canonically with another binding, under
    the record's trace digest, is not the trace that digest names: its
    values render as unavailable instead of as the edited figures."""
    from axgate.canonical import canonical_bytes

    log, lines = _refuse_through_gateway(
        policy_file, {"max_order_size": 100}, {"volume": 99999}, "blocked-1",
        tmp_path / "gw")
    archive = tmp_path / "gw" / "audit.log.traces"
    doc = json.loads(archive.read_bytes())
    doc["trace"]["bindings"]["volume"] = "50/1"
    archive.write_bytes(canonical_bytes(doc) + b"\n")
    capsys.readouterr()
    assert main(["audit", "explain", str(log), "--request-id", "blocked-1",
                 "--policy", str(policy_file)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "Order volume <Order volume (shares): unavailable> exceeds the "
        "maximum order size <Maximum order size (shares): unavailable>."]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_readme_cli_block_parses():
    """Every `$ axgate ...` line of README's CLI block, optional parts
    included, is a command line the parser accepts."""
    import pathlib
    import shlex

    from axgate.cli import build_parser

    readme = pathlib.Path(__file__).parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```console\n", 1)[1].split("```", 1)[0]
    commands = [line[len("$ axgate "):] for line in block.splitlines()
                if line.startswith("$ axgate ")]
    assert len(commands) >= 8
    parser = build_parser()
    for command in commands:
        argv = shlex.split(command.replace("[", "").replace("]", ""))
        parser.parse_args(argv)  # SystemExit on an unknown flag or command
