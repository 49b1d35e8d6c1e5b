import os

import pytest

from axgate.scenario import (
    ScenarioError,
    load_scenario,
    parse_scenario,
    replay,
)

SHIPPED_POLICY = os.path.abspath("src/axgate/policies/sec15c3_5.pol")

SMALL_SCENARIO = f"""\
name = small_burst
policy = {SHIPPED_POLICY}

[state]
share_price = {{"minor": 20000, "ccy": "USD"}}
daily_capital = {{"minor": 500000000000, "ccy": "USD"}}
max_order_size = 10000

[step]
tool = execute_trade
expect = Refuted
repeat = 20
params = {{"symbol": "AAPL", "volume": 99999, "type": "market"}}

[step]
tool = execute_trade
expect = Proven
params = {{"volume": 500}}
state_after = {{"max_order_size": 100}}

[step]
tool = execute_trade
expect = Refuted
params = {{"volume": 500}}
"""


@pytest.fixture()
def scenario(tmp_path):
    path = tmp_path / "small.scn"
    path.write_text(SMALL_SCENARIO, encoding="utf-8")
    return load_scenario(str(path))


def test_parse_scenario_shape(scenario):
    assert scenario.name == "small_burst"
    assert len(scenario.steps) == 3
    assert scenario.steps[0].repeat == 20
    assert scenario.steps[1].state_after == {"max_order_size": 100}
    assert scenario.initial_state["max_order_size"] == 10000


def test_parse_errors():
    with pytest.raises(ScenarioError):
        parse_scenario("name = x\n")  # no policy
    with pytest.raises(ScenarioError):
        parse_scenario(
            'name = x\npolicy_text = concept v : quantity from request "V"\n'
            "[step]\ntool = t\nexpect = Maybe\n"
        )
    with pytest.raises(ScenarioError):
        parse_scenario("name = x\npolicy_text = bogus {\n")
    # state_after touching a request-origin symbol violates the invariant
    with pytest.raises(ScenarioError):
        parse_scenario(
            "name = x\n"
            'policy_text = concept v : quantity from request "V"\\n'
            "axiom a permit t when v > 0\n"
            "[step]\ntool = t\nexpect = Proven\n"
            'state_after = {"v": 1}\n'
        )


def test_empty_scenario_trivially_passes():
    report = replay(parse_scenario(
        'name = empty\npolicy_text = concept v : quantity from request "V"\\n'
        "axiom a permit t when v > 0\n"
    ))
    assert report.ok
    assert report.steps == ()
    assert report.passed == 0


def test_replay_kernel_with_state_mutation(scenario):
    report = replay(scenario, mode="kernel")
    assert report.ok, report.render()
    assert len(report.steps) == 22
    assert report.passed == 22
    # the mutation dropped max_order_size to 100, flipping the last step
    assert report.steps[-1].actual == "Refuted"


def test_replay_determinism(scenario):
    a = replay(scenario, mode="kernel").render()
    b = replay(scenario, mode="kernel").render()
    assert a == b


def test_replay_mismatch_reported(tmp_path):
    text = SMALL_SCENARIO.replace("expect = Proven", "expect = Refuted")
    path = tmp_path / "bad.scn"
    path.write_text(text, encoding="utf-8")
    report = replay(load_scenario(str(path)), mode="kernel")
    assert not report.ok
    mismatch = report.first_mismatch()
    assert mismatch is not None
    assert mismatch.index == 20
    assert "FAIL" in report.render()


def test_replay_gateway_enforce(scenario):
    report = replay(scenario, mode="gateway", gateway_mode="enforce")
    assert report.ok, report.render()
    # only the single Proven step may reach the upstream
    assert report.upstream_hits == 1
    assert report.upstream_bytes_ok is True
    audited = dict(report.audited)
    assert audited == {"Proven": 1, "Refuted": 21}


def test_replay_gateway_shadow(scenario):
    report = replay(scenario, mode="gateway", gateway_mode="shadow")
    assert report.ok, report.render()
    assert report.upstream_hits == 22  # everything forwards in shadow
    assert report.upstream_bytes_ok is True
    audited = dict(report.audited)
    assert audited == {"Proven": 1, "Refuted": 21}


def test_module_docstring_example_parses_and_replays():
    import re
    import textwrap

    import axgate.scenario as scenario_module

    block = re.search(r"\n\n((?:    .*\n|\n)+)", scenario_module.__doc__)
    scenario = parse_scenario(
        textwrap.dedent(block.group(1)),
        base_dir=os.path.join(os.path.dirname(scenario_module.__file__),
                              "scenarios"))
    assert scenario.name == "knight_burst"
    assert scenario.steps[0].state_after == {"max_order_size": 500}
    report = replay(scenario)
    assert report.ok and report.passed == 1000, report.render()


def test_shipped_knight_burst_parses():
    scenario = load_scenario("src/axgate/scenarios/knight_burst.scn")
    assert scenario.name == "knight_burst"
    assert scenario.steps[0].repeat == 1000
    assert scenario.steps[0].expect == "Refuted"
