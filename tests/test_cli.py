"""Tests for the `python -m repro` experiment runner."""

import inspect
import os
import subprocess
import sys

import pytest

from repro.__main__ import build_parser
from repro.faults.netcampaign import _RunConfig, run_net_campaign

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def run_cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )


def test_no_args_lists_experiments():
    result = run_cli()
    assert result.returncode == 0
    for key in ("e1", "e6", "e9", "examples"):
        assert key in result.stdout


def test_unknown_experiment_rejected():
    result = run_cli("zz")
    assert result.returncode == 1
    assert "unknown experiment" in result.stdout


def test_runs_a_selected_experiment():
    result = run_cli("f1")
    assert result.returncode == 0
    assert "Figure 1 semantics verified" in result.stdout


def test_runs_multiple_experiments():
    result = run_cli("f1", "e1")
    assert result.returncode == 0
    assert "E1: decision latency" in result.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["loadgen", "--pipeline"],
        ["loadgen", "--codec", "binary"],
        ["loadgen", "--group-commit"],
        ["nemesis", "1", "0", "--net", "--codec", "binary"],
        ["nemesis", "1", "0", "--net", "--group-commit"],
    ],
)
def test_flags_that_only_opted_in_to_the_default_plane_are_gone(argv, capsys):
    with pytest.raises(SystemExit) as refused:
        build_parser().parse_args(argv)
    assert refused.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_serve_has_no_supervisor(capsys):
    # a served node dies only by a kill nobody there issues: there was
    # never anything for a supervisor to restart
    with pytest.raises(SystemExit) as refused:
        build_parser().parse_args(["serve", "--supervise"])
    assert refused.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--monitor"],
        ["serve", "--monitor-interval", "1"],
        ["monitor", "--replay", "F", "--node-limit", "5"],
        ["monitor", "--replay", "F", "--config-limit", "5"],
    ],
)
def test_serve_runs_no_canary_and_monitor_takes_no_budget(capsys, argv):
    # the canary against a served cluster is `monitor --watch --ops N`;
    # a replay runs unbudgeted, a live monitor on the loadgen constants
    with pytest.raises(SystemExit) as refused:
        build_parser().parse_args(argv)
    assert refused.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_nemesis_has_no_sanitize_switch(capsys):
    # every wire chaos run arms the sanitizer: there is nothing to select
    with pytest.raises(SystemExit) as refused:
        build_parser().parse_args(["nemesis", "--net", "--sanitize"])
    assert refused.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["lint", "--baseline"], ["lint", "--baseline-file", "F"]]
)
def test_lint_has_no_baseline(capsys, argv):
    # a finding is accepted one way, an inline disable comment: there
    # is no grandfathering file to write or to point at
    with pytest.raises(SystemExit) as refused:
        build_parser().parse_args(argv)
    assert refused.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_the_plane_is_sized_not_selected():
    parse = build_parser().parse_args
    args = parse(["loadgen", "--shards", "2", "--window", "4"])
    assert not {"pipeline", "codec", "group_commit"} & set(vars(args))
    assert parse(["nemesis", "--net", "--pipelined"]).pipelined


def test_the_campaign_has_no_cluster_configuration_to_pass():
    assert not {"codec", "group_commit"} & set(
        inspect.signature(run_net_campaign).parameters
    )
    assert not {"codec", "group_commit"} & set(
        inspect.signature(_RunConfig).parameters
    )
