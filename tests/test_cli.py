"""CLI exit codes (0 success, 1 stage error, 2 config error) and the layer
names the benchmark tracer patches."""

import importlib.util
import os
from pathlib import Path
import subprocess
import sys

import pytest

from thermoform.cli import main

ROOT = Path(__file__).resolve().parents[1]

TENT2 = {"experiment": {"family": "tent", "parameter": 2.0, "base_depth": 1,
                        "n_max": 12, "bins": 512}}
# a one-rung stability sweep, about 1 s serial
TENT19 = {"experiment": {"family": "tent", "parameter": 1.9, "t_values": 1.0,
                         "ladder": 0.005, "ladder_direction": -1,
                         "n_max": 12, "bins": 512}}
BAD_BRACKET = {"pressure": {"bracket_lo": 3.0, "bracket_hi": 5.0}}


def write_config(path, sections):
    with open(path, "w") as fh:
        for section, keys in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in keys.items():
                fh.write(f"{key} = {value}\n")
    return str(path)


def run_cli(tmp_path, command, sections):
    cfg = write_config(tmp_path / "config.ini", sections)
    return main([command, "--config", cfg, "--out", str(tmp_path / "out")])


def test_pressure_exit_ok(tmp_path):
    assert run_cli(tmp_path, "pressure", TENT2) == 0
    rows = (tmp_path / "out" / "pressure.csv").read_text().splitlines()
    assert rows[0] == "t,pressure" and len(rows) == 2


@pytest.mark.parametrize("command, name, header", [
    ("partition", "partition.csv", "level,index,left,right,itinerary"),
    ("tower", "tower.dot", "digraph hofbauer {"),
    ("induce", "scheme.csv", "index,left,right,tau,itinerary"),
    ("equilibrium", "equilibrium_t1.csv", "bin_left,mass"),
])
def test_command_exit_ok(tmp_path, command, name, header):
    assert run_cli(tmp_path, command, TENT2) == 0
    out = tmp_path / "out"
    assert [p.name for p in out.iterdir()] == [name]
    assert (out / name).read_text().splitlines()[0] == header


def test_config_errors_exit_2(tmp_path):
    assert run_cli(tmp_path, "pressure", {"experiment": {"family": "nope"}}) == 2
    # a key nothing reads is refused, not ignored
    assert run_cli(tmp_path, "pressure",
                   dict(TENT2, pressure={"k_max": 4})) == 2
    assert run_cli(tmp_path, "equilibrium",
                   dict(TENT2, pressure={"estimator": "zk"})) == 2
    assert run_cli(tmp_path, "equilibrium",
                   dict(TENT2, gibbs={"tail_allowance": 0.05})) == 2
    assert run_cli(tmp_path, "stability",
                   dict(TENT19, gibbs={"variation_kmax": 4})) == 2
    assert run_cli(tmp_path, "equilibrium",
                   dict(TENT2, output={"plot": "on"})) == 2
    # the density comes from the operator's own eigen solve
    for key, value in (("rho_tol", 1e-8), ("rho_iters", 1000)):
        assert run_cli(tmp_path, "equilibrium",
                       dict(TENT2, gibbs={key: value})) == 2
    cfg = write_config(tmp_path / "config.ini", TENT2)
    with pytest.raises(SystemExit) as exc:
        main(["equilibrium", "--config", cfg, "--plot"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, section, key, value", [
    ("tower", "tower", "height", 0),
    ("pressure", "pressure", "grid", 1),
    ("equilibrium", "experiment", "bins", 0),
    ("equilibrium", "gibbs", "split_parts", 0),
    ("partition", "experiment", "base_depth", -1),
    ("partition", "experiment", "base_depth", 21),
    ("induce", "experiment", "n_max", 0),
    ("equilibrium", "gibbs", "weight_depth", 0),
    ("tower", "tower", "max_domains", 0),
    ("stability", "output", "threads", 0),
])
def test_out_of_range_values_exit_2(tmp_path, command, section, key, value):
    # each value would crash the command or be run as another one
    sections = TENT19 if command == "stability" else TENT2
    sections = dict(sections, **{section: dict(sections.get(section, {}),
                                               **{key: value})})
    assert run_cli(tmp_path, command, sections) == 2


def test_threads_flag_out_of_range_exits_2(tmp_path):
    cfg = write_config(tmp_path / "config.ini", TENT19)
    assert main(["stability", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--threads", "0"]) == 2


def test_unbracketed_pressure_exits_1(tmp_path):
    # every command that solves the pressure equation honours the bracket
    for command in ("pressure", "equilibrium"):
        assert run_cli(tmp_path, command, dict(TENT2, **BAD_BRACKET)) == 1


def test_stability_honours_bracket_and_max_domains(tmp_path):
    assert run_cli(tmp_path, "stability", dict(TENT19, **BAD_BRACKET)) == 1
    assert run_cli(tmp_path, "stability",
                   dict(TENT19, tower={"max_domains": 1})) == 1


def test_stability_prints_capped_weight_depth(tmp_path, capsys):
    assert run_cli(tmp_path, "stability",
                   dict(TENT19, gibbs={"weight_depth": 4})) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.startswith("stability sweep tent base 1.9: 1 rows, ")
    assert "weight_depth 2 ->" in summary


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def run_traced(tmp_path, command, sections):
    """Run the CLI under perfbench/spans.py and return its span files.

    spans.py patches layer functions by name, so a rename must fail here,
    not only in the benchmark.
    """
    cfg = write_config(tmp_path / "config.ini", sections)
    trace = tmp_path / "trace"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "spans.py"), str(trace),
         command, "--config", cfg, "--out", str(tmp_path / "out")],
        env=env, check=True, capture_output=True, timeout=300)
    return load_spans().load(trace)


def test_tracer_reports_every_layer(tmp_path):
    spans = load_spans()
    metrics = spans.summarize(run_traced(tmp_path, "equilibrium", TENT2), 1)
    wanted = {name for name, _, _ in spans.PER_LAYER} - {"trace.overhead_frac"}
    assert wanted <= set(metrics), sorted(wanted - set(metrics))


def test_tracer_sees_pool_rungs(tmp_path):
    # run_sweep, _pipeline_state and _rung_worker in a process-pool sweep
    spans = load_spans()
    flushes = run_traced(tmp_path, "stability",
                         dict(TENT19, output={"threads": 2}))
    assert [p for p, _ in spans.rungs(flushes)] == [pytest.approx(1.895)]
    metrics = spans.summarize(flushes, 2)
    # the base scheme is built once, in the parent, not again in the worker
    assert metrics["stability.scheme_builds_useful_frac"] == 1.0
    assert metrics["stability.pool.worker_busy_frac"] > 0
