"""CLI exit codes (0 success, 1 stage error, 2 config error) and the layer
names the benchmark tracer patches."""

import importlib.util
import os
from pathlib import Path
import subprocess
import sys

from thermoform.cli import main

ROOT = Path(__file__).resolve().parents[1]

TENT2 = {"experiment": {"family": "tent", "parameter": 2.0, "base_depth": 1,
                        "n_max": 12, "bins": 512}}


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


def test_config_errors_exit_2(tmp_path):
    assert run_cli(tmp_path, "pressure", {"experiment": {"family": "nope"}}) == 2
    # a key nothing reads is refused, not ignored
    assert run_cli(tmp_path, "pressure",
                   dict(TENT2, pressure={"k_max": 4})) == 2


def test_unbracketed_pressure_exits_1(tmp_path):
    sections = dict(TENT2, pressure={"bracket_lo": 3.0, "bracket_hi": 5.0})
    assert run_cli(tmp_path, "pressure", sections) == 1


def test_tracer_reports_every_layer(tmp_path):
    # perfbench/spans.py patches layer functions by name; a rename must fail
    # here, not only in the benchmark
    cfg = write_config(tmp_path / "config.ini", TENT2)
    trace = tmp_path / "trace"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "spans.py"), str(trace),
         "equilibrium", "--config", cfg, "--out", str(tmp_path / "out")],
        env=env, check=True, capture_output=True, timeout=300)
    spec = importlib.util.spec_from_file_location(
        "spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    metrics = spans.summarize(spans.load(trace), 1)
    wanted = {name for name, _, _ in spans.PER_LAYER} - {"trace.overhead_frac"}
    assert wanted <= set(metrics), sorted(wanted - set(metrics))
