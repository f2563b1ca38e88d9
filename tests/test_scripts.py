"""Smoke runs of the experiment scripts in scripts/, thin wrappers over the CLI."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, out: Path, *args: str) -> int:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run(str(out), *args)


def outputs(run_dir: Path) -> list[str]:
    names = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    assert all((run_dir / name).is_file() for name in names)
    return names


def test_reproduce_fig4(tmp_path, capsys):
    assert run_script("reproduce_fig4", tmp_path) == 0
    printed = capsys.readouterr().out
    assert "MISMATCH" not in printed and printed.count("[ok]") == 3
    for name in ("fig4a", "fig4b", "fig4c"):
        assert outputs(tmp_path / name) == ["spectrum.csv"]


def test_reproduce_fig5(tmp_path):
    assert run_script("reproduce_fig5", tmp_path) == 0
    assert outputs(tmp_path / "dispersion") == ["dispersion.json"]
    assert outputs(tmp_path / "soliton") == ["soliton.json"]
    snapshots = [f"snapshot_{i:03d}.csv" for i in range(1, 6)]
    for mode in ("ideal", "full"):
        assert outputs(tmp_path / mode) == snapshots + ["waterfall.csv"]


def test_scan_phase(tmp_path):
    assert run_script("scan_phase", tmp_path) == 0
    assert outputs(tmp_path) == ["scan.csv"]
    rows = (tmp_path / "scan.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 25
