"""Seeded inputs, op command lines and output checks for the eitlab benchmark.

Every workload op is one call of ``eitlab.cli.main(argv)`` on a config that
``write_cases`` generated from the seed; the program only ever sees those
files.  Each ``check_*`` function compares one op's output directory with an
oracle that does not share the code path under test and returns a list of
problems (empty when the output is correct).

Importing this module imports numpy and ``eitlab.cli``; the benchmark times
that import as part of its set-up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

import eitlab.cli  # noqa: F401  (the entry point every op calls)
from eitlab.nls import Envelope, NlsCoefficients, analytic_soliton, nls_coefficients, soliton_fidelity
from eitlab.params import config_from_dict
from eitlab.response import bloch_generator, solve_direct

SPECTRUM_HEADER = ("delta_p,re_rho_ba,im_rho_ba,re_rho_ca,im_rho_ca,"
                   "re_rho_da,im_rho_da,re_rho_ea,im_rho_ea")
SNAPSHOT_HEADER = "tau_ret,abs,re,im"
WATERFALL_HEADER = "zeta,tau_ret,abs,re,im"

#: Relative difference allowed between a CSV row and the 4x4 oracle
#: (the acceptance suite's criterion 2).
ORACLE_RTOL = 1e-10
#: A row whose 4x4 system has a condition number above this cannot be
#: certified to ORACLE_RTOL by the oracle (its error bound is cond * eps), so
#: the check treats the oracle as singular there and skips the row.
ORACLE_MAX_COND = ORACLE_RTOL / np.finfo(float).eps
#: Rows of each spectrum checked against the oracle, besides line centre.
ORACLE_ROWS = 16
#: Lowest normalized overlap of the final full-mode snapshot with the
#: analytic soliton.
MIN_FIDELITY = 0.99
#: RMS bound on |u| against the analytic sech, relative to its amplitude
#: (the acceptance suite's criterion 8).
MAX_RMS = 1e-3

#: The three Fig. 4 interference regimes, in the fixed proportions the
#: spectrum generator cycles through: A (alpha, beta != 0), B (beta = 0),
#: C (alpha = 0).
REGIMES = ("A", "B", "C")
TAU_NOMINAL = 1.0e-7
PROPAGATE_CHECKPOINTS = (0.5, 1.0)
#: Split-step op shape: the checkpoint sits this fraction of a dispersion
#: length out and is reached in exactly this many Strang steps.
SPLITSTEP_FRACTION = 0.75
SPLITSTEP_STEPS = 300


@dataclass(frozen=True)
class Case:
    """One generated input: its config file and what the op and check need."""

    path: Path
    argv: list[str]
    work: int
    meta: dict


@dataclass(frozen=True)
class Shape:
    """Sizes of the generated inputs; ``FULL`` is the benchmark, ``TINY`` its tests."""

    configs: int
    spectrum_points: int
    grid_points: int
    split_steps: int


FULL = Shape(configs=48, spectrum_points=2001, grid_points=2**14, split_steps=SPLITSTEP_STEPS)
TINY = Shape(configs=3, spectrum_points=201, grid_points=2**10, split_steps=30)


def _preset(name: str) -> dict:
    text = resources.files("eitlab").joinpath("presets", f"{name}.json").read_text("utf-8")
    return json.loads(text)


def _field(amplitude: float, phase: float) -> dict:
    return {"amplitude": float(amplitude), "phase": float(phase)}


def spectrum_controls(rng: np.random.Generator, regime: str) -> list[dict]:
    """Four control fields in one interference regime, amplitudes in 0.1-1.0 gamma.

    Regime B sets o1*o4 = o2*o3 (beta = 0), regime C sets
    conj(o1)*o3 = -conj(o2)*o4 (alpha = 0); the fourth amplitude is derived,
    so draws are repeated until it also lies in range.
    """
    while True:
        amp = rng.uniform(0.1, 1.0, size=3)
        phase = rng.uniform(-math.pi, math.pi, size=4)
        if regime == "A":
            a4 = rng.uniform(0.1, 1.0)
        elif regime == "B":
            a4 = amp[1] * amp[2] / amp[0]
            phase[3] = phase[1] + phase[2] - phase[0]
        else:
            a4 = amp[0] * amp[2] / amp[1]
            phase[3] = phase[1] + phase[2] - phase[0] + math.pi
        if 0.1 <= a4 <= 1.0:
            return [_field(a, p) for a, p in zip((*amp, a4), phase)]


def _spectrum_cases(rng, directory: Path, shape: Shape) -> list[Case]:
    cases = []
    for i in range(shape.configs):
        regime = REGIMES[i % len(REGIMES)]
        data = {
            "gamma_unit": 1.0,
            "controls": spectrum_controls(rng, regime),
            "probe": _field(0.01, 0.0),
            "detunings": {"p": 0.0, "two": 0.0, "three": 0.0},
            "decays": {"b": 1.0, "e": 1.0},
            "eta": 1.0,
        }
        path = directory / f"spectrum_{i:03d}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = ["spectrum", "--config", str(path), "--grid-points", str(shape.spectrum_points)]
        cases.append(Case(path, argv, shape.spectrum_points,
                          {"points": shape.spectrum_points}))
    return cases


def _soliton_config(rng, shape: Shape) -> tuple[dict, float]:
    data = _preset("cs_soliton")
    tau = TAU_NOMINAL * float(rng.uniform(0.9, 1.1))
    data["pulse"]["tau"] = tau
    data["propagation"]["grid_points"] = shape.grid_points
    return data, tau


def _propagate_cases(rng, directory: Path, shape: Shape) -> list[Case]:
    cases = []
    checkpoints = ",".join(repr(z) for z in PROPAGATE_CHECKPOINTS)
    for i in range(shape.configs):
        data, tau = _soliton_config(rng, shape)
        path = directory / f"propagate_{i:03d}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = ["propagate", "--config", str(path), "--mode", "full",
                "--checkpoints", checkpoints]
        cases.append(Case(path, argv, shape.grid_points * len(PROPAGATE_CHECKPOINTS),
                          {"tau": tau, "points": shape.grid_points,
                           "checkpoints": PROPAGATE_CHECKPOINTS}))
    return cases


def _coefficients(data: dict) -> NlsCoefficients:
    """Envelope-equation coefficients of a run config's physics block."""
    return nls_coefficients(config_from_dict(
        {k: v for k, v in data.items() if k not in ("pulse", "propagation")}))


def _splitstep_cases(rng, directory: Path, shape: Shape) -> list[Case]:
    # The physics block of cs_soliton fixes kappa2, so the dispersion length
    # tau^2/|kappa2_r| only varies with the drawn width.
    coeffs = _coefficients(_preset("cs_soliton"))
    cases = []
    for i in range(shape.configs):
        data, tau = _soliton_config(rng, shape)
        l_disp = tau**2 / abs(coeffs.kappa2_r)
        zeta = SPLITSTEP_FRACTION * l_disp * shape.split_steps / SPLITSTEP_STEPS
        # Half a step of slack keeps ceil(zeta/dz) at split_steps under rounding.
        data["propagation"]["dz"] = zeta / (shape.split_steps - 0.5)
        path = directory / f"splitstep_{i:03d}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = ["propagate", "--config", str(path), "--mode", "ideal",
                "--checkpoints", repr(zeta)]
        cases.append(Case(path, argv, shape.split_steps,
                          {"tau": tau, "points": shape.grid_points,
                           "checkpoints": (zeta,)}))
    return cases


_GENERATORS = {
    "spectrum": _spectrum_cases,
    "propagate": _propagate_cases,
    "splitstep": _splitstep_cases,
}


def write_cases(workload: str, seed: int, directory: str | Path, tiny: bool = False) -> list[Case]:
    """Generate the workload's configs from ``seed`` and write them to ``directory``.

    The same seed always gives the same files.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(_GENERATORS).index(workload)])
    return _GENERATORS[workload](rng, directory, TINY if tiny else FULL)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _read_csv(path: Path, header: str, columns: int, problems: list[str]) -> np.ndarray | None:
    if not path.is_file():
        problems.append(f"{path.name} missing")
        return None
    with path.open(encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            problems.append(f"{path.name}: header {first!r}")
            return None
        try:
            table = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            problems.append(f"{path.name}: {exc}")
            return None
    if table.shape[1] != columns:
        problems.append(f"{path.name}: {table.shape[1]} columns, expected {columns}")
        return None
    if not np.all(np.isfinite(table)):
        problems.append(f"{path.name}: non-finite values")
        return None
    return table


def oracle_rows(points: int, rng: np.random.Generator) -> list[int]:
    """Rows of a spectrum checked against the oracle: a seeded sample plus line centre."""
    sample = rng.choice(points, size=min(ORACLE_ROWS, points), replace=False)
    return sorted({int(i) for i in sample} | {points // 2})


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)


def check_spectrum(case: Case, out: Path, rng: np.random.Generator) -> list[str]:
    problems: list[str] = []
    table = _read_csv(out / "spectrum.csv", SPECTRUM_HEADER, 9, problems)
    if table is None:
        return problems
    points = case.meta["points"]
    if table.shape[0] != points:
        return [f"spectrum.csv: {table.shape[0]} rows, expected {points}"]
    if not np.array_equal(table[:, 0], np.linspace(-5.0, 5.0, points)):
        problems.append("spectrum.csv: detuning column is not the default grid")
    cfg = config_from_dict(json.loads(case.path.read_text(encoding="utf-8")))
    checked = 0
    for row in oracle_rows(points, rng):
        dp = float(table[row, 0])
        local = cfg.with_delta_p(dp)
        # The sideband matrix is -i times the Bloch generator: same condition.
        if np.linalg.cond(bloch_generator(local)[0]) > ORACLE_MAX_COND:
            continue
        oracle = solve_direct(local, 0.0).as_array()
        checked += 1
        got = table[row, 1::2] + 1j * table[row, 2::2]
        diff = rel_diff(got, oracle)
        if not diff < ORACLE_RTOL:
            problems.append(f"spectrum.csv row {row} (delta_p={dp!r}): "
                            f"relative difference {diff:.3e} from the 4x4 oracle")
    if not checked:
        problems.append("spectrum.csv: no sampled row could be checked against the oracle")
    return problems


def _snapshots(case: Case, out: Path, problems: list[str]) -> list[np.ndarray]:
    points = case.meta["points"]
    tables = []
    for i in range(1, len(case.meta["checkpoints"]) + 1):
        table = _read_csv(out / f"snapshot_{i:03d}.csv", SNAPSHOT_HEADER, 4, problems)
        if table is not None and table.shape[0] != points:
            problems.append(f"snapshot_{i:03d}.csv: {table.shape[0]} rows, expected {points}")
            table = None
        tables.append(table)
    return tables


def _analytic(case: Case, table: np.ndarray, zeta: float):
    data = json.loads(case.path.read_text(encoding="utf-8"))
    soliton = analytic_soliton(_coefficients(data), case.meta["tau"])
    return soliton, soliton.envelope(table[:, 0], zeta=zeta)


def check_propagate(case: Case, out: Path, rng: np.random.Generator) -> list[str]:
    problems: list[str] = []
    snaps = _snapshots(case, out, problems)
    points, checkpoints = case.meta["points"], case.meta["checkpoints"]
    waterfall = out / "waterfall.csv"
    if not waterfall.is_file():
        problems.append("waterfall.csv missing")
    else:
        with waterfall.open(encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            rows = sum(1 for _ in fh)
        if header != WATERFALL_HEADER or rows != points * len(checkpoints):
            problems.append(f"waterfall.csv: header {header!r}, {rows} rows, "
                            f"expected {points * len(checkpoints)}")
    final = snaps[-1]
    if final is not None:
        _soliton, reference = _analytic(case, final, checkpoints[-1])
        dt = float(final[1, 0] - final[0, 0])
        got = Envelope(samples=final[:, 2] + 1j * final[:, 3], dt_grid=dt)
        fidelity = soliton_fidelity(Envelope(samples=reference, dt_grid=dt), got)
        if not fidelity >= MIN_FIDELITY:
            problems.append(f"final snapshot fidelity {fidelity:.6f} < {MIN_FIDELITY}")
    return problems


def check_splitstep(case: Case, out: Path, rng: np.random.Generator) -> list[str]:
    problems: list[str] = []
    (snap,) = _snapshots(case, out, problems)
    if snap is not None:
        soliton, reference = _analytic(case, snap, case.meta["checkpoints"][-1])
        rms = float(np.sqrt(np.mean((snap[:, 1] - np.abs(reference)) ** 2))
                    / soliton.spec.amplitude)
        if not rms < MAX_RMS:
            problems.append(f"snapshot RMS |u| error {rms:.3e} >= {MAX_RMS}")
    try:
        listed = set(json.loads((out / "manifest.json").read_text("utf-8"))["outputs"])
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"manifest.json unreadable: {exc}"]
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    if listed != written:
        problems.append(f"manifest lists {sorted(listed)}, directory holds {sorted(written)}")
    return problems


CHECKS = {
    "spectrum": check_spectrum,
    "propagate": check_propagate,
    "splitstep": check_splitstep,
}
