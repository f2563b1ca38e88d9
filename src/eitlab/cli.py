"""Command-line front end.

Subcommands: spectrum | eigen | dispersion | soliton | propagate | scan.
Every run writes its results plus a ``manifest.json`` that records the tool
version, the config (path and content hash), all effective options and the
``validate()`` diagnostics, so any output directory can be reproduced from
its manifest alone.  Outputs depend only on the config and the options: no
code path draws a random number, and ``--seed`` is only recorded.

``main`` runs the protocol every subcommand shares: it resolves and loads
the config, creates the output directory, runs the subcommand, writes the
manifest last (so it marks a complete run), and maps each ``EitlabError`` to
its ``exit_code``.  A subcommand ``cmd_x(args, cfg, pulse, propagation, out)``
only writes its own files and returns their names with its manifest entries.

Exit codes: 0 success, 2 usage/config error, 3 physics-domain error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import ExitStack
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, EitlabError, UnknownField
from .params import FieldConfig, RabiField, Situation, derive_couplings, load_run_config, validate
from .params import config_from_dict  # noqa: F401  (perfbench reads it from this module)
from .response import DEFAULT_SPECTRUM_POINTS, absorption_spectrum, coherence_point, count_peaks
from .dispersion import (
    DEFAULT_GRID_POINTS,
    DEFAULT_WINDOW_WIDTHS,
    GaussianPulseSpec,
    spectral_propagate,
    taylor_coefficients,
)
from .nls import (
    MIN_DARK_WINDOW_WIDTHS,
    analytic_soliton,
    dark_pair_envelope,
    nls_coefficients,
    reference_amplitude,
    split_step,
)
from .numerics import Envelope, centred_times
from .spectral import build_h4, eigensystem_a, eigensystem_b, numeric_eigensystem


def _fmt(x: float) -> str:
    return f"{x:.17g}"


#: Rows per block of every CSV the CLI writes.  Each file is formatted and
#: written one block at a time, so one block bounds the text held in memory
#: and the Python floats of one %-formatting pass: a few hundred kB, whatever
#: the grid size or the number of checkpoints.
_CSV_BLOCK_ROWS = 1024


def _csv_blocks(*columns: np.ndarray):
    """Yield the CSV rows of a column table, a block of rows at a time.

    Each argument is one column or a 2-D block of columns.  Every row ends
    in a newline.  Cells are formatted with %.17g, which keeps every value
    round-trip exact and formats as ``_fmt`` does.  Each block is stacked
    from slices of the columns, so the whole table is never built.
    """
    rows = len(columns[0])
    for start in range(0, rows, _CSV_BLOCK_ROWS):
        block = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in columns])
        line = "%.17g," * (block.shape[1] - 1) + "%.17g\n"
        yield (line * len(block)) % tuple(block.ravel().tolist())


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def preset_names() -> list[str]:
    files = resources.files("eitlab").joinpath("presets")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def _resolve_config(spec: str) -> Path:
    path = Path(spec)
    if path.exists():
        return path
    name = spec[:-5] if spec.endswith(".json") else spec
    candidate = resources.files("eitlab").joinpath("presets", f"{name}.json")
    if candidate.is_file():
        return Path(str(candidate))
    raise ConfigError(
        f"config {spec!r} is neither a file nor a preset (presets: {', '.join(preset_names())})"
    )


def _json_text(node) -> str:
    """Standard (RFC 8259) JSON text of ``node``: a non-finite float becomes null."""
    def finite(x):
        if isinstance(x, float):
            return x if math.isfinite(x) else None
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        return [finite(v) for v in x] if isinstance(x, (list, tuple)) else x
    return json.dumps(finite(node), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_json(out: Path, name: str, payload: dict) -> tuple[list[str], dict]:
    """Write a subcommand's one JSON report, echo it, and return its run record."""
    text = _json_text(payload)
    (out / name).write_text(text, encoding="utf-8")
    print(text, end="")
    return [name], {}


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args, cfg, pulse, propagation, out):
    try:
        spectrum = absorption_spectrum(cfg, args.grid_min, args.grid_max, args.grid_points)
    except ValueError as exc:
        raise ConfigError(f"bad spectrum grid: {exc}") from exc
    points = spectrum.delta_p.size
    header = ("delta_p,re_rho_ba,im_rho_ba,re_rho_ca,im_rho_ca,"
              "re_rho_da,im_rho_da,re_rho_ea,im_rho_ea\n")
    with (out / "spectrum.csv").open("w", encoding="utf-8") as fh:
        fh.write(header)
        # viewed as float, each complex column becomes its (re, im) pair
        fh.writelines(_csv_blocks(spectrum.delta_p, spectrum.coherences.view(float)))
    print(f"wrote {out / 'spectrum.csv'} ({points} points)")
    grid = {"min": float(spectrum.delta_p[0]), "max": float(spectrum.delta_p[-1]),
            "points": points}
    nan_points = int(np.count_nonzero(~np.isfinite(spectrum.coherences).any(axis=1)))
    return ["spectrum.csv"], {"grid": grid, "nan_points": nan_points}


# ---------------------------------------------------------------------------
# eigen
# ---------------------------------------------------------------------------

def cmd_eigen(args, cfg, pulse, propagation, out):
    couplings = derive_couplings(cfg)
    if couplings.situation is Situation.A:
        system = eigensystem_a(cfg)
        method = "closed_form_a"
    elif couplings.situation is Situation.B:
        system = eigensystem_b(cfg)
        method = "closed_form_b"
    else:
        system = numeric_eigensystem(build_h4(cfg))
        method = "numeric"

    payload = {
        "situation": couplings.situation.value,
        "method": method,
        "basis": ["b", "c", "d", "e"],
        "eigenvalues": [float(v) for v in system.eigenvalues],
        "eigenvectors": [
            [_pair(complex(z)) for z in system.eigenvectors[:, j]]
            for j in range(4)
        ],
    }
    return _write_json(out, "eigen.json", payload)


# ---------------------------------------------------------------------------
# dispersion / soliton
# ---------------------------------------------------------------------------

def cmd_dispersion(args, cfg, pulse, propagation, out):
    expansion = taylor_coefficients(cfg)
    payload = {
        "kappa0": _pair(expansion.kappa0),
        "kappa1": _pair(expansion.kappa1),
        "kappa2": _pair(expansion.kappa2),
        "v_g_over_c": expansion.v_g.real / cfg.c_light,
        "chi": expansion.chi,
    }
    return _write_json(out, "dispersion.json", payload)


def cmd_soliton(args, cfg, pulse, propagation, out):
    coeffs = nls_coefficients(cfg)
    payload = {
        "kerr": _pair(coeffs.kerr),
        "theta": _pair(coeffs.theta),
        "kappa2": _pair(coeffs.kappa2),
        "chi": coeffs.chi,
        "theta_r": coeffs.theta_r,
        "kappa2_r": coeffs.kappa2_r,
        "imag_ratio_theta": coeffs.imag_ratio_theta,
        "imag_ratio_kappa2": coeffs.imag_ratio_kappa2,
        "soliton_type": coeffs.soliton_type,
    }
    if coeffs.soliton_type is not None:
        tau = pulse.get("tau", 1.0)
        soliton = analytic_soliton(coeffs, tau)
        payload["amplitude_width_product"] = soliton.amplitude_width_product
        payload["reference_amplitude_width_product"] = reference_amplitude(coeffs, tau) * tau
    return _write_json(out, "soliton.json", payload)


# ---------------------------------------------------------------------------
# propagate
# ---------------------------------------------------------------------------

def _parse_checkpoints(spec: str | None, fallback_length: float) -> list[float]:
    if not spec:
        return [fallback_length]
    try:
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --checkpoints {spec!r}: {exc}") from exc
    if not values:
        return [fallback_length]
    if not all(0 < v < math.inf for v in values) or sorted(values) != values:
        raise ConfigError("--checkpoints must be positive and increasing")
    return values


def _snapshot_name(index: int) -> str:
    return f"snapshot_{index:03d}.csv"


def _modulus(field: np.ndarray) -> np.ndarray:
    # np.hypot matches the scalar abs() of each complex sample bit for bit;
    # np.abs on a complex array differs from it in the last ulp on about a
    # third of the samples.
    return np.hypot(field.real, field.imag)


def _power(field: np.ndarray) -> float:
    """Squared L2 norm, summed pairwise."""
    return float(np.sum(field.real**2 + field.imag**2))


def _write_propagation(out: Path, header: str, frames) -> list[str]:
    """Write one snapshot per checkpoint and the waterfall that stacks them.

    ``frames`` yields (zeta, columns) per checkpoint, the columns of the
    snapshot table under ``header``.  Each block of rows goes to the snapshot
    as soon as it is formatted, and to the waterfall prefixed with its zeta,
    so the cells are formatted once.  No file is opened before the first
    frame is computed: a run that fails there leaves ``out`` untouched.
    """
    outputs = []
    with ExitStack() as files:
        for i, (z, columns) in enumerate(frames, start=1):
            if i == 1:
                waterfall = files.enter_context(
                    (out / "waterfall.csv").open("w", encoding="utf-8"))
                waterfall.write("zeta," + header + "\n")
            name = _snapshot_name(i)
            prefix = "%.17g," % z
            with (out / name).open("w", encoding="utf-8") as snapshot:
                snapshot.write(header + "\n")
                for rows in _csv_blocks(*columns):
                    snapshot.write(rows)
                    # every newline but the last starts the next row
                    waterfall.write(prefix + rows.replace("\n", "\n" + prefix,
                                                          rows.count("\n") - 1))
            outputs.append(name)
    outputs.append("waterfall.csv")
    return outputs


def _propagate_linear(cfg, pulse: dict, propagation: dict, checkpoints, out: Path) -> list[str]:
    tau0 = pulse.get("tau0", 100.0 / cfg.gamma_scale)
    amplitude = pulse.get("amplitude", cfg.omega_p.amplitude)
    points = propagation.get("grid_points", DEFAULT_GRID_POINTS)
    window = propagation.get("window_widths", DEFAULT_WINDOW_WIDTHS) * tau0
    spec = GaussianPulseSpec(amplitude=amplitude, tau0=tau0)
    launch = spec.sample(points=points, window=window)

    def frames():
        for z in checkpoints:
            propagated = spectral_propagate(cfg, launch, z, kappa="full")
            field = propagated.samples
            yield z, (propagated.times(), field.real, field.imag, _modulus(field))

    return _write_propagation(out, "t,re,im,abs", frames())


def _propagate_nonlinear(cfg, pulse: dict, propagation: dict, checkpoints,
                         mode: str, out: Path) -> tuple[list[str], dict]:
    """Split-step the matched soliton through the checkpoints and write it.

    Returns the output names and the run's step facts for the manifest: the
    step bound ``dz``, the Strang steps of each segment (each segment takes
    equal steps no longer than ``dz``) and, in ideal mode, ``l2_norm_drift``,
    the relative change of the squared L2 norm from the launch to the last
    checkpoint.
    """
    coeffs = nls_coefficients(cfg)
    if "tau" not in pulse:
        raise ConfigError("nonlinear propagation needs a positive 'pulse.tau' in the config")
    tau = pulse["tau"]
    kind = pulse.get("kind", "auto")
    soliton = analytic_soliton(coeffs, tau, None if kind == "auto" else kind)

    points = propagation.get("grid_points", DEFAULT_GRID_POINTS)
    dt = propagation.get("window_widths", MIN_DARK_WINDOW_WIDTHS) * tau / points
    if soliton.spec.kind == "dark":
        envelope = dark_pair_envelope(soliton, points, dt)
    else:
        envelope = Envelope(samples=soliton.envelope(centred_times(points, dt)), dt_grid=dt)

    length = checkpoints[-1]
    l_disp = tau**2 / abs(coeffs.kappa2_r) if coeffs.kappa2_r else math.inf
    l_nl = 1.0 / (abs(coeffs.theta_r) * soliton.spec.amplitude**2) if coeffs.theta_r else math.inf
    dz = propagation.get("dz", min(min(l_disp, l_nl) / 200.0, length / 8.0))
    spans = [z - previous for previous, z in zip([0.0] + checkpoints[:-1], checkpoints)]
    steps = [max(1, int(math.ceil(span / dz))) for span in spans]
    facts = {"dz": dz, "steps": steps}

    def frames(envelope):
        power = _power(envelope.samples)
        for z, span, n in zip(checkpoints, spans, steps):
            envelope = split_step(coeffs, envelope, span / n, n, mode=mode)
            field = envelope.samples
            if mode == "ideal":
                # the ideal walk is unitary: this is its rounding drift so far
                facts["l2_norm_drift"] = (_power(field) - power) / power
            yield z, (envelope.times(), _modulus(field), field.real, field.imag)

    return _write_propagation(out, "tau_ret,abs,re,im", frames(envelope)), facts


def cmd_propagate(args, cfg, pulse, propagation, out):
    checkpoints = _parse_checkpoints(args.checkpoints, propagation.get("length", 1.0))
    entries = {"mode": args.mode, "checkpoints": checkpoints}
    if args.mode == "linear":
        outputs = _propagate_linear(cfg, pulse, propagation, checkpoints, out)
    else:
        outputs, facts = _propagate_nonlinear(cfg, pulse, propagation, checkpoints,
                                              args.mode, out)
        entries.update(facts)
    print(f"wrote {len(outputs)} files to {out}")
    return outputs, entries


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

_SCALAR_FIELDS = {
    "detunings.p": "delta_p",
    "detunings.two": "delta_2",
    "detunings.three": "delta_3",
    "decays.b": "gamma_b",
    "decays.e": "gamma_e",
    "eta": "eta",
}


def _apply_field(cfg: FieldConfig, field: str, value: float) -> FieldConfig:
    """Override one scalar field of the config.

    Supported: 'phi' (adjusts the first control phase so the closed-loop
    phase equals the value), 'controls[i].amplitude' / 'controls[i].phase',
    'probe.amplitude' / 'probe.phase', 'detunings.p/two/three',
    'decays.b/e', and 'eta'.  Raises UnknownField for any other name and
    ConfigError for a value outside the field's domain.
    """
    head, _, attr = field.rpartition(".")
    index = head.removeprefix("controls[").removesuffix("]")
    try:
        if field == "phi":
            target = value + cfg.omega2.phase + cfg.omega3.phase - cfg.omega4.phase
            return replace(cfg, omega1=RabiField(cfg.omega1.amplitude, target))
        if field in _SCALAR_FIELDS:
            return replace(cfg, **{_SCALAR_FIELDS[field]: value})
        if head == "probe":
            name = "omega_p"
        elif head == f"controls[{index}]" and index.isdecimal() and int(index) < 4:
            name = f"omega{int(index) + 1}"
        else:
            name = None
        if name is None or attr not in ("amplitude", "phase"):
            raise UnknownField(f"unknown sweep field {field!r}")
        old: RabiField = getattr(cfg, name)
        new = RabiField(value, old.phase) if attr == "amplitude" else RabiField(old.amplitude, value)
        return replace(cfg, **{name: new})
    except ValueError as exc:
        raise ConfigError(f"sweep field {field} = {value!r} is out of its domain: {exc}") from exc


_SCAN_HEADER = ("field,value,situation,im_rho_ba_line_center,peak_count,"
                "chi,kappa2_re,kappa2_im,theta_re,theta_im,soliton_type")


def _scan_row(local: FieldConfig, field: str, value: float) -> str:
    try:
        situation = derive_couplings(local).situation.value
    except DomainError:
        situation = "Undefined"

    line_center = coherence_point(local, 0.0)
    im_center = line_center.rho_ba.imag if line_center is not None else math.nan

    try:
        peaks = str(count_peaks(absorption_spectrum(local)))
    except (EitlabError, ValueError):
        peaks = "nan"

    chi = math.nan
    k2 = theta = complex(math.nan, math.nan)
    soliton_type = ""
    try:
        coeffs = nls_coefficients(local)
        chi, k2, theta = coeffs.chi, coeffs.kappa2, coeffs.theta
        soliton_type = coeffs.soliton_type or ""
    except EitlabError:
        pass

    cells = [field, _fmt(value), situation, _fmt(im_center), peaks,
             *map(_fmt, [chi, k2.real, k2.imag, theta.real, theta.imag]), soliton_type]
    return ",".join(cells)


def cmd_scan(args, cfg, pulse, propagation, out):
    if args.sweep_points < 0:
        raise ConfigError(f"--sweep-points must be >= 0, got {args.sweep_points}")
    # Build every swept config before any physics: a bad field name or value
    # exits 2 with no scan.csv.  The start value checks the name of an empty
    # sweep too.
    _apply_field(cfg, args.sweep, args.sweep_start)
    values = np.linspace(args.sweep_start, args.sweep_stop, args.sweep_points).tolist()
    configs = [_apply_field(cfg, args.sweep, v) for v in values]
    rows = [_scan_row(local, args.sweep, v) for local, v in zip(configs, values)]
    (out / "scan.csv").write_text("\n".join([_SCAN_HEADER] + rows) + "\n", encoding="utf-8")
    print(f"wrote {out / 'scan.csv'} ({len(rows)} rows)")
    sweep = {"field": args.sweep, "start": args.sweep_start, "stop": args.sweep_stop,
             "points": args.sweep_points}
    return ["scan.csv"], {"sweep": sweep}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eitlab",
        description="Probe-pulse response, dispersion, and soliton laboratory "
                    "for the five-level tripod-plus-lambda medium.",
        epilog=f"bundled presets: {', '.join(preset_names())}",
    )
    parser.add_argument("--version", action="version", version=f"eitlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True,
                       help="path to a JSON config, or a bundled preset name")
        p.add_argument("--out", default="eitlab_out", help="output directory")
        p.add_argument("--seed", type=int, default=0,
                       help="recorded in the manifest only; no output depends on it")

    p = sub.add_parser("spectrum", help="probe absorption/dispersion vs detuning (CSV)")
    common(p)
    p.add_argument("--grid-min", type=float, default=None, help="lowest probe detuning (s^-1)")
    p.add_argument("--grid-max", type=float, default=None, help="highest probe detuning (s^-1)")
    p.add_argument("--grid-points", type=int, default=DEFAULT_SPECTRUM_POINTS)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("eigen", help="eigenvalues/eigenvectors of the coupling block (JSON)")
    common(p)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("dispersion", help="kappa Taylor coefficients and group velocity (JSON)")
    common(p)
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("soliton", help="envelope-equation coefficients and soliton kind (JSON)")
    common(p)
    p.set_defaults(func=cmd_soliton)

    p = sub.add_parser("propagate", help="pulse propagation snapshots (CSV set)")
    common(p)
    p.add_argument("--mode", choices=("linear", "ideal", "full"), required=True)
    p.add_argument("--checkpoints", default=None,
                   help="comma-separated increasing distances in cm (default: config length)")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("scan", help="sweep one config field, one CSV row per point")
    common(p)
    p.add_argument("--sweep", required=True, help="field path, e.g. phi or controls[0].amplitude")
    p.add_argument("--sweep-start", type=float, required=True)
    p.add_argument("--sweep-stop", type=float, required=True)
    p.add_argument("--sweep-points", type=int, required=True)
    p.set_defaults(func=cmd_scan)

    return parser


#: stderr prefix of an error message, by exit code
_ERROR_PREFIX = {2: "config error: ", 4: "numerical failure: "}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config_path = _resolve_config(args.config)
        cfg, pulse, propagation = load_run_config(config_path)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        outputs, entries = args.func(args, cfg, pulse, propagation, out)
    except EitlabError as exc:
        print(f"eitlab: {_ERROR_PREFIX.get(exc.exit_code, '')}{exc}", file=sys.stderr)
        return exc.exit_code
    manifest = {
        "tool": "eitlab",
        "version": __version__,
        "subcommand": args.command,
        "config_path": str(args.config),
        "config_sha256": hashlib.sha256(config_path.read_bytes()).hexdigest(),
        "output_dir": str(args.out),
        "seed": args.seed,
        "outputs": sorted(outputs),
        "diagnostics": [asdict(d) for d in validate(cfg)],
        **entries,
    }
    (out / "manifest.json").write_text(_json_text(manifest), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
