"""Command-line front end.

Subcommands: spectrum | eigen | dispersion | soliton | propagate | scan.
Every run writes its results plus a ``manifest.json`` that records the tool
version, the config (path and content hash), and all effective options, so
any output directory can be reproduced from its manifest alone.  Outputs are
deterministic: identical config and seed give byte-identical files.

Exit codes: 0 success, 2 usage/config error, 3 physics-domain error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, EitlabError, NumericalError, UnknownField
from .params import FieldConfig, RabiField, Situation, config_from_dict, derive_couplings
from .response import absorption_spectrum, coherence_point, count_peaks
from .dispersion import (
    DEFAULT_GRID_POINTS,
    GaussianPulseSpec,
    spectral_propagate,
    taylor_coefficients,
)
from .nls import (
    Envelope,
    analytic_soliton,
    dark_pair_envelope,
    nls_coefficients,
    reference_amplitude,
    split_step,
)
from .spectral import build_h4, eigensystem_a, eigensystem_b, numeric_eigensystem


def _fmt(x: float) -> str:
    return f"{x:.17g}"


#: Rows per %-formatting pass in ``_csv_rows``.  Each pass holds one Python
#: float per cell.  One pass over a 2^14-row snapshot let peak RSS creep up
#: by about 2.5 MB over 20 propagate runs in one process; block passes keep
#: it flat at no measurable cost in speed.
_CSV_BLOCK_ROWS = 1024


def _csv_rows(*columns: np.ndarray) -> str:
    """CSV rows of a column table, one line per row, each ending in a newline.

    Each argument is one column or a 2-D block of columns.  Cells are
    formatted with %.17g, a block of rows per pass, which keeps every value
    round-trip exact and formats as ``_fmt`` does.
    """
    table = np.column_stack(columns)
    line = "%.17g," * (table.shape[1] - 1) + "%.17g\n"
    blocks = (table[i:i + _CSV_BLOCK_ROWS] for i in range(0, len(table), _CSV_BLOCK_ROWS))
    return "".join((line * len(block)) % tuple(block.ravel().tolist()) for block in blocks)


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


def _load_run_config(path: Path) -> tuple[FieldConfig, dict, dict]:
    """Parse a run config: physics keys plus optional pulse/propagation blocks."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    pulse = data.pop("pulse", {})
    propagation = data.pop("propagation", {})
    if not isinstance(pulse, dict) or not isinstance(propagation, dict):
        raise ConfigError("'pulse' and 'propagation' must be JSON objects")
    return config_from_dict(data), pulse, propagation


def _write_manifest(out_dir: Path, entries: dict, outputs: list[str]) -> None:
    manifest = {"tool": "eitlab", "version": __version__, "outputs": sorted(outputs)}
    manifest.update(entries)
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (out_dir / "manifest.json").write_text(text, encoding="utf-8")


def _manifest_base(args, config_path: Path) -> dict:
    digest = hashlib.sha256(config_path.read_bytes()).hexdigest()
    return {
        "subcommand": args.command,
        "config_path": str(args.config),
        "config_sha256": digest,
        "output_dir": str(args.out),
        "seed": args.seed,
    }


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    config_path = _resolve_config(args.config)
    cfg, _pulse, _prop = _load_run_config(config_path)
    out = _out_dir(args)

    try:
        spectrum = absorption_spectrum(cfg, args.grid_min, args.grid_max, args.grid_points)
    except ValueError as exc:
        raise ConfigError(f"bad spectrum grid: {exc}") from exc
    points = spectrum.delta_p.size
    header = ("delta_p,re_rho_ba,im_rho_ba,re_rho_ca,im_rho_ca,"
              "re_rho_da,im_rho_da,re_rho_ea,im_rho_ea\n")
    # viewed as float, each complex column becomes its (re, im) pair
    rows = _csv_rows(spectrum.delta_p, spectrum.coherences.view(float))
    (out / "spectrum.csv").write_text(header + rows, encoding="utf-8")

    entries = _manifest_base(args, config_path)
    entries["grid"] = {"min": float(spectrum.delta_p[0]), "max": float(spectrum.delta_p[-1]),
                       "points": points}
    _write_manifest(out, entries, ["spectrum.csv"])
    print(f"wrote {out / 'spectrum.csv'} ({points} points)")
    return 0


# ---------------------------------------------------------------------------
# eigen
# ---------------------------------------------------------------------------

def cmd_eigen(args) -> int:
    config_path = _resolve_config(args.config)
    cfg, _pulse, _prop = _load_run_config(config_path)
    out = _out_dir(args)

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
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (out / "eigen.json").write_text(text, encoding="utf-8")
    _write_manifest(out, _manifest_base(args, config_path), ["eigen.json"])
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# dispersion / soliton
# ---------------------------------------------------------------------------

def cmd_dispersion(args) -> int:
    config_path = _resolve_config(args.config)
    cfg, _pulse, _prop = _load_run_config(config_path)
    out = _out_dir(args)

    expansion = taylor_coefficients(cfg)
    payload = {
        "kappa0": _pair(expansion.kappa0),
        "kappa1": _pair(expansion.kappa1),
        "kappa2": _pair(expansion.kappa2),
        "v_g_over_c": expansion.v_g.real / cfg.c_light,
        "chi": expansion.chi,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (out / "dispersion.json").write_text(text, encoding="utf-8")
    _write_manifest(out, _manifest_base(args, config_path), ["dispersion.json"])
    print(text, end="")
    return 0


def cmd_soliton(args) -> int:
    config_path = _resolve_config(args.config)
    cfg, pulse, _prop = _load_run_config(config_path)
    out = _out_dir(args)

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
        tau = float(pulse.get("tau", 1.0))
        soliton = analytic_soliton(coeffs, tau)
        payload["amplitude_width_product"] = soliton.amplitude_width_product
        payload["reference_amplitude_width_product"] = reference_amplitude(coeffs, tau) * tau
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (out / "soliton.json").write_text(text, encoding="utf-8")
    _write_manifest(out, _manifest_base(args, config_path), ["soliton.json"])
    print(text, end="")
    return 0


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
    if any(v <= 0 for v in values) or sorted(values) != values:
        raise ConfigError("--checkpoints must be positive and increasing")
    return values


def _snapshot_name(index: int) -> str:
    return f"snapshot_{index:03d}.csv"


def _modulus(field: np.ndarray) -> np.ndarray:
    # np.hypot matches the scalar abs() of each complex sample bit for bit;
    # np.abs on a complex array differs from it in the last ulp on about a
    # third of the samples.
    return np.hypot(field.real, field.imag)


def _write_propagation(out: Path, header: str, frames) -> list[str]:
    """Write one snapshot per checkpoint and the waterfall that stacks them.

    ``frames`` yields (zeta, rows) per checkpoint, with ``rows`` from
    ``_csv_rows`` under the snapshot ``header``.  A waterfall row is the
    snapshot row prefixed with its zeta, so the cells are formatted once.
    """
    outputs = []
    waterfall = ["zeta," + header + "\n"]
    for i, (z, rows) in enumerate(frames, start=1):
        name = _snapshot_name(i)
        (out / name).write_text(header + "\n" + rows, encoding="utf-8")
        outputs.append(name)
        prefix = "%.17g," % z
        # every newline but the last starts the next row
        waterfall += [prefix, rows.replace("\n", "\n" + prefix, rows.count("\n") - 1)]
    (out / "waterfall.csv").write_text("".join(waterfall), encoding="utf-8")
    outputs.append("waterfall.csv")
    return outputs


def _propagate_linear(cfg, pulse: dict, propagation: dict, checkpoints, out: Path) -> list[str]:
    gamma = cfg.gamma_char if cfg.gamma_char > 0 else max(cfg.rate_scale, 1.0)
    tau0 = float(pulse.get("tau0", 100.0 / gamma))
    amplitude = float(pulse.get("amplitude", cfg.omega_p.amplitude))
    points = int(propagation.get("grid_points", DEFAULT_GRID_POINTS))
    window = float(propagation.get("window_widths", 40.0)) * tau0
    spec = GaussianPulseSpec(amplitude=amplitude, tau0=tau0)
    grid0 = spec.sample(points=points, window=window)

    def frames():
        for z in checkpoints:
            propagated = spectral_propagate(cfg, grid0, z, kappa="full")
            field = propagated.values
            yield z, _csv_rows(propagated.times(), field.real, field.imag, _modulus(field))

    return _write_propagation(out, "t,re,im,abs", frames())


def _propagate_nonlinear(cfg, pulse: dict, propagation: dict, checkpoints,
                         mode: str, out: Path) -> list[str]:
    coeffs = nls_coefficients(cfg)
    tau = float(pulse.get("tau", 0.0))
    if tau <= 0:
        raise ConfigError("nonlinear propagation needs a positive 'pulse.tau' in the config")
    kind = pulse.get("kind", "auto")
    soliton = analytic_soliton(coeffs, tau, None if kind == "auto" else kind)

    points = int(propagation.get("grid_points", DEFAULT_GRID_POINTS))
    widths = float(propagation.get("window_widths", 80.0))
    dt = widths * tau / points
    if soliton.spec.kind == "dark":
        envelope = dark_pair_envelope(soliton, points, dt)
    else:
        envelope = Envelope(samples=soliton.envelope((np.arange(points) - points // 2) * dt),
                            dt_grid=dt, zeta=0.0)

    length = checkpoints[-1]
    l_disp = tau**2 / abs(coeffs.kappa2_r) if coeffs.kappa2_r else math.inf
    l_nl = 1.0 / (abs(coeffs.theta_r) * soliton.spec.amplitude**2) if coeffs.theta_r else math.inf
    dz = float(propagation.get("dz", min(min(l_disp, l_nl) / 200.0, length / 8.0)))

    def frames(envelope):
        previous = 0.0
        for z in checkpoints:
            span = z - previous
            steps = max(1, int(math.ceil(span / dz)))
            envelope = split_step(coeffs, envelope, span / steps, steps, mode=mode)
            previous = z
            field = envelope.samples
            yield z, _csv_rows(envelope.times(), _modulus(field), field.real, field.imag)

    return _write_propagation(out, "tau_ret,abs,re,im", frames(envelope))


def cmd_propagate(args) -> int:
    config_path = _resolve_config(args.config)
    cfg, pulse, propagation = _load_run_config(config_path)
    out = _out_dir(args)

    length = float(propagation.get("length", 1.0))
    checkpoints = _parse_checkpoints(args.checkpoints, length)
    if args.mode == "linear":
        outputs = _propagate_linear(cfg, pulse, propagation, checkpoints, out)
    else:
        outputs = _propagate_nonlinear(cfg, pulse, propagation, checkpoints, args.mode, out)

    entries = _manifest_base(args, config_path)
    entries["mode"] = args.mode
    entries["checkpoints"] = checkpoints
    _write_manifest(out, entries, outputs)
    print(f"wrote {len(outputs)} files to {out}")
    return 0


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
_CONTROL_ATTRS = {"omega1", "omega2", "omega3", "omega4"}


def _apply_field(cfg: FieldConfig, field: str, value: float) -> FieldConfig:
    """Override one scalar field of the config.

    Supported: 'phi' (adjusts the first control phase so the closed-loop
    phase equals the value), 'controls[i].amplitude' / 'controls[i].phase',
    'probe.amplitude' / 'probe.phase', 'detunings.p/two/three',
    'decays.b/e', and 'eta'.
    """
    if field == "phi":
        target = value + cfg.omega2.phase + cfg.omega3.phase - cfg.omega4.phase
        return replace(cfg, omega1=RabiField(cfg.omega1.amplitude, target))
    if field in _SCALAR_FIELDS:
        return replace(cfg, **{_SCALAR_FIELDS[field]: value})
    for prefix, names in (("controls[", ("omega1", "omega2", "omega3", "omega4")),):
        if field.startswith(prefix) and "]." in field:
            idx_str, _, attr = field[len(prefix):].partition("].")
            if idx_str.isdigit() and int(idx_str) < 4 and attr in ("amplitude", "phase"):
                name = names[int(idx_str)]
                old: RabiField = getattr(cfg, name)
                new = (RabiField(value, old.phase) if attr == "amplitude"
                       else RabiField(old.amplitude, value))
                return replace(cfg, **{name: new})
    if field in ("probe.amplitude", "probe.phase"):
        old = cfg.omega_p
        new = (RabiField(value, old.phase) if field.endswith("amplitude")
               else RabiField(old.amplitude, value))
        return replace(cfg, omega_p=new)
    raise UnknownField(f"unknown sweep field {field!r}")


_SCAN_HEADER = ("field,value,situation,im_rho_ba_line_center,peak_count,"
                "chi,kappa2_re,kappa2_im,theta_re,theta_im,soliton_type")


def _scan_row(cfg: FieldConfig, field: str, value: float) -> str:
    local = _apply_field(cfg, field, value)
    try:
        situation = derive_couplings(local).situation.value
    except DomainError:
        situation = "Undefined"

    line_center = coherence_point(local, 0.0)
    im_center = line_center.rho_ba.imag if line_center is not None else math.nan

    try:
        peaks: float = count_peaks(absorption_spectrum(local))
    except (EitlabError, ValueError):
        peaks = math.nan

    chi = k2 = theta = None
    soliton_type = ""
    try:
        coeffs = nls_coefficients(local)
        chi, k2, theta = coeffs.chi, coeffs.kappa2, coeffs.theta
        soliton_type = coeffs.soliton_type or ""
    except EitlabError:
        pass

    cells = [
        field,
        _fmt(value),
        situation,
        _fmt(im_center),
        _fmt(peaks) if isinstance(peaks, float) and math.isnan(peaks) else str(int(peaks)),
        _fmt(chi) if chi is not None else "nan",
        _fmt(k2.real) if k2 is not None else "nan",
        _fmt(k2.imag) if k2 is not None else "nan",
        _fmt(theta.real) if theta is not None else "nan",
        _fmt(theta.imag) if theta is not None else "nan",
        soliton_type,
    ]
    return ",".join(cells)


def cmd_scan(args) -> int:
    config_path = _resolve_config(args.config)
    cfg, _pulse, _prop = _load_run_config(config_path)
    out = _out_dir(args)

    if args.sweep_points < 0:
        raise ConfigError(f"--sweep-points must be >= 0, got {args.sweep_points}")
    if args.sweep_points == 0:
        values = []
    elif args.sweep_points == 1:
        values = [args.sweep_start]
    else:
        values = list(np.linspace(args.sweep_start, args.sweep_stop, args.sweep_points))

    # Fail fast on a bad field name before doing any physics.
    if values:
        _apply_field(cfg, args.sweep, values[0])
    else:
        _apply_field(cfg, args.sweep, args.sweep_start)

    rows = [_scan_row(cfg, args.sweep, float(v)) for v in values]
    (out / "scan.csv").write_text("\n".join([_SCAN_HEADER] + rows) + "\n", encoding="utf-8")

    entries = _manifest_base(args, config_path)
    entries["sweep"] = {
        "field": args.sweep,
        "start": args.sweep_start,
        "stop": args.sweep_stop,
        "points": args.sweep_points,
    }
    _write_manifest(out, entries, ["scan.csv"])
    print(f"wrote {out / 'scan.csv'} ({len(rows)} rows)")
    return 0


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
                       help="recorded in the manifest for reproducible replays")

    p = sub.add_parser("spectrum", help="probe absorption/dispersion vs detuning (CSV)")
    common(p)
    p.add_argument("--grid-min", type=float, default=None, help="lowest probe detuning (s^-1)")
    p.add_argument("--grid-max", type=float, default=None, help="highest probe detuning (s^-1)")
    p.add_argument("--grid-points", type=int, default=2001)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"eitlab: config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"eitlab: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"eitlab: numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
