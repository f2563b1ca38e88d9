"""Command-line interface: outputs, manifests, exit codes, determinism."""

import json
import tracemalloc
from importlib import resources

import numpy as np
import pytest

import eitlab as el
from eitlab.cli import _apply_field, main, preset_names
from conftest import kerr_limit, oracle_taylor, undamped_pole_config


def write_config(tmp_path, cfg: el.FieldConfig, name: str = "cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(el.config_to_dict(cfg)), encoding="utf-8")
    return path


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def spectrum_from_csv(path) -> el.Spectrum:
    data = read_csv(path)
    block = np.column_stack([
        data["re_rho_ba"] + 1j * data["im_rho_ba"],
        data["re_rho_ca"] + 1j * data["im_rho_ca"],
        data["re_rho_da"] + 1j * data["im_rho_da"],
        data["re_rho_ea"] + 1j * data["im_rho_ea"],
    ])
    return el.Spectrum(delta_p=data["delta_p"], coherences=block)


class TestSpectrumCommand:
    def test_fig4a_reproduction(self, tmp_path):
        out = tmp_path / "a"
        assert main(["spectrum", "--config", "fig4a", "--out", str(out)]) == 0
        spec = spectrum_from_csv(out / "spectrum.csv")
        assert el.count_peaks(spec) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "spectrum"
        assert manifest["grid"]["points"] == 2001
        assert "spectrum.csv" in manifest["outputs"]
        assert manifest["diagnostics"] == []

    def test_manifest_records_validate_diagnostics(self, tmp_path):
        # a probe as strong as the weakest control breaks first-order theory
        cfg = {"controls": [0.9, 0.7, 0.4, 0.8], "probe": 0.4,
               "detunings": {"p": 0.0, "two": 0.0, "three": 0.0},
               "decays": {"b": 1.0, "e": 1.0}, "eta": 1.0}
        path = tmp_path / "strong_probe.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "d"
        assert main(["spectrum", "--config", str(path), "--out", str(out),
                     "--grid-points", "11"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        expected = el.validate(el.load_config(path))
        assert [d["code"] for d in manifest["diagnostics"]] == ["ProbeNotPerturbative"]
        assert manifest["diagnostics"] == [{"code": d.code, "message": d.message}
                                           for d in expected]

    def test_fig4c_reproduction(self, tmp_path):
        out = tmp_path / "c"
        assert main(["spectrum", "--config", "fig4c", "--out", str(out)]) == 0
        assert el.count_peaks(spectrum_from_csv(out / "spectrum.csv")) == 2

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_preset_exits_2(self, tmp_path):
        assert main(["spectrum", "--config", "nonexistent",
                     "--out", str(tmp_path / "o")]) == 2

    def test_grid_flags(self, tmp_path):
        out = tmp_path / "g"
        assert main(["spectrum", "--config", "fig4a", "--out", str(out),
                     "--grid-min", "-1", "--grid-max", "1", "--grid-points", "11"]) == 0
        data = read_csv(out / "spectrum.csv")
        assert data["delta_p"].size == 11
        assert data["delta_p"][0] == -1.0

    @pytest.mark.parametrize("flags", [
        ["--grid-points", "2"],
        ["--grid-min", "1", "--grid-max", "1"],
    ])
    def test_bad_grid_exits_2(self, tmp_path, capsys, flags):
        assert main(["spectrum", "--config", "fig4a", "--out", str(tmp_path / "o")] + flags) == 2
        assert "config error" in capsys.readouterr().err

    def test_csv_round_trips_to_the_library_spectrum(self, tmp_path):
        # fig4b puts its beta = 0 resonance (q = 0, a finite limit) at delta_p = 0;
        # 2049 points are three CSV blocks, the last one a single row
        preset = resources.files("eitlab").joinpath("presets", "fig4b.json")
        for points in (301, 2049):
            out = tmp_path / f"rt{points}"
            assert main(["spectrum", "--config", str(preset), "--out", str(out), "--grid-min",
                         "-3", "--grid-max", "3", "--grid-points", str(points)]) == 0
            lines = (out / "spectrum.csv").read_text(encoding="utf-8").splitlines()
            table = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
            expected = el.absorption_spectrum(el.load_config(str(preset)), -3.0, 3.0, points)
            assert table.shape == (points, 9)
            assert np.isfinite(expected.coherences[points // 2]).all()
            assert np.array_equal(table[:, 0], expected.delta_p)
            assert np.array_equal(table[:, 1::2], expected.coherences.real, equal_nan=True)
            assert np.array_equal(table[:, 2::2], expected.coherences.imag, equal_nan=True)

    def test_points_without_a_finite_value_are_nan_rows(self, tmp_path):
        # undamped regime A: q has real zeros at delta_p = +-root and beta != 0
        pole = undamped_pole_config()
        root, path = pole.delta_p, write_config(tmp_path, pole.with_delta_p(0.0))
        out = tmp_path / "nan"
        assert main(["spectrum", "--config", str(path), "--out", str(out), "--grid-min",
                     repr(-root), "--grid-max", repr(root), "--grid-points", "3"]) == 0
        rows = [line.split(",") for line in (out / "spectrum.csv").read_text().splitlines()[1:]]
        assert rows[0][1:] == ["nan"] * 8 and rows[2][1:] == ["nan"] * 8
        assert "nan" not in rows[1]
        assert json.loads((out / "manifest.json").read_text())["nan_points"] == 2

    def test_domain_error_exits_3(self, tmp_path):
        cfg = {
            "controls": [1.0, 1.0, 0.0, 0.0],
            "probe": 0.01,
            "detunings": {"p": 0.0, "two": 0.0, "three": 0.0},
            "decays": {"b": 1.0, "e": 1.0},
            "eta": 1.0,
        }
        path = tmp_path / "no_upper.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["eigen", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    def test_numerical_failure_exits_4(self, tmp_path, fig4b):
        # regime B on full resonance: q(0) = 0, but t2 cancels, so dispersion,
        # soliton and linear propagation give the finite limit, which matches
        # the 4x4 oracle approached from away from the carrier
        out = tmp_path / "b"
        assert main(["dispersion", "--config", "fig4b", "--out", str(out)]) == 0
        report = json.loads((out / "dispersion.json").read_text())
        for key, oracle, rtol in zip(("kappa0", "kappa1", "kappa2"), oracle_taylor(fig4b, 1e-3),
                                     (1e-12, 1e-12, 1e-9)):
            assert abs(complex(*report[key]) - oracle) <= rtol * abs(oracle), key
        assert main(["soliton", "--config", "fig4b", "--out", str(out)]) == 0
        theta = complex(*json.loads((out / "soliton.json").read_text())["theta"])
        assert abs(theta + fig4b.eta * kerr_limit(fig4b)) <= 1e-9 * abs(theta)
        assert main(["propagate", "--config", "fig4b", "--mode", "linear",
                     "--checkpoints", "0.5", "--out", str(out)]) == 0
        assert np.isfinite(read_csv(out / "snapshot_001.csv")["abs"]).all()
        # a genuine pole has no finite value: every layer refuses it
        path = write_config(tmp_path, undamped_pole_config())
        for argv in (["dispersion"], ["soliton"], ["propagate", "--mode", "linear"]):
            assert main(argv + ["--config", str(path), "--out", str(tmp_path / "o")]) == 4
        assert list((tmp_path / "o").iterdir()) == []


class TestEigenCommand:
    def test_closed_form_regimes_and_shapes(self, tmp_path, fig4a):
        out = tmp_path / "e"
        assert main(["eigen", "--config", "fig4a", "--out", str(out)]) == 0
        payload = json.loads((out / "eigen.json").read_text())
        assert payload["situation"] == "A"
        assert payload["method"] == "closed_form_a"
        system = el.eigensystem_a(fig4a)
        assert np.allclose(payload["eigenvalues"], system.eigenvalues)
        vec0 = np.array([re + 1j * im for re, im in payload["eigenvectors"][0]])
        assert np.linalg.norm(vec0) == pytest.approx(1.0, abs=1e-12)

    def test_numeric_fallback_for_regime_c(self, tmp_path):
        out = tmp_path / "e"
        assert main(["eigen", "--config", "fig4c", "--out", str(out)]) == 0
        payload = json.loads((out / "eigen.json").read_text())
        assert payload["situation"] == "C"
        assert payload["method"] == "numeric"


class TestDispersionSolitonCommands:
    def test_reference_group_velocity(self, tmp_path):
        out = tmp_path / "d"
        assert main(["dispersion", "--config", "cs_soliton", "--out", str(out)]) == 0
        payload = json.loads((out / "dispersion.json").read_text())
        assert payload["v_g_over_c"] == pytest.approx(7e-3, rel=0.15)
        assert payload["kappa0"][1] > 0  # absorbing, not amplifying

    def test_soliton_report(self, tmp_path):
        out = tmp_path / "s"
        assert main(["soliton", "--config", "cs_soliton", "--out", str(out)]) == 0
        payload = json.loads((out / "soliton.json").read_text())
        # exact coefficients of this parameter set sit in the bright regime
        assert payload["soliton_type"] == "bright"
        assert payload["amplitude_width_product"] == pytest.approx(
            np.sqrt(2.0) * payload["reference_amplitude_width_product"], rel=1e-12)


class TestPropagateCommand:
    def test_single_final_snapshot_by_default(self, tmp_path):
        out = tmp_path / "p"
        assert main(["propagate", "--config", "cs_soliton", "--mode", "ideal",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checkpoints"] == [1.0]
        names = manifest["outputs"]
        assert "snapshot_001.csv" in names and "waterfall.csv" in names
        assert "snapshot_002.csv" not in names
        header = (out / "snapshot_001.csv").read_text().splitlines()[0]
        assert header == "tau_ret,abs,re,im"

    def test_manifest_records_the_step_facts(self, tmp_path):
        # the benchmark's splitstep shape: 2^14 points, 300 steps to 0.75
        # dispersion lengths, dz with half a step of slack
        coeffs = el.nls_coefficients(el.load_config(soliton_config(tmp_path)[0]))
        zeta = 0.75 * 1e-7**2 / abs(coeffs.kappa2_r)
        path, _data = soliton_config(tmp_path, grid_points=2**14, dz=zeta / 299.5)
        out = tmp_path / "ideal"
        assert main(["propagate", "--config", str(path), "--mode", "ideal",
                     "--checkpoints", repr(zeta), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dz"] == zeta / 299.5
        assert manifest["steps"] == [300]
        assert abs(manifest["l2_norm_drift"]) <= 1e-12

    @pytest.mark.parametrize("mode, facts", [
        ("full", {"dz": 0.125, "steps": [4, 4]}),
        ("linear", {}),
    ])
    def test_manifest_step_facts_by_mode(self, tmp_path, mode, facts):
        # the norm drift is an invariant only of the unitary ideal walk
        _path, _data, out = small_soliton_run(tmp_path, mode, "0.5,1.0")
        manifest = json.loads((out / "manifest.json").read_text())
        assert {k: manifest[k] for k in ("dz", "steps") if k in manifest} == facts
        assert "l2_norm_drift" not in manifest

    def test_checkpoints_and_waterfall(self, tmp_path):
        out = tmp_path / "p2"
        assert main(["propagate", "--config", "cs_soliton", "--mode", "ideal",
                     "--checkpoints", "0.5,1.0", "--out", str(out)]) == 0
        waterfall = (out / "waterfall.csv").read_text().splitlines()
        zetas = {line.split(",")[0] for line in waterfall[1:]}
        assert zetas == {"0.5", "1"}

    def test_linear_mode_snapshot_header(self, tmp_path):
        out = tmp_path / "p3"
        assert main(["propagate", "--config", "cs_soliton", "--mode", "linear",
                     "--checkpoints", "0.2", "--out", str(out)]) == 0
        header = (out / "snapshot_001.csv").read_text().splitlines()[0]
        assert header == "t,re,im,abs"

    def test_bad_checkpoints_exit_2(self, tmp_path):
        for spec in ("1.0,0.5", "nan", "0.5,inf"):
            assert main(["propagate", "--config", "cs_soliton", "--mode", "ideal",
                         "--checkpoints", spec, "--out", str(tmp_path / "x")]) == 2, spec

    @pytest.mark.parametrize("mode, section, key, value", [
        ("ideal", "pulse", "kind", "sideways"),
        ("linear", "pulse", "tau0", -1),
        ("ideal", "pulse", "tau", "x"),
        ("ideal", "propagation", "grid_points", "abc"),
        ("ideal", "propagation", "grid_points", 1000),
        ("ideal", "propagation", "window_widths", -5),
        ("ideal", "propagation", "dz", 0),
        ("ideal", "propagation", "dz", -0.1),
        ("ideal", "propagation", "length", -1),
        ("linear", "propagation", "grid_point", 1024),
        ("ideal", "pulse", "width", 1e-7),
    ])
    def test_bad_run_values_exit_2(self, tmp_path, capsys, mode, section, key, value):
        data = json.loads(resources.files("eitlab").joinpath("presets", "cs_soliton.json")
                          .read_text(encoding="utf-8"))
        data[section][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["propagate", "--config", str(path), "--mode", mode,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{section}.{key}" in err


def soliton_config(tmp_path, **propagation):
    """Write cs_soliton with its ``propagation`` block updated; return (path, data)."""
    data = json.loads(resources.files("eitlab").joinpath("presets", "cs_soliton.json")
                      .read_text(encoding="utf-8"))
    data["propagation"].update(propagation)
    path = tmp_path / "small.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path, data


def small_soliton_run(tmp_path, mode: str, checkpoints: str, points: int = 1024):
    """Run propagate on cs_soliton at ``points`` grid points with dz = 0.125 cm."""
    path, data = soliton_config(tmp_path, grid_points=points, dz=0.125)
    out = tmp_path / mode
    assert main(["propagate", "--config", str(path), "--mode", mode,
                 "--checkpoints", checkpoints, "--out", str(out)]) == 0
    return path, data, out


class TestPropagateWriters:
    @pytest.mark.parametrize("mode", ["ideal", "full"])
    def test_snapshot_round_trips_to_split_step(self, tmp_path, mode):
        path, data, out = small_soliton_run(tmp_path, mode, "0.5")
        lines = (out / "snapshot_001.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "tau_ret,abs,re,im"
        table = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])

        coeffs = el.nls_coefficients(el.load_config(path))
        tau, points = data["pulse"]["tau"], data["propagation"]["grid_points"]
        dt = data["propagation"]["window_widths"] * tau / points
        soliton = el.analytic_soliton(coeffs, tau)
        start = el.Envelope(samples=soliton.envelope((np.arange(points) - points // 2) * dt),
                            dt_grid=dt)
        # the CLI takes ceil(0.5 / dz) = 4 equal steps to the checkpoint
        expected = el.split_step(coeffs, start, 0.5 / 4, 4, mode=mode)
        field = expected.samples
        assert np.array_equal(table[:, 0], expected.times())
        assert np.array_equal(table[:, 1], np.hypot(field.real, field.imag))
        assert np.array_equal(table[:, 2], field.real)
        assert np.array_equal(table[:, 3], field.imag)

    @pytest.mark.parametrize("mode", ["linear", "ideal"])
    def test_waterfall_rows_are_prefixed_snapshot_rows(self, tmp_path, mode):
        # 4096 rows are four CSV blocks, so the zeta prefix crosses block ends
        checkpoints = ["0.1", "0.3"]
        _path, _data, out = small_soliton_run(tmp_path, mode, ",".join(checkpoints), 4096)
        waterfall = (out / "waterfall.csv").read_text(encoding="utf-8").splitlines()
        expected = []
        for i, zeta in enumerate(checkpoints, start=1):
            snapshot = (out / f"snapshot_{i:03d}.csv").read_text(encoding="utf-8").splitlines()
            if i == 1:
                expected.append("zeta," + snapshot[0])
            expected.extend("%.17g," % float(zeta) + row for row in snapshot[1:])
        assert len(expected) == 1 + 2 * 4096
        assert waterfall == expected

    def test_linear_snapshot_round_trips_to_spectral_propagate(self, tmp_path):
        path, data, out = small_soliton_run(tmp_path, "linear", "0.5")
        lines = (out / "snapshot_001.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,re,im,abs"
        table = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])

        cfg = el.load_config(path)
        tau0, points = data["pulse"]["tau0"], data["propagation"]["grid_points"]
        pulse = el.GaussianPulseSpec(amplitude=cfg.omega_p.amplitude, tau0=tau0)
        launch = pulse.sample(points, data["propagation"]["window_widths"] * tau0)
        expected = el.spectral_propagate(cfg, launch, 0.5)
        field = expected.samples
        assert expected.zeta == 0.5
        assert np.array_equal(table[:, 0], expected.times())
        assert table[points // 2, 0] == 0.0
        assert np.array_equal(table[:, 1], field.real)
        assert np.array_equal(table[:, 2], field.imag)
        assert np.array_equal(table[:, 3], np.hypot(field.real, field.imag))


class TestPropagateStreaming:
    @pytest.mark.parametrize("mode", ["ideal", "linear"])
    def test_peak_memory_does_not_grow_with_checkpoints(self, tmp_path, mode):
        path, _data = soliton_config(tmp_path, grid_points=2048, dz=0.125)

        def traced_peak(checkpoints: str) -> int:
            tracemalloc.start()
            try:
                assert main(["propagate", "--config", str(path), "--mode", mode,
                             "--checkpoints", checkpoints, "--out", str(tmp_path / "o")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak("1")  # first calls fill import-time and FFT caches
        one = traced_peak("1")
        eight = traced_peak(",".join(str(k / 8) for k in range(1, 9)))
        assert eight <= 1.2 * one, (eight, one)

    def test_failure_before_the_first_checkpoint_leaves_no_file(self, tmp_path):
        # the StepTooLarge limit of cs_soliton is about 37 cm
        path, _data = soliton_config(tmp_path, grid_points=1024, dz=100.0)
        out = tmp_path / "o"
        assert main(["propagate", "--config", str(path), "--mode", "ideal",
                     "--checkpoints", "100", "--out", str(out)]) == 4
        assert list(out.iterdir()) == []

    def test_failure_after_a_checkpoint_writes_no_manifest(self, tmp_path):
        path, _data = soliton_config(tmp_path, grid_points=1024, dz=100.0)
        complete, partial = tmp_path / "complete", tmp_path / "partial"
        assert main(["propagate", "--config", str(path), "--mode", "ideal",
                     "--checkpoints", "10", "--out", str(complete)]) == 0
        assert main(["propagate", "--config", str(path), "--mode", "ideal",
                     "--checkpoints", "10,100", "--out", str(partial)]) == 4
        assert not (partial / "manifest.json").exists()
        assert not (partial / "snapshot_002.csv").exists()
        assert ((partial / "snapshot_001.csv").read_bytes()
                == (complete / "snapshot_001.csv").read_bytes())


    @pytest.mark.parametrize("mode, checkpoints", [("linear", "1e6,1e9"), ("full", "1e5")])
    def test_gain_overflow_exits_4(self, tmp_path, capsys, mode, checkpoints):
        # negative decays are gain (validate only warns); over these distances
        # the field overflows, which is a numerical failure, not a traceback
        path, data = soliton_config(tmp_path, grid_points=1024)
        data["decays"] = {"b": -32672563.597333845, "e": -32672563.597333845}
        path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["propagate", "--config", str(path), "--mode", mode,
                     "--checkpoints", checkpoints, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("eitlab: numerical failure: ") and "zeta = 1" in err
        assert list(out.iterdir()) == []

class TestScanCommand:
    def test_phase_sweep_regime_transition(self, tmp_path):
        out = tmp_path / "scan"
        assert main(["scan", "--config", "fig4b", "--sweep", "phi",
                     "--sweep-start", "0", "--sweep-stop", str(np.pi),
                     "--sweep-points", "3", "--out", str(out)]) == 0
        lines = (out / "scan.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        situations = [r[2] for r in rows]
        assert situations[0] == "B" and situations[-1] == "C"
        first_absorption = float(rows[0][3])
        last_absorption = float(rows[-1][3])
        assert first_absorption > 0.01
        assert abs(last_absorption) < 1e-12

    def test_regime_b_row_has_finite_coefficients(self, tmp_path, fig4b):
        # phi = 0 puts fig4b in regime B, where q(0) vanishes but t2 cancels:
        # the envelope coefficients are the finite limit of the 4x4 oracle
        out = tmp_path / "scan_b"
        assert main(["scan", "--config", "fig4b", "--sweep", "phi",
                     "--sweep-start", "0", "--sweep-stop", "1",
                     "--sweep-points", "2", "--out", str(out)]) == 0
        header, first = (out / "scan.csv").read_text().splitlines()[:2]
        row = dict(zip(header.split(","), first.split(",")))
        assert row["value"] == "0" and row["situation"] == "B"
        kappa0, _kappa1, kappa2 = oracle_taylor(fig4b, 1e-3)
        theta = -fig4b.eta * kerr_limit(fig4b)
        assert float(row["chi"]) == pytest.approx(2.0 * kappa0.imag, rel=1e-12)
        assert complex(float(row["kappa2_re"]), float(row["kappa2_im"])) == pytest.approx(
            kappa2, rel=1e-9)
        assert complex(float(row["theta_re"]), float(row["theta_im"])) == pytest.approx(
            theta, rel=1e-9)
        assert row["soliton_type"] == ""
        assert row["peak_count"] != "nan"

        # at a genuine pole (delta_p = +-root) the coefficients do not exist
        pole = undamped_pole_config()
        path = write_config(tmp_path, pole.with_delta_p(0.0))
        out = tmp_path / "scan_pole"
        assert main(["scan", "--config", str(path), "--sweep", "detunings.p",
                     "--sweep-start", repr(-pole.delta_p), "--sweep-stop", repr(pole.delta_p),
                     "--sweep-points", "3", "--out", str(out)]) == 0
        lines = (out / "scan.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        for row in rows[0], rows[2]:
            for cell in ("chi", "kappa2_re", "kappa2_im", "theta_re", "theta_im"):
                assert row[cell] == "nan"
        assert rows[1]["chi"] != "nan"

    def test_empty_range_header_only(self, tmp_path):
        out = tmp_path / "scan0"
        assert main(["scan", "--config", "fig4b", "--sweep", "phi",
                     "--sweep-start", "0", "--sweep-stop", "1",
                     "--sweep-points", "0", "--out", str(out)]) == 0
        lines = (out / "scan.csv").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("field,value,situation")

    def test_degenerate_rows_do_not_crash(self, tmp_path):
        cfg = {
            "controls": [0.5, 0.0, 0.7, 0.7],
            "probe": 0.01,
            "detunings": {"p": 0.0, "two": 0.0, "three": 0.0},
            "decays": {"b": 1.0, "e": 1.0},
            "eta": 1.0,
        }
        path = tmp_path / "sweepable.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "scan_deg"
        assert main(["scan", "--config", str(path), "--sweep", "controls[0].amplitude",
                     "--sweep-start", "0", "--sweep-stop", "0.5",
                     "--sweep-points", "3", "--out", str(out)]) == 0
        lines = (out / "scan.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[1].split(",")[2] == "Degenerate"

    def test_unknown_field_exits_2(self, tmp_path):
        for field in ("bogus.path", "controls[4].amplitude", "controls[0].width",
                      "omega1.amplitude"):
            for points in ("2", "0"):
                assert main(["scan", "--config", "fig4b", "--sweep", field,
                             "--sweep-start", "0", "--sweep-stop", "1", "--sweep-points",
                             points, "--out", str(tmp_path / "x")]) == 2, (field, points)

    @pytest.mark.parametrize("field, start, stop", [
        ("eta", "-1", "1"),
        ("controls[0].amplitude", "-1", "1"),
        ("controls[0].amplitude", "0.5", "-0.5"),  # starts valid, ends invalid
    ])
    def test_sweep_outside_the_field_domain_exits_2(self, tmp_path, capsys, field, start, stop):
        out = tmp_path / "x"
        assert main(["scan", "--config", "fig4b", "--sweep", field, "--sweep-start", start,
                     "--sweep-stop", stop, "--sweep-points", "3", "--out", str(out)]) == 2
        assert not (out / "scan.csv").exists()
        err = capsys.readouterr().err
        assert "config error" in err and field in err

    def test_field_names_set_their_field(self, fig4a):
        for i in range(4):
            cfg = _apply_field(fig4a, f"controls[{i}].amplitude", 0.25)
            assert cfg.controls[i] == el.RabiField(0.25, fig4a.controls[i].phase)
            cfg = _apply_field(fig4a, f"controls[{i}].phase", 0.5)
            assert cfg.controls[i] == el.RabiField(fig4a.controls[i].amplitude, 0.5)
        assert _apply_field(fig4a, "probe.amplitude", 0.02).omega_p.amplitude == 0.02
        assert _apply_field(fig4a, "probe.phase", 0.5).omega_p.phase == 0.5
        assert _apply_field(fig4a, "detunings.two", 0.5).delta_2 == 0.5
        assert _apply_field(fig4a, "phi", 0.5).phi == pytest.approx(0.5)


class TestStandardJson:
    def test_reports_and_manifests_parse_strictly(self, tmp_path):
        # RFC 8259 has no NaN or Infinity: a non-finite float is written as null
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        for preset in preset_names():
            for command in ("spectrum", "eigen", "dispersion", "soliton"):
                out = tmp_path / f"{command}_{preset}"
                assert main([command, "--config", preset, "--out", str(out)]) == 0
                for path in out.glob("*.json"):
                    json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
            manifest = json.loads((tmp_path / f"spectrum_{preset}" / "manifest.json").read_text())
            assert manifest["nan_points"] == 0
        # theta_r = 0 on fig4a, so the ratio Im/Re is infinite
        report = json.loads((tmp_path / "soliton_fig4a" / "soliton.json").read_text())
        assert report["theta_r"] == 0 and report["imag_ratio_theta"] is None


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["spectrum", "--config", "fig4a", "--out", str(out),
                         "--grid-points", "201", "--seed", "7"]) == 0
            outs.append(out)
        a, b = outs
        assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()
        # manifests differ only in the output directory path
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        ma.pop("output_dir"), mb.pop("output_dir")
        assert ma == mb

    def test_repeat_spectrum_and_scan_runs_are_byte_identical(self, tmp_path):
        runs = {
            "spectrum": ["spectrum", "--config", "fig4b", "--grid-points", "101"],
            "scan": ["scan", "--config", "fig4b", "--sweep", "phi", "--sweep-start", "0",
                     "--sweep-stop", str(np.pi), "--sweep-points", "5"],
        }
        for name, argv in runs.items():
            texts = []
            for i in range(2):
                out = tmp_path / f"{name}{i}"
                assert main(argv + ["--out", str(out)]) == 0
                texts.append((out / f"{name}.csv").read_bytes())
            assert texts[0] == texts[1], name

    @pytest.mark.parametrize("mode", ["linear", "ideal"])
    def test_repeat_propagate_runs_are_byte_identical(self, tmp_path, mode):
        path, _data = soliton_config(tmp_path, grid_points=1024, dz=0.125)
        outs = []
        for i in range(2):
            out = tmp_path / f"{mode}{i}"
            assert main(["propagate", "--config", str(path), "--mode", mode,
                         "--checkpoints", "0.25,0.5", "--out", str(out)]) == 0
            outs.append(out)
        names = ["snapshot_001.csv", "snapshot_002.csv", "waterfall.csv"]
        assert sorted(p.name for p in outs[0].iterdir()) == sorted(names + ["manifest.json"])
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
