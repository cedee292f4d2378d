"""Config round-trip, CSV schema, determinism and exit-code tests."""

import io
from contextlib import redirect_stdout

import pytest

import fsothz.metrics_analytic as ma
from fsothz import cli
from fsothz.config import (bundled_config_path, load_config, parse_config,
                           serialize_config)
from fsothz.errors import ConfigError
from fsothz.figures import FIGURE_IDS, figure_jobs


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class TestConfig:
    def test_bundled_configs_parse_and_build(self):
        for name in ("default", "fig5", "fig6a", "fig6b", "fig10", "fig11",
                     "fig13"):
            cfg = load_config(bundled_config_path(name))
            spec = cfg.system_spec()
            assert spec.transmit_snr_db == cfg.sections["simulation"][
                "transmit_snr_db"]

    def test_unknown_key_rejected_by_name(self):
        text = load_config(bundled_config_path("default"))
        bad = serialize_config(text).replace("[fso]", "[fso]\nbogus_key = 1")
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config(bad)

    def test_unknown_section_rejected(self):
        bad = serialize_config(load_config(bundled_config_path("default")))
        with pytest.raises(ConfigError, match="weather"):
            parse_config(bad + "\n[weather]\nrain = 1\n")

    def test_missing_key_rejected(self):
        text = serialize_config(load_config(bundled_config_path("default")))
        bad = text.replace("cn2 = 1e-12\n", "")
        with pytest.raises(ConfigError, match="cn2"):
            parse_config(bad)

    def test_round_trip_key_for_key(self):
        for name in ("default", "fig6a", "fig11"):
            cfg = load_config(bundled_config_path(name))
            again = parse_config(serialize_config(cfg))
            assert again.sections == cfg.sections

    def test_soft_mode_requires_thresholds(self):
        text = serialize_config(load_config(bundled_config_path("default")))
        bad = text.replace("mode = hard", "mode = soft")
        with pytest.raises(ConfigError, match="gamma_f_th_u_db"):
            parse_config(bad)

    def test_sweep_axis_epsilon(self):
        cfg = load_config(bundled_config_path("fig11"))
        point = cfg.with_sweep_value(1.5)
        sw = point.sections["switching"]
        assert sw["gamma_f_th_u_db"] == pytest.approx(6.5)
        assert sw["gamma_f_th_l_db"] == pytest.approx(3.5)

    def test_sweep_axis_n_antennas(self):
        cfg = load_config(bundled_config_path("fig6a")).replaced(
            "sweep", axis="n_antennas", start=1, stop=6, steps=6)
        point = cfg.with_sweep_value(4)
        assert point.sections["thz"]["n_rx"] == 4
        assert point.sections["access"]["n_tx"] == 4


def _parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    return rows


class TestRunCommand:
    def test_diversity_single_rows(self):
        rc, out = run_cli(["run", "diversity", "--config", "fig6a"])
        assert rc == 0
        rows = _parse_csv(out)
        metrics = {r[1] for r in rows}
        assert metrics == {f"diversity:{l}" for l in
                           ("fso", "thz", "hybrid", "access", "e2e")}

    def test_outage_all_methods_match_library(self, tmp_path):
        # row-by-row comparison against direct library calls
        cfg = load_config(bundled_config_path("fig6a")).replaced(
            "sweep", start=20.0, stop=30.0, steps=2).replaced(
            "simulation", samples=20_000)
        path = tmp_path / "c.ini"
        path.write_text(serialize_config(cfg))
        rc, out = run_cli(["run", "outage", "--config", str(path),
                           "--method", "all"])
        assert rc == 0
        rows = _parse_csv(out)
        methods = {r[2] for r in rows}
        assert methods == {"analytical", "asymptotic", "mc"}
        sweep_values = sorted({float(r[0]) for r in rows})
        for row in rows:
            snr, metric, method, value = (float(row[0]), row[1], row[2],
                                          float(row[3]))
            link = metric.split(":")[1]
            spec = cfg.system_spec(snr)
            if method == "analytical":
                assert value == pytest.approx(
                    float(f"{ma.outage_link(spec, link).value:.9g}"))
            elif method == "asymptotic":
                assert value == pytest.approx(
                    float(f"{ma.asymptotic_outage(spec, link):.9g}"))
            else:
                import fsothz.monte_carlo as mc
                seed = cfg.seed + cli._POINT_SEED_STRIDE * sweep_values.index(snr)
                est = mc.estimate_outage(spec, cfg.samples, seed, link)
                assert value == pytest.approx(float(f"{est.value:.9g}"))

    def test_capacity_rejects_asymptotic(self):
        rc, _ = run_cli(["run", "capacity", "--config", "fig6a",
                         "--method", "asymptotic"])
        assert rc == 2

    def test_trace_emits_paired_counts(self, tmp_path):
        rc, out = run_cli(["run", "trace", "--config", "fig5", "--samples",
                           "20000", "--rho", "0.9", "--seed", "5"])
        assert rc == 0
        rows = _parse_csv(out)
        metrics = {r[1] for r in rows}
        assert "switch_count:soft" in metrics
        assert "switch_count:hard" in metrics
        seeds = {float(r[0]) for r in rows}
        assert len(seeds) == 20

    def test_nine_significant_digits(self):
        rc, out = run_cli(["run", "diversity", "--config", "fig6a"])
        row = _parse_csv(out)[2]
        assert row[3] == f"{float(row[3]):.9g}"


class TestThzMrcFlag:
    """Closed-form THz rows say when the single alpha-mu MRC law is inexact."""

    @pytest.mark.parametrize("n_rx,flagged", [(2, ("thz", "hybrid", "e2e")),
                                              (1, ())])
    def test_flags_thz_dependent_rows(self, tmp_path, n_rx, flagged):
        cfg = load_config(bundled_config_path("fig6a")).replaced(
            "thz", alpha=2.5, n_rx=n_rx).replaced(
            "sweep", start=20.0, stop=30.0, steps=2).replaced(
            "simulation", samples=10_000)
        path = tmp_path / "c.ini"
        path.write_text(serialize_config(cfg))
        for command in ("outage", "capacity"):
            rc, out = run_cli(["run", command, "--config", str(path),
                               "--method", "all"])
            assert rc == 0
            for _, metric, method, _, _, _, flags in _parse_csv(out):
                want = method != "mc" and metric.split(":")[1] in flagged
                assert (cli.FLAG_THZ_MRC_APPROX in flags.split(";")) == want, \
                    (metric, method)

    def test_presets_carry_no_flag(self):
        # the flag depends on the point's THz spec and the link only, so
        # the cheap THz outage rows of every point stand for all commands
        for fig_id in FIGURE_IDS:
            for job in figure_jobs(fig_id):
                for payload in cli._sweep_payloads(
                        job.config, "outage", ("analytical", "asymptotic"),
                        ("thz",), 7, 1000, sweep_values=job.sweep_values):
                    for row in cli._point_rows(*payload):
                        assert cli.FLAG_THZ_MRC_APPROX not in row[6], \
                            (fig_id, job.label)


class TestDeterminism:
    def test_byte_identical_across_runs(self, tmp_path):
        cfg = load_config(bundled_config_path("fig6a")).replaced(
            "sweep", start=25.0, stop=35.0, steps=3).replaced(
            "simulation", samples=50_000)
        path = tmp_path / "c.ini"
        path.write_text(serialize_config(cfg))
        argv = ["run", "outage", "--config", str(path), "--method", "all",
                "--seed", "77"]
        out1 = run_cli(argv)[1]
        out2 = run_cli(argv)[1]
        assert out1 == out2

    def test_byte_identical_across_parallelism(self, tmp_path):
        cfg = load_config(bundled_config_path("fig6a")).replaced(
            "sweep", start=25.0, stop=35.0, steps=3).replaced(
            "simulation", samples=50_000)
        path = tmp_path / "c.ini"
        path.write_text(serialize_config(cfg))
        base = ["run", "outage", "--config", str(path), "--method", "all",
                "--seed", "77"]
        serial = run_cli(base + ["--workers", "1"])[1]
        parallel = run_cli(base + ["--workers", "3"])[1]
        assert serial == parallel


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[fso]\nnonsense = 1\n")
        rc, _ = run_cli(["run", "outage", "--config", str(path)])
        assert rc == 2

    def test_missing_file_exits_2(self):
        rc, _ = run_cli(["run", "outage", "--config", "no_such_bundle"])
        assert rc == 2

    def test_out_of_domain_value_exits_2(self, tmp_path):
        text = serialize_config(load_config(bundled_config_path("default")))
        path = tmp_path / "oob.ini"
        path.write_text(text.replace("frequency_hz = 119000000000.0",
                                     "frequency_hz = 999000000000.0"))
        rc, _ = run_cli(["run", "outage", "--config", str(path)])
        assert rc == 2

    @pytest.mark.parametrize("command,attr,value", [
        ("outage", "outage_link", 1.5),
        ("outage", "outage_link", float("nan")),
        ("aber", "aber_link", 0.6),           # BPSK: A n0 = 0.5
        ("capacity", "capacity_link", -1e-3),
        ("capacity", "capacity_link", float("inf")),
    ])
    def test_out_of_range_value_exits_3(self, monkeypatch, capsys, command,
                                        attr, value):
        monkeypatch.setattr(ma, attr,
                            lambda *args: ma.KernelValue(value, frozenset()))
        rc = cli.main(["run", command, "--config", "default"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{command}:fso" in captured.err

    def test_asymptotic_out_of_range_keeps_its_flag(self, monkeypatch):
        monkeypatch.setattr(ma, "asymptotic_outage", lambda *args: 2.0)
        rc, out = run_cli(["run", "outage", "--config", "default",
                           "--method", "asymptotic"])
        assert rc == 0
        assert "asymptotic-out-of-regime" in out


class TestFigures:
    def test_all_ids_expand(self):
        for fig_id in FIGURE_IDS:
            jobs = figure_jobs(fig_id)
            assert jobs, fig_id

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError):
            figure_jobs("fig99")

    def test_fig11_bundle(self):
        rc, out = run_cli(["figure", "fig11"])
        assert rc == 0
        rows = _parse_csv(out)
        metrics = {r[1] for r in rows}
        assert metrics == {"outage:fso", "outage:thz", "outage:hybrid"}
        eps = sorted({float(r[0]) for r in rows})
        assert eps[0] == 0.0 and eps[-1] == 4.0

    def test_fig10_interior_minimum_shape(self):
        rc, out = run_cli(["figure", "fig10"])
        assert rc == 0
        rows = _parse_csv(out)
        by_case = {}
        for r in rows:
            by_case.setdefault(r[1], []).append((float(r[0]), float(r[3])))
        assert len(by_case) == 4
        for label, pts in by_case.items():
            pts.sort()
            vals = [v for _, v in pts]
            kmin = vals.index(min(vals))
            assert 0 < kmin < len(vals) - 1, f"{label}: no interior minimum"
