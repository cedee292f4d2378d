"""Config round-trip, CSV schema, determinism and exit-code tests."""

import ast
import io
import math
import os
import pickle
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import fsothz
import fsothz.metrics_analytic as ma
from fsothz import channel_access, channel_fso, channel_thz, cli
from fsothz.config import (bundled_config_path, load_config, parse_config,
                           serialize_config)
from fsothz.errors import ConfigError
from fsothz.figures import FIGURE_IDS, figure_jobs
from fsothz.switching import HardPolicy, SoftPolicy


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

    def test_soft_twin_thresholds(self):
        # FSO thresholds gamma_th_db +- eps; the THz threshold is the
        # section's own where it sets one, else gamma_th_db
        sw = load_config(bundled_config_path("default")).soft(1.5).sections[
            "switching"]
        assert ((sw["mode"], sw["gamma_f_th_u_db"], sw["gamma_f_th_l_db"],
                 sw["gamma_t_th_db"]) == ("soft", 6.5, 3.5, 5.0))
        cfg = load_config(bundled_config_path("fig11")).replaced(
            "switching", gamma_t_th_db=4.0)
        assert cfg.soft(1.5).sections["switching"]["gamma_t_th_db"] == 4.0

    def test_sweep_axis_n_antennas(self):
        cfg = load_config(bundled_config_path("fig6a")).replaced(
            "sweep", axis="n_antennas", start=1, stop=6, steps=6)
        point = cfg.with_sweep_value(4)
        assert point.sections["thz"]["n_rx"] == 4
        assert point.sections["access"]["n_tx"] == 4

    def test_spec_pickle_round_trip(self):
        # pool workers pickle what they return, and specs carry constants
        # derived once, when they are made, outside equality and hashing
        spec = load_config(bundled_config_path("fig13")).system_spec(20.0)
        again = pickle.loads(pickle.dumps(spec))
        assert again == spec and hash(again) == hash(spec)
        assert ((again.fso.alpha_f, again.fso.beta_f, again.fso.i_l,
                 again.thz.h_l) == (spec.fso.alpha_f, spec.fso.beta_f,
                                    spec.fso.i_l, spec.thz.h_l))
        assert again.fso.cdf_blocks == spec.fso.cdf_blocks
        assert ((again.thz.log_c1, again.thz.c2, again.thz.c3)
                == (spec.thz.log_c1, spec.thz.c2, spec.thz.c3))
        for link in ("fso", "thz"):
            pg, pg_again = getattr(spec, link).pointing, getattr(again, link).pointing
            assert ((pg_again.v0, pg_again.a0, pg_again.w_leq_m, pg_again.xi)
                    == (pg.v0, pg.a0, pg.w_leq_m, pg.xi))
        mod = ma.Modulation.bpsk()
        assert ma.aber_e2e(again, mod) == ma.aber_e2e(spec, mod)
        assert ma.capacity_e2e(again) == ma.capacity_e2e(spec)

    def test_derived_constants_computed_once(self, monkeypatch):
        spec = load_config(bundled_config_path("fig13")).system_spec(20.0)
        assert (spec.fso.alpha_f, spec.fso.beta_f) == (
            channel_fso.rytov_turbulence_params(
                spec.fso.cn2, spec.fso.wavelength_m, spec.fso.length_m))
        assert spec.fso.i_l == channel_fso.attenuation(
            spec.fso.visibility_km, spec.fso.wavelength_m, spec.fso.length_m)
        assert spec.thz.h_l == channel_thz.thz_path_gain(spec.thz.env)
        # the pointing constants, the FSO CDF blocks and the THz law
        # constants are slots filled when the spec is made, not properties
        for cls, names in ((channel_fso.PointingGeometry,
                            ("v0", "a0", "w_leq_m", "xi")),
                           (channel_fso.FsoLinkSpec, ("cdf_blocks",)),
                           (channel_thz.ThzLinkSpec, ("log_c1", "c2", "c3"))):
            assert set(names) <= set(cls.__slots__), cls
        # (their values: TestPointingGeometry, TestSnrDistribution of the
        # THz tests, and the CDF blocks and log C1 here)
        fso, xi2 = spec.fso, spec.fso.pointing.xi ** 2
        rho1, rho2, d1, d2 = fso.cdf_blocks
        assert rho1 == (xi2 + 1.0,)       # fig13 presets are heterodyne
        assert rho2 == (xi2, fso.alpha_f, fso.beta_f)
        assert d1 == pytest.approx(xi2 / (math.gamma(fso.alpha_f)
                                          * math.gamma(fso.beta_f)), rel=1e-15)
        assert d2 == fso.alpha_f * fso.beta_f
        thz = spec.thz
        xi2_t, nrmu = thz.pointing.xi ** 2, thz.n_rx * thz.mu
        assert thz.log_c1 == pytest.approx(
            math.log(xi2_t) - xi2_t * math.log(thz.pointing.a0)
            + xi2_t / thz.alpha * math.log(nrmu)
            - xi2_t * math.log(thz.omega) - math.lgamma(nrmu), rel=1e-14)
        # equality and the shared-instance cache key on the input fields
        again = load_config(bundled_config_path("fig13")).system_spec(30.0)
        assert again.fso is spec.fso and again.thz is spec.thz
        calls = []
        for module, attr in ((channel_fso, "rytov_turbulence_params"),
                             (channel_fso, "attenuation"),
                             (channel_thz, "thz_path_gain")):
            monkeypatch.setattr(module, attr,
                                lambda *args, attr=attr: calls.append(attr))
        ma.aber_e2e(spec, ma.Modulation.bpsk())
        ma.capacity_e2e(spec)
        ma.outage_e2e(spec)
        ma.asymptotic_outage(spec)
        assert calls == []

    def test_sweep_builds_each_link_once(self, monkeypatch):
        # link and pointing values no other test uses, so that this sweep
        # builds its specs first
        cfg = (load_config(bundled_config_path("fig5"))
               .replaced("fso", eta=0.987654321, jitter_std_m=0.0301234)
               .replaced("thz", omega=1.0123456789)
               .replaced("access", omega_r=1.0123456789))
        built = []
        for cls in (channel_fso.PointingGeometry, channel_fso.FsoLinkSpec,
                    channel_thz.ThzLinkSpec, channel_access.AccessLinkSpec):
            original = cls.__post_init__

            def counted(self, original=original):
                built.append(type(self).__name__)
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        specs = [cfg.with_sweep_value(float(snr)).system_spec()
                 for snr in np.linspace(0.0, 70.0, 100)]
        assert sorted(built) == ["AccessLinkSpec", "FsoLinkSpec",
                                 "PointingGeometry", "PointingGeometry",
                                 "ThzLinkSpec"]
        for spec in specs:
            assert spec.fso is specs[0].fso and spec.thz is specs[0].thz
            assert spec.access is specs[0].access
            assert spec.policy is specs[0].policy
        # a separately loaded copy of the same file shares the instances
        again = parse_config(serialize_config(cfg)).system_spec(12.5)
        assert again.fso is specs[0].fso and again.thz is specs[0].thz
        assert len(built) == 5


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

    def test_epsilon_sweep_on_a_hard_config(self, tmp_path):
        # the sweep makes a hard config soft; at eps = 0 that is the hard
        # policy's coincident-threshold twin, row for row
        cfg = load_config(bundled_config_path("default"))
        swept = cfg.replaced("sweep", axis="epsilon_db", start=0.0, stop=2.0,
                             steps=3)
        path = tmp_path / "c.ini"
        path.write_text(serialize_config(swept))
        for method in ("analytical", "asymptotic"):
            rc, out = run_cli(["run", "outage", "--config", str(path),
                               "--method", method])
            assert rc == 0
            rows = _parse_csv(out)
            assert {r[0] for r in rows} == {"0", "1", "2"}
            rc, hard = run_cli(["run", "outage", "--config", "default",
                                "--method", method])
            assert rc == 0
            assert ([r[1:] for r in rows if r[0] == "0"]
                    == [r[1:] for r in _parse_csv(hard)])
        twin = swept.with_sweep_value(0.0).system_spec()
        spec = cfg.system_spec()
        for link in ma.LINKS:
            assert ma.outage_link(twin, link) == ma.outage_link(spec, link)
            assert (ma.asymptotic_outage(twin, link)
                    == ma.asymptotic_outage(spec, link))

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


class TestHardAsCoincidentSoft:
    def test_bundle_rows_identical(self):
        # every analytic row of every hard-policy bundle job, at its preset
        # points, is the same under HardPolicy(g) and SoftPolicy(g, g, g)
        jobs = 0
        for fig_id in FIGURE_IDS:
            for job in figure_jobs(fig_id):
                policy = job.config.system_spec().policy
                if not isinstance(policy, HardPolicy):
                    continue
                jobs += 1
                twin = job.config.soft(0.0)
                g = policy.gamma_th
                assert twin.system_spec().policy == SoftPolicy(g, g, g)
                methods = tuple(m for m in job.methods if m != "mc")
                for payload in cli._sweep_payloads(
                        job.config, job.command, methods, job.links, 0, 0,
                        job.label, job.capacity_variant, job.modulation,
                        job.sweep_values):
                    at = (fig_id, job.label, payload[4])
                    assert (cli._point_rows(twin, *payload[1:])
                            == cli._point_rows(*payload)), at
        assert jobs == 31


class TestImportSet:
    """A run loads numpy and scipy.special, not scipy.integrate or .optimize."""

    def test_figure_points_and_estimate_load_neither(self):
        src = os.path.dirname(os.path.dirname(fsothz.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        script = (
            "import sys\n"
            "import fsothz.cli as cli\n"
            "from fsothz import figures, monte_carlo as mc\n"
            "for fig_id in figures.FIGURE_IDS:\n"
            "    for job in figures.figure_jobs(fig_id):\n"
            "        cfg = job.config\n"
            "        values = job.sweep_values or tuple(cfg.sweep.values())\n"
            "        methods = tuple(m for m in job.methods if m != 'mc')\n"
            "        cli._point_rows(cfg, job.command, methods, job.links,\n"
            "                        float(values[0]), 1, mc.MIN_SAMPLES,\n"
            "                        job.label, job.capacity_variant,\n"
            "                        job.modulation)\n"
            "spec = figures.figure_jobs('fig5')[1].config.system_spec()\n"
            "mc.estimate_outage(spec, mc.MIN_SAMPLES, 1, 'e2e')\n"
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize')\n"
            "             if m in sys.modules))\n"
            "import fsothz.metrics_analytic as ma\n"
            "print(callable(ma.integrate.quad))\n")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=300)
        assert out.stdout.split("\n")[:2] == ["[]", "True"]

    def test_no_source_refers_to_either(self):
        # scipy.integrate appears only in metrics_analytic's module
        # __getattr__, which the benchmark's tracer reads
        for path in sorted(Path(fsothz.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            lazy = {id(node) for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef)
                    and fn.name == "__getattr__"
                    for node in ast.walk(fn)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}"
                             for alias in node.names]
                else:
                    names = []
                for name in names:
                    assert not name.startswith("scipy.optimize"), path.name
                    assert (not name.startswith("scipy.integrate")
                            or id(node) in lazy), path.name
                if isinstance(node, ast.Attribute):
                    assert not (isinstance(node.value, ast.Name)
                                and node.value.id in ("integrate", "optimize")
                                ), (path.name, node.lineno)
