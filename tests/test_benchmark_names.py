"""The names of fsothz that the benchmark in ``perfbench/`` imports and wraps.

The benchmark reaches into the package by attribute (``specfun.meijer_g``,
``meijer_g_residue``, ``meijer_g_contour``, ``FLAG_CONTOUR_REFINE_CAP``,
``metrics_analytic.integrate`` and the layer entry points), so a deletion
that drops one breaks it without failing any other test.  Its eps = 0
check rebuilds a hard point's spec under ``SoftPolicy(g, g, g)`` from
``policy.gamma_th``, so the script also runs that check on one point.
"""

import os
import subprocess
import sys
from pathlib import Path

import fsothz

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SCRIPT = """\
import checks, tracing
from fsothz import metrics_analytic, specfun
before = (specfun.meijer_g, metrics_analytic.integrate)
tracer = tracing.Tracer()
tracing.install(tracer)
assert specfun.meijer_g is not before[0]
tracer.restore()
assert (specfun.meijer_g, metrics_analytic.integrate) == before
import workloads
from fsothz import figures
job, = figures.figure_jobs("fig6a")
op = workloads.Op("point", "fig6a@45dB", None, job=job, snr_db=45.0)
assert checks._hard_soft_identity(op, workloads.run_point(job, 45.0)) == []
print("ok")
"""


def test_tracer_installs_and_restores():
    src = os.path.dirname(os.path.dirname(fsothz.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, str(PERFBENCH)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"
