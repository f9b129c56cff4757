"""Two traced runs with the same seed give identical counters.

Count-based claims about a change rest on this: every ``*.calls``,
``solvers.newton.*`` count and ``solvers.dedup_yield`` must repeat exactly.
The counts also show that the hooks reach the bindings the solvers call.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "run.py"

# Exact counts that show the hooks see the calls made through consumer bindings.
EXPECTED = {
    "multistart": {"solvers.newton.calls": 1024},
    "finegrid": {"solvers.newton.calls": 4, "solvers.newton.ok": 4},
    # 4 suites x 1000 trials; Cauchy-Schwarz enters holder_certify as well
    "bounds": {"inequalities.certify.calls": 5000, "solvers.newton.calls": 0},
}
NONZERO = {
    "multistart": ("dsl.eval.calls", "solvers.newton.residual_calls", "dsl.parse.s"),
    "finegrid": ("dsl.eval.calls", "special.h_factorial.calls",
                 "fracvar.natural_bc_residuals.calls", "varcalc.el_residual.calls",
                 "varcalc.functional_value.calls", "timescale.build.s"),
    "bounds": ("solvers.jacobi_eigh.s", "solvers.adaptive_simpson.calls",
               "inequalities.gronwall_bound.s", "inequalities.comparison_bound.s",
               "cli.main.self_s", "timescale.build.s"),
}


def _start_traced_run(workload: str) -> subprocess.Popen:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", "1"]
    return subprocess.Popen(cmd, cwd=RUN.parents[1], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _result(proc: subprocess.Popen) -> dict:
    out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_counters_repeat_exactly(workload):
    procs = [_start_traced_run(workload) for _ in range(2)]
    try:
        first, second = [_result(p) for p in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    assert first["correct"] and second["correct"]
    metrics = first["metrics"]
    exact = {k for k, m in metrics.items() if m["unit"] == "count"} | {"solvers.dedup_yield"}
    assert {k for k in metrics if k.endswith(".calls")} <= exact
    assert {k for k in metrics if k.startswith("solvers.newton.")
            and not k.endswith("_s")} <= exact
    for name in sorted(exact):
        assert metrics[name]["value"] == second["metrics"][name]["value"], name
    for name, value in EXPECTED[workload].items():
        assert metrics[name]["value"] == value, name
    for name in NONZERO[workload]:
        assert metrics[name]["value"] > 0, name
