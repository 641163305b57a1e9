"""Self-tests of the benchmark's output checks.

    python3 solbench/selftest.py

Runs one small free-lattice verify-all, confirms that every check passes
on its artifacts, then corrupts one artifact at a time in a copy and
confirms that the check meant to catch it reports an error.  Also
confirms that the run loop counts a non-zero exit and artifacts that
differ between rounds as failed invocations.  Exits 1 on any miss.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy loads

import checks
import numpy as np
from workloads import config_text

CFG = {
    "V": [],
    "W": [[1, -1.0]],
    "M": 16,
    "mu_sharp": 0.1,
    "deltas": [0.4, 0.2],
    "h": 1.0 / 64.0,
}
CSV = "soliton_delta_0p2.csv"


def edit_json(name: str, edit):
    def corrupt(out: Path):
        data = json.loads((out / name).read_text())
        edit(data)
        (out / name).write_text(json.dumps(data))
    return corrupt


def scale(key: str, factor: float):
    def edit(d):
        d[key] = repr(float(d[key]) * factor)
    return edit


def edit_csv(edit):
    def corrupt(out: Path):
        data = np.loadtxt(out / CSV, delimiter=",", skiprows=1)
        edit(data[:, 1])
        np.savetxt(out / CSV, data, delimiter=",", header="x,u", comments="", fmt="%.17g")
    return corrupt


def _spike(u):
    u[np.argmax(np.abs(u))] += 1e-2 * np.max(np.abs(u))


def _nudge_run(key: str, delta: float):
    def edit(d):
        d["runs"][0][key] = repr(float(d["runs"][0][key]) + delta)
    return edit


# (description, corruption, text the check must report)
CORRUPTIONS = [
    ("mu_star off by 1e-7", edit_json("dirac_point.json", scale("mu_star", 1 + 1e-7)), "mu_star"),
    ("c_sharp off by 1e-5", edit_json("dirac_point.json", scale("c_sharp", 1 + 1e-5)), "|c_sharp|"),
    ("theta_sharp off by 1%", edit_json("dirac_point.json", scale("theta_sharp", 1.01)), "|theta_sharp|"),
    ("beta1 off by 1e-3", edit_json("dirac_point.json", scale("beta1", 1.001)), "beta1"),
    ("gap reported closed",
     edit_json("gap_report.json", lambda d: d["reports"][0].update(gap_open=False)), "gap not open"),
    ("half gap 20% wide",
     edit_json("gap_report.json", lambda d: scale("half_gap_at_pi", 1.2)(d["reports"][1])), "half gap"),
    ("decay rate off by 3%", edit_json("nld_diagnostics.json", scale("decay_rate_fit", 1.03)), "decay_rate_fit"),
    ("energy drift 1e-8",
     edit_json("nld_diagnostics.json", lambda d: d.update(h_drift_max="1e-08")), "h_drift_max"),
    ("restricted sigma_min only 5x",
     edit_json("nld_diagnostics.json", lambda d: d.update(
         sigma_min_restricted=repr(5 * float(d["sigma_min_unrestricted"])))), "sigma_min_restricted"),
    ("one soliton sample off by 1% of the peak", edit_csv(_spike), "relative residual"),
    ("soliton amplitude 3x", edit_csv(lambda u: u.__imul__(3.0)), "not positive"),
    ("mu_delta off by 1e-6", edit_json("soliton_scaling.json", _nudge_run("mu_delta", 1e-6)), "mu_delta"),
    ("fitted_error_order 0.5",
     edit_json("soliton_scaling.json", lambda d: d.update(fitted_error_order="0.5")), "fitted_error_order"),
    ("fitted_residual_order not the fit of its norms",
     edit_json("soliton_scaling.json", scale("fitted_residual_order", 0.9)), "own fit of residual_norms"),
]


def main() -> int:
    misses = 0
    run.OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.OUT_ROOT) as tmp:
        tmp = Path(tmp)
        cfg_path = tmp / "run.cfg"
        cfg_path.write_text(config_text(CFG))
        first = run.run_round(("verify-all",), cfg_path, tmp / "round0", None)
        out = first["children"][0]["out"]
        if first["children"][0]["code"] != 0:
            print(f"FAIL small verify-all exited {first['children'][0]['code']}")
            return 1
        clean = checks.check_command("verify-all", CFG, out, out, [])
        print(f"{'ok' if not clean else 'FAIL'}   clean artifacts pass: {clean}")
        misses += bool(clean)

        for i, (what, corrupt, expect) in enumerate(CORRUPTIONS):
            bad = tmp / f"bad{i}"
            shutil.copytree(out, bad)
            corrupt(bad)
            errors = checks.check_command("verify-all", CFG, bad, bad, [])
            hit = any(expect in e for e in errors)
            misses += not hit
            print(f"{'ok' if hit else 'FAIL'}   {what}: {errors if not hit else expect!r}")

        verifier = run.Verifier(CFG)
        verifier.verify(first)
        changed = tmp / "round1" / "0-verify-all" / "out"
        shutil.copytree(out, changed)
        with open(changed / "bands.csv", "a") as f:
            f.write("\n")
        crashed = {"children": [dict(first["children"][0], code=3, stderr="numerical failure")]}
        verifier.verify({"children": [dict(first["children"][0], out=changed)]})
        verifier.verify(crashed)
        counted = (verifier.attempted, verifier.failed) == (3, 2) and not verifier.correct
        misses += not counted
        print(f"{'ok' if counted else 'FAIL'}   changed hash and exit 3 counted: "
              f"attempted={verifier.attempted} failed={verifier.failed} {verifier.errors}")
    print("all checks reject their corruption" if not misses else f"{misses} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
