import ast
import dataclasses
import importlib.util
import inspect
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diracsoliton
from diracsoliton import ansatz, cli, newton
from diracsoliton.cli import RunConfig, load_config, main

ROOT = Path(__file__).parents[1]

FREE_CFG = """\
# small fast configuration with no even potential
V = []
W = [[1, 1.0]]
M = 16
deltas = [0.1]
h = 0.015625
n_bands = 6
n_k = 33
"""


@pytest.fixture()
def free_cfg_path(tmp_path):
    p = tmp_path / "free.cfg"
    p.write_text(FREE_CFG)
    return str(p)


def _src_env(**extra) -> dict:
    """The environment with the package's src/ first on PYTHONPATH."""
    src = str(Path(cli.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        **extra,
        "PYTHONPATH": src if not path else os.pathsep.join([src, path]),
    }


class TestImportCost:
    @staticmethod
    def _scipy_after(tmp_path, *cli_args) -> list[str]:
        """scipy modules loaded after `import diracsoliton`, after
        `import diracsoliton.cli` and, given CLI arguments, after a run.

        One line of space-separated names per step, in a fresh interpreter.
        """
        code = (
            "import sys\n"
            "def loaded():\n"
            "    print(*sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "import diracsoliton\n"
            "loaded()\n"
            "import diracsoliton.cli\n"
            "loaded()\n"
            "if sys.argv[1:]:\n"
            "    assert diracsoliton.cli.main(sys.argv[1:]) == 0\n"
            "    loaded()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *cli_args],
            cwd=tmp_path,
            env=_src_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        return proc.stdout.splitlines()

    def test_no_integrate_special_or_optimize(self, free_cfg_path, tmp_path):
        """Each of these costs import time the pipeline never uses.

        Checked after importing the CLI and again after a verify-all run,
        so the import is not merely deferred to run time.
        """
        heavy = ("scipy.integrate", "scipy.special", "scipy.optimize")
        lines = self._scipy_after(tmp_path, "verify-all", "--config", free_cfg_path)
        assert len(lines) == 3
        for line in lines:
            assert not [m for m in line.split() if m.startswith(heavy)], line

    def test_package_and_cli_import_no_scipy(self, tmp_path):
        assert self._scipy_after(tmp_path) == ["", ""]

    @pytest.mark.parametrize("command", ["bands", "dirac"])
    def test_spectral_commands_never_load_scipy(self, free_cfg_path, tmp_path, command):
        lines = self._scipy_after(tmp_path, command, "--config", free_cfg_path)
        assert lines == ["", "", ""]

    def test_verify_all_loads_no_scipy_sparse(self, free_cfg_path, tmp_path):
        """The Jacobian's eigenvalue comes from scipy.linalg alone."""
        *_, after_run = self._scipy_after(tmp_path, "verify-all", "--config", free_cfg_path)
        assert "scipy.linalg" in after_run.split()
        assert not [m for m in after_run.split() if m.startswith("scipy.sparse")]

    def test_nld_loads_no_scipy_sparse(self, free_cfg_path, tmp_path):
        *_, after_run = self._scipy_after(tmp_path, "nld", "--config", free_cfg_path)
        assert "scipy.linalg" in after_run.split()
        assert not [m for m in after_run.split() if m.startswith("scipy.sparse")]


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.M == 64
        assert cfg.deltas == [0.1, 0.05, 0.025]
        assert cfg.potential_V().coeffs == {2: 20.0}

    def test_file_and_overrides(self, free_cfg_path):
        cfg = load_config(free_cfg_path, {"deltas": [0.2]})
        assert cfg.M == 16
        assert cfg.deltas == [0.2]
        assert cfg.potential_V().coeffs == {}

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("emm = 3\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(str(p))

    def test_bad_value(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("M = sixty-four\n")
        with pytest.raises(ValueError, match="bad value"):
            load_config(str(p))

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("M 64\n")
        with pytest.raises(ValueError, match="key = value"):
            load_config(str(p))

    def test_delta_zero_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            load_config(None, {"deltas": [0.1, 0.0]})

    def test_parity_violation_rejected(self):
        with pytest.raises(ValueError, match="even-index"):
            load_config(None, {"V": [[1, 1.0]]})

    def test_coarse_h_rejected(self):
        with pytest.raises(ValueError, match="h must"):
            load_config(None, {"h": 0.1})

    def test_bad_safety_fraction(self):
        with pytest.raises(ValueError, match="a must"):
            load_config(None, {"a": 1.2})


class TestExitCodes:
    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("nope = 1\n")
        rc = main(["bands", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_detuning_outside_gap_exits_2(self, free_cfg_path, tmp_path, capsys):
        # theta# = 1/2 for this lattice; mu# = 0.6 leaves the gap window
        out = tmp_path / "out"
        rc = main(
            ["nld", "--config", free_cfg_path, "--out", str(out)]
        )
        assert rc == 0
        p = tmp_path / "detuned.cfg"
        p.write_text(FREE_CFG + "mu_sharp = 0.6\n")
        rc = main(["nld", "--config", str(p), "--out", str(out)])
        assert rc == 2
        assert "validation error" in capsys.readouterr().err

    def test_unreachable_newton_tol_exits_3(self, free_cfg_path, tmp_path, capsys):
        p = tmp_path / "tight.cfg"
        p.write_text(FREE_CFG + "newton_tol = 1e-18\n")
        rc = main(["soliton", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_singular_jacobian_exits_3(self, free_cfg_path, tmp_path, capsys, monkeypatch):
        """A zero pivot in jacobian_min_eig's factorization is a numerical failure."""
        real = newton.jacobian_min_eig

        def with_zero_row(op, u, row=5):
            diag, off1, off2 = op.diag.copy(), op.off1.copy(), op.off2.copy()
            u = u.copy()
            diag[row] = u[row] = 0.0
            off1[row - 1 : row + 1] = 0.0
            off2[row - 2] = off2[row] = 0.0
            return real(dataclasses.replace(op, diag=diag, off1=off1, off2=off2), u)

        monkeypatch.setattr(newton, "jacobian_min_eig", with_zero_row)
        rc = main(["soliton", "--config", free_cfg_path, "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "jacobian_min_eig" in err
        assert "Traceback" not in err

    def test_frequency_outside_safety_window_exits_2(self, tmp_path, capsys):
        # |mu#| = 0.47 < |theta#| = 0.5 but above a |theta#| = 0.45
        p = tmp_path / "edge.cfg"
        p.write_text(FREE_CFG + "mu_sharp = 0.47\n")
        out = tmp_path / "out"
        rc = main(["soliton", "--config", str(p), "--out", str(out), "--delta", "0.2"])
        assert rc == 2
        assert "frequency window" in capsys.readouterr().err
        assert not (out / "soliton_scaling.json").exists()

    def test_overlong_domain_exits_2_before_the_grid(self, tmp_path, capsys, monkeypatch):
        grids = []
        monkeypatch.setattr(ansatz, "staggered_grid", lambda *a: grids.append(a))
        p = tmp_path / "long.cfg"
        p.write_text(FREE_CFG + "L = 2e5\n")
        rc = main(["soliton", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "shrink L" in capsys.readouterr().err
        assert grids == []

    def test_verify_all_outside_safety_window_writes_nothing(self, tmp_path, capsys):
        p = tmp_path / "edge.cfg"
        p.write_text(FREE_CFG + "mu_sharp = 0.47\n")
        out = tmp_path / "out"
        rc = main(["verify-all", "--config", str(p), "--out", str(out), "--delta", "0.2"])
        assert rc == 2
        assert "frequency window" in capsys.readouterr().err
        assert not [f.name for f in out.iterdir() if f.suffix in (".json", ".csv")]

    @pytest.mark.parametrize("below", ["", "sub"], ids=["a_file", "below_a_file"])
    def test_out_not_a_directory_exits_2(self, free_cfg_path, tmp_path, capsys, below):
        # mkdir raises FileExistsError on the file itself, NotADirectoryError below it
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / below if below else blocker
        rc = main(["dirac", "--config", free_cfg_path, "--out", str(out)])
        assert rc == 2
        assert "configuration error: cannot make --out" in capsys.readouterr().err

    def test_out_of_memory_exits_3(self, tmp_path):
        """M = 10^6 asks dirac for a 29 TiB matrix; under a 2 GiB address
        space limit that allocation fails at once, so no host tries to
        hold it."""

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        p = tmp_path / "huge.cfg"
        p.write_text("M = 1000000\n")
        proc = subprocess.run(
            [sys.executable, "-m", "diracsoliton.cli", "dirac", "--config", str(p)],
            cwd=tmp_path,
            env=_src_env(OPENBLAS_NUM_THREADS="1"),
            capture_output=True,
            text=True,
            preexec_fn=limit_address_space,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("numerical failure: out of memory:"), proc.stderr
        assert "Traceback" not in proc.stderr


CONFIG_DEFECTS = [
    ("deltas = 0.1", "deltas"),
    ("M = 64.5", "M must"),
    ("V = [[2, 20.0], [2, 5.0]]", "repeats a cosine index"),
    ("W = [[1]]", "W must"),
    ("n_k = 0", "n_k"),
    ("n_bands = 0", "n_bands"),
    # M = 16 holds 2M + 1 = 33 bands
    ("n_bands = 34", "n_bands"),
    ("L = -5.0", "L must"),
    ("L = 0", "L must"),
    ("y_max = 0.0", "y_max"),
    ("newton_tol = 0.0", "newton_tol"),
    ("newton_tol = -1.0", "newton_tol"),
    ("newton_max_iters = 0", "newton_max_iters"),
    ("pair = 0", "pair"),
    ("a = 'x'", "a must"),
    ("deltas = [0.2, 0.2]", "repeats a delta"),
    ("deltas = []", "deltas must be a non-empty list"),
    # only the dataclass fields are keys, not its methods or attributes
    ("validate = 1", "validate"),
    ("potential_V = 0", "potential_V"),
    ("cutoff = 3", "cutoff"),
    ("__class__ = 1", "__class__"),
    ("V = {[1]: 2}", "bad value"),
    # integers beyond float range are not finite numbers
    pytest.param(f"mu_sharp = {10**400}", "mu_sharp", id="mu_sharp = 10**400"),
    pytest.param(f"deltas = [{10**400}]", "deltas", id="deltas = [10**400]"),
    pytest.param(f"V = [[2, {-10**400}]]", "V must", id="V = [[2, -10**400]]"),
]

_FUZZ_KEYS = st.sampled_from(
    [f.name for f in dataclasses.fields(RunConfig)]
    + ["validate", "potential_V", "potential_W", "cutoff", "__class__", "__dict__", "__init__"]
)
_FUZZ_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**500), 10**500)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


class TestConfigContract:
    @pytest.mark.parametrize("line,key", CONFIG_DEFECTS)
    def test_rejected_before_numerical_work(self, tmp_path, capsys, line, key):
        p = tmp_path / "bad.cfg"
        p.write_text(FREE_CFG + line + "\n")
        out = tmp_path / "out"
        rc = main(["verify-all", "--config", str(p), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "configuration error" in err and key in err
        assert not out.exists()


class TestConfigFuzz:
    @given(
        entries=st.lists(st.tuples(_FUZZ_KEYS, _FUZZ_VALUES), max_size=4),
        via_file=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_validated_config_or_value_error(self, entries, via_file):
        """load_config returns a validated RunConfig or raises ValueError.

        Entries go in as config-file lines or as overrides; no numerical
        work is done.
        """
        with tempfile.TemporaryDirectory() as tmp:
            path, overrides = None, dict(entries)
            if via_file:
                path = Path(tmp) / "fuzz.cfg"
                path.write_text(
                    "".join(f"{k} = {v!r}\n" for k, v in entries), encoding="utf-8"
                )
                path, overrides = str(path), None
            try:
                cfg = load_config(path, overrides)
            except ValueError:
                return
        assert isinstance(cfg, RunConfig)


class TestBandsCommand:
    def test_artifacts(self, free_cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["bands", "--config", free_cfg_path, "--out", str(out)]) == 0
        lines = (out / "bands.csv").read_text().splitlines()
        assert lines[0] == "k,band_index,mu"
        assert len(lines) == 1 + 33 * 6
        payload = json.loads((out / "bands.json").read_text())
        assert payload["n_k"] == 33
        assert len(payload["config_sha256"]) == 64

    def test_every_band_of_the_cutoff(self, tmp_path):
        """n_bands = 2M + 1 writes that many bands, each with its range."""
        p = tmp_path / "all.cfg"
        p.write_text(FREE_CFG + "n_bands = 33\n")
        out = tmp_path / "out"
        assert main(["bands", "--config", str(p), "--out", str(out)]) == 0
        payload = json.loads((out / "bands.json").read_text())
        assert payload["n_bands"] == len(payload["band_ranges"]) == 33
        assert len((out / "bands.csv").read_text().splitlines()) == 1 + 33 * 33


class TestDiracCommand:
    def test_free_lattice_values(self, free_cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["dirac", "--config", free_cfg_path, "--out", str(out)]) == 0
        payload = json.loads((out / "dirac_point.json").read_text())
        assert float(payload["mu_star"]) == pytest.approx(np.pi**2, abs=1e-9)
        assert float(payload["c_sharp"]) == pytest.approx(-2.0 * np.pi, abs=1e-9)
        assert float(payload["theta_sharp"]) == pytest.approx(0.5, abs=1e-9)
        gaps = json.loads((out / "gap_report.json").read_text())["reports"]
        assert len(gaps) == 1
        assert gaps[0]["gap_open"]
        assert float(gaps[0]["half_gap_at_pi"]) == pytest.approx(0.05, rel=0.1)


class TestSolitonCommand:
    def test_delta_override_and_artifacts(self, free_cfg_path, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "soliton",
                "--config",
                free_cfg_path,
                "--out",
                str(out),
                "--delta",
                "0.2",
            ]
        )
        assert rc == 0
        assert (out / "soliton_delta_0p2.csv").exists()
        payload = json.loads((out / "soliton_scaling.json").read_text())
        assert [float(d) for d in payload["deltas"]] == [0.2]
        run = payload["runs"][0]
        assert int(run["iters"]) <= 8
        assert float(run["final_residual"]) <= 1e-10
        assert float(run["jacobian_min_eig"]) > 0.0


class TestWriteCsv:
    def test_matches_per_element_format(self, tmp_path):
        x = np.array([-0.0, 5e-324, 2.2250738585072014e-308 / 3.0, 1e300, -1.0 / 3.0, 0.1])
        n = np.arange(len(x)) - 2
        cli._write_csv(tmp_path / "t.csv", {"x": x, "band_index": n, "y": x[::-1]})
        expect = ["x,band_index,y"] + [
            f"{float(a):.17g},{int(b)},{float(c):.17g}" for a, b, c in zip(x, n, x[::-1])
        ]
        assert (tmp_path / "t.csv").read_text() == "\n".join(expect) + "\n"


class TestDeterminismAndGolden:
    def test_nld_byte_identical(self, free_cfg_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["nld", "--config", free_cfg_path, "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("nld_profile.csv", "nld_diagnostics.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    @pytest.mark.parametrize(
        "command,files",
        [
            ("nld", ("nld_profile.csv", "nld_diagnostics.json")),
            ("dirac", ("dirac_point.json", "gap_report.json")),
            ("soliton", ("soliton_delta_0p1.csv", "soliton_scaling.json")),
        ],
        ids=["nld", "dirac", "soliton"],
    )
    def test_artifacts_independent_of_blas_threads(
        self, free_cfg_path, tmp_path, command, files
    ):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = _src_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            subprocess.run(
                [
                    sys.executable,
                    "-c",
                    "import sys; from diracsoliton.cli import main; sys.exit(main())",
                    command,
                    "--config",
                    free_cfg_path,
                    "--out",
                    str(out),
                ],
                env=env,
                check=True,
            )
            outs.append(out)
        for fname in files:
            a, b = ((out / fname).read_bytes() for out in outs)
            if fname == "soliton_scaling.json":
                # the Lanczos dot products and norms are BLAS reductions, whose
                # summation order, and so the last digits, follow the thread count
                a, b = json.loads(a), json.loads(b)
                for ra, rb in zip(a["runs"], b["runs"]):
                    lam_a, lam_b = (float(r.pop("jacobian_min_eig")) for r in (ra, rb))
                    assert lam_a == pytest.approx(lam_b, rel=1e-12)
            assert a == b, fname

    def test_seed_regressions_copies(self, free_cfg_path, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "bands",
                "--config",
                free_cfg_path,
                "--out",
                str(out),
                "--seed-regressions",
            ]
        )
        assert rc == 0
        for f in ("bands.csv", "bands.json"):
            assert (out / "golden" / f).read_bytes() == (out / f).read_bytes()


@pytest.fixture(scope="module")
def verify_all_run(tmp_path_factory):
    """verify-all on FREE_CFG, counting the stage calls it makes."""
    root = tmp_path_factory.mktemp("shared")
    cfg = root / "free.cfg"
    cfg.write_text(FREE_CFG)
    stages = [
        (cli, "certify_dirac_point"),
        (cli, "integrate_homoclinic"),
        (ansatz, "evaluate_udelta"),
        (ansatz, "build_U0"),
        (newton, "build_U0"),
    ]
    calls = {name: 0 for _, name in stages}
    synthesising = []  # non-empty while evaluate_udelta runs
    carrier_points = []  # grid points of each carrier sum made inside it
    synthesis_points = []  # grid points of each evaluate_udelta call

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "evaluate_udelta":
                synthesis_points.append(np.size(args[4] if len(args) > 4 else kwargs["x_grid"]))
            synthesising.append(name == "evaluate_udelta")
            try:
                return fn(*args, **kwargs)
            finally:
                synthesising.pop()

        return wrapper

    def carriers(coeff_vec, k, x_grid, fourier_eval=ansatz.fourier_eval):
        if any(synthesising):
            carrier_points.append(np.size(x_grid))
        return fourier_eval(coeff_vec, k, x_grid)

    with pytest.MonkeyPatch.context() as mp:
        for owner, name in stages:
            mp.setattr(owner, name, counting(name, getattr(owner, name)))
        mp.setattr(ansatz, "fourier_eval", carriers)
        rc = main(["verify-all", "--config", str(cfg), "--out", str(root / "all")])
    assert rc == 0
    return cfg, root, calls, carrier_points, synthesis_points


class TestSharedStages:
    def test_each_stage_runs_once(self, verify_all_run):
        _, _, calls, _, _ = verify_all_run
        # FREE_CFG has one delta: one synthesis feeds the residual, Newton
        # and the error norms
        assert calls == {
            "certify_dirac_point": 1,
            "integrate_homoclinic": 1,
            "evaluate_udelta": 1,
            "build_U0": 0,
        }

    def test_synthesis_covers_the_newton_grid_only(self, verify_all_run):
        _, root, _, _, synthesis_points = verify_all_run
        runs = json.loads((root / "all" / "soliton_scaling.json").read_text())["runs"]
        expect = [len(ansatz.staggered_grid(float(r["L"]), 0.015625)) for r in runs]
        assert synthesis_points == expect

    def test_one_carrier_sum_per_grid_at_cell_offsets(self, verify_all_run):
        _, _, calls, carrier_points, _ = verify_all_run
        assert len(carrier_points) == calls["evaluate_udelta"]
        # h = 1/64: the staggered grid x = (i + 1/2) h has 64 cell offsets
        assert all(0 < n <= 64 for n in carrier_points)

    def test_same_bytes_as_single_commands(self, verify_all_run):
        cfg, root, _, _, _ = verify_all_run
        single = root / "single"
        for command in ("bands", "dirac", "nld", "soliton"):
            assert main([command, "--config", str(cfg), "--out", str(single)]) == 0
        names = sorted(p.name for p in (root / "all").iterdir())
        assert "verify_all.json" in names
        names.remove("verify_all.json")
        assert names == sorted(p.name for p in single.iterdir())
        for name in names:
            assert (root / "all" / name).read_bytes() == (single / name).read_bytes(), name


REFERENCE = Path(__file__).parent / "reference"
# the unjittered base config of the solbench soliton-lattice workload
LATTICE_CFG = """\
V = [[2, 20.0]]
W = [[1, 1.0]]
M = 32
mu_sharp = 0.0
deltas = [0.4, 0.2]
h = 0.015625
L = 900.0
y_max = 370.0
"""
REFERENCE_RUNS = {
    "free_cfg": (FREE_CFG, ["--delta", "0.2,0.1"]),
    "soliton_lattice": (LATTICE_CFG, []),
}
REFERENCE_RTOL = 1e-9
# the closed-form envelope sits on H = 0 to rounding (about 1e-16)
H_DRIFT_BOUND = 1e-14


def _match_reference(ref, new, where, newton_tol, operator_norm=None):
    """Assert new reproduces ref, one JSON value at a time.

    Strings, integers, booleans and null must match exactly, and so must
    config_sha256; other numbers, floats or the decimal strings the
    artifacts hold, agree within REFERENCE_RTOL relative.  Three values
    are checked on their own scale instead.  final_residual, Newton's
    last residual, moves by percents with the BLAS thread count: it only
    has to stay at or below newton_tol.  h_drift_max, the envelope's
    rounding-level distance from H = 0, only has to stay at or below
    H_DRIFT_BOUND.  sigma_min_unrestricted, the translation mode's
    near-zero eigenvalue, agrees within REFERENCE_RTOL times the
    operator_norm of its file, absolutely.
    """
    assert type(new) is type(ref), where
    if isinstance(ref, dict):
        assert sorted(new) == sorted(ref), where
        for key in ref:
            _match_reference(
                ref[key], new[key], f"{where}.{key}", newton_tol, operator_norm
            )
    elif isinstance(ref, list):
        assert len(new) == len(ref), where
        for i, (a, b) in enumerate(zip(ref, new)):
            _match_reference(a, b, f"{where}[{i}]", newton_tol, operator_norm)
    elif where.endswith(".final_residual"):
        assert float(new) <= newton_tol, where
    elif where.endswith(".h_drift_max"):
        assert float(new) <= H_DRIFT_BOUND, (where, new)
    elif where.endswith(".sigma_min_unrestricted"):
        a, b = float(ref), float(new)
        assert abs(a - b) <= REFERENCE_RTOL * float(operator_norm), (where, ref, new)
    elif isinstance(ref, float) or (
        isinstance(ref, str) and not where.endswith(".config_sha256") and _is_number(ref)
    ):
        a, b = float(ref), float(new)
        assert abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b)), (where, ref, new)
    else:
        assert new == ref, where


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class TestReferenceArtifacts:
    """verify-all against the JSON artifacts committed under tests/reference.

    They were written with one BLAS thread by
    `diracsoliton verify-all --config <cfg> --out tests/reference/<name>`
    (plus the run's extra arguments) on the configs of REFERENCE_RUNS.
    """

    @pytest.mark.parametrize("name", sorted(REFERENCE_RUNS))
    def test_verify_all_matches_reference(self, tmp_path, name):
        text, extra = REFERENCE_RUNS[name]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["verify-all", "--config", str(cfg), "--out", str(out), *extra]) == 0
        refs = sorted((REFERENCE / name).glob("*.json"))
        assert [p.name for p in refs] == sorted(p.name for p in out.glob("*.json"))
        for path in refs:
            ref = json.loads(path.read_text())
            new = json.loads((out / path.name).read_text())
            _match_reference(
                ref, new, path.name, ref["config"]["newton_tol"], ref.get("operator_norm")
            )


class TestReadmeIsTheApi:
    def test_library_example_imports_every_export(self, tmp_path):
        """The README's library example runs, and imports all the package exports."""
        readme = (ROOT / "README.md").read_text()
        section = readme.split("## Library example\n", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        subprocess.run(
            [sys.executable, "-c", block], cwd=tmp_path, env=_src_env(), check=True
        )
        imported = {
            alias.name
            for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom) and node.module == "diracsoliton"
            for alias in node.names
        }
        exported = {
            name
            for name, value in vars(diracsoliton).items()
            if not name.startswith("_") and not inspect.ismodule(value)
        }
        assert exported == imported
        assert diracsoliton.__version__


class TestTracedBenchmarkChild:
    def test_verify_all_spans(self, free_cfg_path, tmp_path):
        """solbench/child.py --trace: the layer wrappers fit the pipeline's signatures."""
        bench = ROOT / "solbench"
        proc = subprocess.run(
            [
                sys.executable, str(bench / "child.py"), "--stamp", "s",
                "--trace", "spans.json",
                "--", "verify-all", "--config", free_cfg_path, "--out", "out",
            ],
            cwd=tmp_path,
            env=_src_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        spec = importlib.util.spec_from_file_location("spans", bench / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        metrics = spans.layer_metrics([json.loads((tmp_path / "spans.json").read_text())])
        assert metrics["dirac.certify_calls"] == 1
        assert metrics["homoclinic.integrate_calls"] == 1
        assert metrics["newton.iterations"] >= 1
        runs = json.loads((tmp_path / "out" / "soliton_scaling.json").read_text())["runs"]
        (run,) = runs  # FREE_CFG has one delta
        points = len(ansatz.staggered_grid(float(run["L"]), 0.015625))
        assert metrics["ansatz.synthesis_points"] == points
