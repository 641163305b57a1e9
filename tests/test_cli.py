import ast
import contextlib
import dataclasses
import importlib.util
import inspect
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diracsoliton
from diracsoliton import _csvtext, ansatz, cli, newton
from diracsoliton.cli import Pipeline, RunConfig, load_config, main

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

# the unjittered base config of the solbench soliton-lattice workload: V != 0
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


def _free_cfg(line: str) -> str:
    """FREE_CFG with `line`, a `key = value` line, in place of that key's
    line, or after the others if FREE_CFG does not set the key: a config
    file sets a key once."""
    key = line.partition("=")[0].strip()
    old = re.search(rf"^{re.escape(key)} =.*$", FREE_CFG, flags=re.M)
    return FREE_CFG.replace(old[0], line) if old else FREE_CFG + line + "\n"


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
    def _scipy_after(tmp_path, *cli_args, prefixes=("scipy",)) -> list[str]:
        """Modules under `prefixes` (scipy by default) loaded after `import
        diracsoliton`, after `import diracsoliton.cli` and, given CLI
        arguments, after a run.

        One line of space-separated names per step, in a fresh interpreter.
        """
        code = (
            "import sys\n"
            "def loaded():\n"
            f"    print(*sorted(m for m in sys.modules if m.startswith({prefixes!r})))\n"
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

    def _assert_lapack_module_alone(self, tmp_path, *cli_args):
        """After the run: scipy, but not the scipy.linalg package, whose init
        loads scipy's array-API layer and with it numpy.f2py and
        numpy.testing, nor scipy.sparse."""
        *_, after_run = self._scipy_after(
            tmp_path, *cli_args, prefixes=("scipy", "numpy.f2py", "numpy.testing")
        )
        loaded = after_run.split()
        assert "scipy" in loaded
        unwanted = [
            m for m in loaded
            if m in ("scipy.linalg", "scipy._lib._array_api")
            or m.startswith(("scipy.sparse", "numpy.f2py", "numpy.testing"))
        ]
        assert not unwanted, unwanted

    def test_verify_all_loads_no_scipy_sparse(self, free_cfg_path, tmp_path):
        """Newton, the Jacobian's eigenvalue and the kernel check take their
        LAPACK routines from scipy's compiled module, without scipy.linalg,
        its array-API layer, scipy.sparse, numpy.f2py or numpy.testing."""
        self._assert_lapack_module_alone(tmp_path, "verify-all", "--config", free_cfg_path)

    def test_scipy_linalg_works_after_the_lapack_module(self, tmp_path):
        """newton loads scipy's compiled LAPACK module from its file; a
        later import of scipy.linalg still works and solves with the same
        bits.  A scipy that moves the module fails here."""
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import diracsoliton.newton\n"
            "def solve(lapack):\n"
            "    ab = np.zeros((7, 50), order='F')\n"
            "    ab[4], ab[3, 1:], ab[5, :-1] = 2.5, -1.0, -1.0\n"
            "    lu, piv, info = lapack.dgbtrf(ab, 2, 2)\n"
            "    x, info_solve = lapack.dgbtrs(lu, 2, 2, np.cos(np.arange(50.0)), piv)\n"
            "    assert info == info_solve == 0\n"
            "    return x.tobytes()\n"
            "ours = solve(diracsoliton._lapack)\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "import scipy.linalg\n"
            "assert solve(scipy.linalg.lapack) == ours\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path,
            env=_src_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command", ["bands", "dirac", "nld"])
    def test_non_soliton_commands_never_load_a_process_pool(
        self, free_cfg_path, tmp_path, command
    ):
        pool = ("multiprocessing", "concurrent.futures")
        lines = self._scipy_after(
            tmp_path, command, "--config", free_cfg_path, prefixes=pool
        )
        assert lines == ["", "", ""]

    @pytest.mark.parametrize("command", ["soliton", "verify-all"])
    def test_soliton_commands_fork_without_a_process_pool(
        self, free_cfg_path, tmp_path, command
    ):
        """Two deltas on two usable CPUs: the workers are forked by the
        package, so neither multiprocessing nor concurrent.futures loads,
        about 20 ms of imports on the critical path."""
        code = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "import diracsoliton.cli\n"
            "assert diracsoliton.cli.main(sys.argv[1:]) == 0\n"
            "print(*sorted(m for m in sys.modules\n"
            "              if m.startswith(('multiprocessing', 'concurrent.futures'))))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, command, "--config", free_cfg_path,
             "--delta", "0.2,0.1", "--out", str(tmp_path / "out")],
            cwd=tmp_path, env=_src_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "\n"
        assert len(list((tmp_path / "out").glob("soliton_delta_*.csv"))) == 2

    @pytest.mark.parametrize(
        "cli_args",
        [("dirac",), ("soliton", "--delta", "0.2,0.1"), ("verify-all", "--delta", "0.2,0.1"),
         ("bands",), ("nld",)],
        ids=["dirac", "soliton", "verify-all", "bands", "nld"],
    )
    def test_loads_no_numpy_ma(self, free_cfg_path, tmp_path, cli_args):
        """numpy.ma, which np.unique imports on its first call, costs a run
        about 18 ms and is never used; two deltas take the order fit, and
        bands and nld write their CSVs with the formatter.  Its package
        loads numpy.ma.core; the bare prefix "numpy.ma" would also match
        numpy.matrixlib."""
        lines = self._scipy_after(
            tmp_path, *cli_args, "--config", free_cfg_path, "--out", str(tmp_path / "out"),
            prefixes=("numpy.ma.",),
        )
        assert lines == ["", "", ""]

    def test_nld_loads_no_scipy_sparse(self, free_cfg_path, tmp_path):
        self._assert_lapack_module_alone(tmp_path, "nld", "--config", free_cfg_path)

    def test_csv_formatter_loads_with_the_first_csv(self, free_cfg_path, tmp_path):
        """Not with the CLI, so a run's set-up does not pay for its tables:
        dirac writes no CSV and never loads it, bands does."""
        name = ("diracsoliton._csvtext",)
        assert self._scipy_after(tmp_path, "dirac", "--config", free_cfg_path,
                                 prefixes=name) == ["", "", ""]
        assert self._scipy_after(tmp_path, "bands", "--config", free_cfg_path,
                                 prefixes=name) == ["", "", name[0]]

    def test_csv_formatter_loads_nothing_beyond_numpy(self, tmp_path):
        code = (
            "import sys, diracsoliton\n"
            "before = set(sys.modules)\n"
            "import diracsoliton._csvtext\n"
            "print(*sorted(set(sys.modules) - before))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=_src_env(),
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout == "diracsoliton._csvtext\n"


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
        """A value that is not a Python literal is named by its text, not
        by the parser's node (whose address changes from run to run)."""
        p = tmp_path / "bad.cfg"
        for line, text in (("M = sixty-four", "'sixty-four'"), ("h = 1/64", "'1/64'")):
            p.write_text(line + "\n")
            key = line.split()[0]
            with pytest.raises(ValueError, match="bad value") as err:
                load_config(str(p))
            assert str(err.value) == (
                f"{p}:1: bad value for '{key}': {text} is not a Python literal"
            )

    def test_repeated_key(self, tmp_path):
        """A key set twice is rejected, not merged: neither value is taken."""
        p = tmp_path / "bad.cfg"
        p.write_text("M = 16\n# the cutoff again\nM = 24\n")
        with pytest.raises(ValueError) as err:
            load_config(str(p))
        assert str(err.value) == f"{p}:3: 'M' already set on line 1"

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


def _with_zero_row(op, u, row=5):
    """op and u with row and column `row` of the Jacobian A - 3 diag(u^2)
    zeroed: its banded LU meets a zero pivot."""
    diag, off1, off2 = op.diag.copy(), op.off1.copy(), op.off2.copy()
    u = u.copy()
    diag[row] = u[row] = 0.0
    off1[row - 1 : row + 1] = 0.0
    off2[row - 2] = off2[row] = 0.0
    return dataclasses.replace(op, diag=diag, off1=off1, off2=off2), u


class TestExitCodes:
    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("nope = 1\n")
        rc = main(["bands", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("M", [16, 17], ids=["even_M", "odd_M"])
    def test_pair_beyond_the_cutoff_exits_2(self, tmp_path, capsys, M):
        """pair = M + 1: for either parity of M the smaller parity block at
        k = pi holds M eigenvalues, so the pair is rejected naming M."""
        p = tmp_path / "pair.cfg"
        p.write_text(f"M = {M}\npair = {M + 1}\n")
        rc = main(["dirac", "--config", str(p), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert f"validation error: pair_selector {M + 1} exceeds the cutoff M = {M}" in err
        assert "Traceback" not in err

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
        """newton_tol is out of one step's reach.  (A tolerance below the
        rounding floor is not unreachable: Newton stops at the floor.)"""
        p = tmp_path / "tight.cfg"
        p.write_text(FREE_CFG + "newton_max_iters = 1\n")
        rc = main(["soliton", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_singular_jacobian_exits_3(self, free_cfg_path, tmp_path, capsys, monkeypatch):
        """A zero pivot in jacobian_min_eig's factorization is a numerical failure."""
        real = newton.jacobian_min_eig
        monkeypatch.setattr(
            newton, "jacobian_min_eig",
            lambda op, u, shift: real(*_with_zero_row(op, u), 0.0),  # the zero pivot at 0
        )
        rc = main(["soliton", "--config", free_cfg_path, "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "jacobian_min_eig" in err
        assert "Traceback" not in err

    def test_singular_newton_step_exits_3(self, free_cfg_path, tmp_path, capsys, monkeypatch):
        """A zero pivot in a Newton step raises LinAlgError, a ValueError
        subclass, from the banded LU: a numerical failure all the same."""
        real = newton.newton_solve

        def with_zero_row(op, initial, tol, max_iters):
            op, initial = _with_zero_row(op, initial)
            return real(op, initial, tol, max_iters)

        monkeypatch.setattr(newton, "newton_solve", with_zero_row)
        rc = main(["soliton", "--config", free_cfg_path, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert err.startswith("numerical failure: soliton delta=0.1, N=")
        assert "singular matrix: zero pivot" in err and "Traceback" not in err

    def test_frequency_outside_safety_window_exits_2(self, tmp_path, capsys):
        # |mu#| = 0.47 < |theta#| = 0.5 but above a |theta#| = 0.45
        p = tmp_path / "edge.cfg"
        p.write_text(FREE_CFG + "mu_sharp = 0.47\n")
        out = tmp_path / "out"
        rc = main(["soliton", "--config", str(p), "--out", str(out), "--delta", "0.2"])
        assert rc == 2
        assert "frequency window" in capsys.readouterr().err
        assert not (out / "soliton_scaling.json").exists()

    def test_W_beyond_the_cutoff_exits_2(self, tmp_path, capsys):
        """The default lattice (M = 64) with a W index 201 above 2M = 128:
        no two retained modes couple through it, so the cutoff would drop
        it unseen.  dirac and soliton reject it alike, before any artifact."""
        p = tmp_path / "far.cfg"
        p.write_text("W = [[1, 1.0], [201, 0.5]]\n")
        errs = []
        for command in ("dirac", "soliton"):
            out = tmp_path / command
            rc = main([command, "--config", str(p), "--out", str(out)])
            errs.append(capsys.readouterr().err)
            assert rc == 2, errs[-1]
            assert list(out.iterdir()) == []
        assert errs[0] == errs[1]
        assert errs[0].startswith("validation error: W cosine index 201 above 2M = 128"), errs[0]

    @pytest.mark.parametrize("command", ["nld", "soliton", "verify-all"])
    def test_y_max_past_the_decay_exits_2(self, tmp_path, capsys, command):
        """FREE_CFG's envelope (decay length about 13) underflows to 0 well
        before [0.5, 0.9] y_max, where the decay fit is taken."""
        p = tmp_path / "far.cfg"
        p.write_text(FREE_CFG + "y_max = 1e5\n")
        rc = main([command, "--config", str(p), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("validation error: y_max=1e+05 is ")
        assert "decay lengths" in err

    @pytest.mark.parametrize(
        "lengths, rc",
        [(None, 2), (39.9, 0), (14.0, 2), (15.0, 0)],
        ids=["1e4", "39.9-lengths", "14-lengths", "15-lengths"],
    )
    def test_y_max_beyond_the_kernel_check_grid_exits_2(
        self, free_cfg_path, tmp_path, capsys, lengths, rc
    ):
        """y_max = 1e4, about 800 decay lengths: the envelope has not
        underflowed on the decay-fit window, but the kernel check's
        601-point grid no longer resolves the soliton.  39.9 decay
        lengths are accepted.  At the other end 14 decay lengths are a
        configuration error, not a numerical failure, and 15 are
        accepted."""
        ell = 1.0 / Pipeline(load_config(free_cfg_path)).params.decay_rate
        y_max = 1e4 if lengths is None else float(lengths * ell)
        p = tmp_path / "long.cfg"
        p.write_text(FREE_CFG + f"y_max = {y_max!r}\n")
        got = main(["nld", "--config", str(p), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert got == rc, err
        if rc == 2:
            assert err.startswith(f"validation error: y_max={y_max:.3g} is ")

    def test_seed_regressions_flag_removed(self, free_cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as stop:
            main(["bands", "--config", free_cfg_path, "--out", str(out), "--seed-regressions"])
        assert stop.value.code == 2
        assert "unrecognized arguments: --seed-regressions" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "command,deltas,blocked,named",
        [
            ("bands", "0.1", "bands.csv", ""),
            ("nld", "0.1", "nld_profile.csv", ""),
            ("soliton", "0.1", "soliton_delta_0p1.csv", "soliton delta=0.1, N="),
            ("soliton", "0.2,0.1", "soliton_delta_0p1.csv", "soliton delta=0.1, N="),
            ("verify-all", "0.2,0.1", "bands.csv", "bands: "),
        ],
        ids=["bands", "nld", "soliton", "soliton_workers", "verify_all_workers"],
    )
    def test_unwritable_artifact_exits_2(
        self, free_cfg_path, tmp_path, capsys, monkeypatch, command, deltas, blocked, named
    ):
        """A directory where an artifact goes, in this process or in a worker."""
        _usable_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        rc = main([command, "--config", free_cfg_path, "--out", str(out), "--delta", deltas])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith(f"validation error: {named}"), err
        assert err.endswith(f"cannot write {out / blocked}: Is a directory\n"), err
        assert not _children_left()

    @staticmethod
    def _cli_in_2_gib(tmp_path, config: str, *args) -> str:
        """stderr of a CLI run in a subprocess under a 2 GiB address space
        limit, which exited 3 without a traceback.  An allocation past
        the limit fails at once, so no host tries to hold it.  Two usable
        CPUs are reported, so two deltas run in two forked workers."""

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        p = tmp_path / "run.cfg"
        p.write_text(config)
        code = (  # python -m diracsoliton.cli, with the CPUs reported
            "import os, runpy\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "runpy.run_module('diracsoliton.cli', run_name='__main__', alter_sys=True)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *args, "--config", str(p)],
            cwd=tmp_path,
            env=_src_env(OPENBLAS_NUM_THREADS="1"),
            capture_output=True,
            text=True,
            preexec_fn=limit_address_space,
        )
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        return proc.stderr

    def test_out_of_memory_exits_3(self, tmp_path):
        """M = 10^6 asks dirac for a 29 TiB matrix."""
        err = self._cli_in_2_gib(tmp_path, "M = 1000000\n", "dirac")
        assert err.startswith("numerical failure: out of memory:"), err

    @pytest.mark.parametrize(
        "line,deltas,expect",
        [
            ("L = 1e8", "0.1", "soliton delta=0.1, N=6400000000: "),
            ("L = 1e8", "0.2,0.1", "soliton delta=0.2, N=6400000000: "),
            ("L = 1e300", "0.2", "soliton delta=0.2: a grid of 6.4e+301 points"),
            ("h = 1e-300", "0.2", "soliton delta=0.2: a grid of 1.16e+303 points"),
            ("", "1e-300", "soliton delta=1e-300: a grid of 1.49e+304 points"),
            # L / h beyond float range: the same rule, not a configuration error
            ("L = 1e308", "0.2", "soliton delta=0.2: a grid of inf points"),
        ],
        ids=["in_process", "workers", "beyond_any_array", "tiny_h", "tiny_delta", "infinite"],
    )
    def test_soliton_grid_out_of_memory_exits_3(self, tmp_path, line, deltas, expect):
        """L = 1e8 asks for a grid of 6.4e9 points, 51 GB per array; a
        worker's numpy out-of-memory error comes back pickled.  An L of
        1e300, or the default L over an h or delta of 1e-300, asks for
        more points than numpy can address: the grid's size rule rejects
        it before any artifact, its count written as a float."""
        err = self._cli_in_2_gib(tmp_path, _free_cfg(line), "soliton", "--delta", deltas)
        assert err.startswith(f"numerical failure: out of memory: {expect}"), err
        assert not re.search(r"\d{20}", err), err
        if "N=" not in expect:
            assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("command", ["soliton", "verify-all"])
    @pytest.mark.parametrize("deltas", ["0.1", "0.2,0.1"])
    def test_domain_below_the_decay_floor_exits_2(
        self, tmp_path, capsys, monkeypatch, command, deltas
    ):
        """FREE_CFG's decay length is 4 pi: L = 1000 is below the floor
        10 ell / delta = 1257 at delta = 0.1, not at 0.2.  Rejected with
        the shared stages, before bands, dirac, nld or delta 0.2 write."""
        _usable_cpus(monkeypatch, 2)
        p = tmp_path / "short.cfg"
        p.write_text(FREE_CFG + "L = 1000.0\n")
        out = tmp_path / "out"
        rc = main([command, "--config", str(p), "--out", str(out), "--delta", deltas])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err == (
            "validation error: soliton delta=0.1: L = 1000 below the envelope-decay "
            "floor 10 ell / delta = 1257\n"
        )
        assert list(out.iterdir()) == []

    def test_default_domain_below_the_decay_floor_exits_2(self, tmp_path, capsys):
        """W = 1e100 leaves a decay length of 4 pi 1e-100: the default rule
        floor(18.5 ell / delta) gives L = 0, and the message says so."""
        p = tmp_path / "steep.cfg"
        p.write_text(FREE_CFG.replace("W = [[1, 1.0]]", "W = [[1, 1e100]]"))
        rc = main(["soliton", "--config", str(p), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith(
            "validation error: soliton delta=0.1: the default L = floor(18.5 ell / delta) "
            "= 0 below the envelope-decay floor"
        ), err

    @pytest.mark.parametrize("command", ["nld", "soliton"])
    def test_decay_rate_beyond_float_range_exits_2(self, tmp_path, capsys, command):
        """W = 1e300 makes theta#^2 overflow: the envelope stage rejects
        its decay rate instead of raising OverflowError."""
        p = tmp_path / "steep.cfg"
        p.write_text(FREE_CFG.replace("W = [[1, 1.0]]", "W = [[1, 1e300]]"))
        rc = main([command, "--config", str(p), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith(
            "validation error: envelope decay rate sqrt(theta#^2 - mu#^2) / |c#| = inf "
            "is not a positive finite number: theta#=5e+299"
        ), err

    @pytest.mark.parametrize("command", ["soliton", "verify-all"])
    @pytest.mark.filterwarnings("error")
    def test_corrector_forcing_beyond_float_range_exits_2(self, tmp_path, capsys, command):
        """W = 1e150 leaves theta#^2 finite but overflows the corrector
        forcing's size: an infinite size fails the solvability check (its
        relative projection would read 0 and pass vacuously), which names
        the corrector before any artifact and prints no numpy warning."""
        p = tmp_path / "steep.cfg"
        p.write_text(FREE_CFG.replace("W = [[1, 1.0]]", "W = [[1, 1e150]]"))
        out = tmp_path / "out"
        rc = main([command, "--config", str(p), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith(
            "validation error: corrector: the forcing's size inf or its kernel projection "
        ), err
        assert "theta#=5e+149" in err, err
        assert list(out.iterdir()) == []


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
        p.write_text(_free_cfg(line))
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


# the end-to-end fuzz's largest grid: more would cost seconds an example
_FUZZ_MAX_POINTS = 100_000


def _magnitudes(*typical):
    """One of the typical values, or |x| from 1e-300 to 1e300, log-uniform."""
    return st.sampled_from(typical) | st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


class TestMainFuzz:
    @given(
        M=st.integers(3, 16),
        amps=st.lists(
            st.tuples(st.sampled_from([1.0, -1.0]), _magnitudes(1.0, 0.5, 2.0)).map(
                lambda t: t[0] * t[1]
            ),
            min_size=1,
            max_size=2,
        ),
        L=st.none() | _magnitudes(1000.0, 300.0, 2500.0),
        delta=_magnitudes(0.2, 0.5, 0.1),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_exit_code_without_traceback(self, M, amps, L, delta):
        """nld and soliton on small free lattices (one delta, h = 1/64) with
        W amplitudes, L and delta anywhere from 1e-300 to 1e300 exit 0, 2
        or 3.  A grid past _FUZZ_MAX_POINTS raises MemoryError, as on a
        machine too small for it, so no example allocates a large grid."""
        W = [[2 * i + 1, amp] for i, amp in enumerate(amps)]
        config = FREE_CFG.replace("M = 16", f"M = {M}").replace("W = [[1, 1.0]]", f"W = {W!r}")
        config = config.replace("deltas = [0.1]", f"deltas = [{delta!r}]")
        if L is not None:
            config += f"L = {L!r}\n"
        grid_points = newton.grid_points

        def capped(L, h):
            n = grid_points(L, h)
            if n > _FUZZ_MAX_POINTS:
                raise MemoryError(f"{n} points past the fuzz's cap")
            return n

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(newton, "grid_points", capped)
            cfg = Path(tmp) / "fuzz.cfg"
            cfg.write_text(config)
            for command in ("nld", "soliton"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    rc = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
                assert rc in (0, 2, 3), (command, config, err.getvalue())
                assert "Traceback" not in err.getvalue(), (command, config)


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
        p.write_text(_free_cfg("n_bands = 33"))
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


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _children_left() -> bool:
    """Whether this process has a child process, running or not yet
    reaped: os.waitpid raises ChildProcessError once it has none."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def test_domain_past_y_max_runs(tmp_path):
    """The envelope is evaluated in closed form at every y, so an L whose
    grid reaches past y_max / delta is solved like any other."""
    p = tmp_path / "long.cfg"
    p.write_text(FREE_CFG + "y_max = 230.0\nL = 1151.0\n")
    out = tmp_path / "out"
    assert main(["soliton", "--config", str(p), "--out", str(out), "--delta", "0.2"]) == 0
    last = (out / "soliton_delta_0p2.csv").read_text().splitlines()[-1]
    assert 0.2 * float(last.split(",")[0]) > 230.0


def test_default_domain_is_whole_cells_without_y_max(free_cfg_path, tmp_path):
    """The default L is a whole number of cells, floor(18.5 ell / delta),
    whatever y_max samples the envelope: the default y_max (18 decay
    lengths) and 25 decay lengths give the same L."""
    ell = 1.0 / Pipeline(load_config(free_cfg_path)).params.decay_rate
    p = tmp_path / "long.cfg"
    p.write_text(FREE_CFG + f"y_max = {float(25.0 * ell)!r}\n")
    domains = []
    for name, cfg in (("default", free_cfg_path), ("long", str(p))):
        out = tmp_path / name
        assert main(["verify-all", "--config", cfg, "--out", str(out)]) == 0
        (run,) = json.loads((out / "soliton_scaling.json").read_text())["runs"]
        domains.append(float(run["L"]))
    assert domains[0] == domains[1] == math.floor(18.5 * ell / 0.1)


def test_mid_cell_cut_exits_3(tmp_path, capsys):
    """The README's mid-cell L on the free lattice: at delta = 0.1 its cut
    carries an edge state nearer 0 than the soliton's eigenvalue, which
    the shift delta nu finds.  The certificate fails, named, with no
    traceback and before soliton_scaling.json."""
    p = tmp_path / "mid.cfg"
    p.write_text(FREE_CFG + "L = 2250.637\n")
    out = tmp_path / "out"
    assert main(["soliton", "--config", str(p), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(
        "numerical failure: soliton delta=0.1, N=144041: jacobian_min_eig: "
    ), err
    assert "parities 1 and 1" in err and "L = 2250.637, L mod 1 = 0.637" in err
    assert "lambda/delta = 0.423689 against nu = 0.42318 on Y" in err
    assert "Traceback" not in err
    assert not (out / "soliton_scaling.json").exists()


def test_fine_grid_stops_at_rounding_floor(tmp_path):
    """h = 1/512 on the default lattice: the residual stalls at 2.3e-10, the
    rounding of A u, above newton_tol = 1e-10.  Newton stops at the floor
    eps ||A|| ||u|| (1.1e-9 here) after as many steps as at h = 1/256.  A
    whole-cell L at delta = 0.4 keeps the grid small."""
    p = tmp_path / "fine.cfg"
    p.write_text("deltas = [0.4]\nh = 0.001953125\nL = 420.0\n")
    out = tmp_path / "out"
    assert main(["soliton", "--config", str(p), "--out", str(out)]) == 0
    (run,) = json.loads((out / "soliton_scaling.json").read_text())["runs"]
    assert run["iters"] == 4
    assert 1e-10 < float(run["final_residual"]) < 1e-9


class TestParallelDeltas:
    """soliton solves FREE_CFG at deltas 0.2 and 0.1 in two forked workers.

    main runs in this process, so monkeypatches reach the workers.
    """

    ARGS = ["--delta", "0.2,0.1"]

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Output directories of a run with two usable CPUs and one with one,
        and the processes left running after each."""
        root = tmp_path_factory.mktemp("parallel")
        cfg = root / "free.cfg"
        cfg.write_text(FREE_CFG)
        real = newton.discretize_operator

        # the chain's first stage, looked up in newton where it runs: the
        # submitted _soliton_delta is pickled by name, so it is not replaced
        def recording_pid(pot_V, pot_W, delta, *args):
            (out.parent / f"{out.name}-{delta}.pid").write_text(str(os.getpid()))
            return real(pot_V, pot_W, delta, *args)

        left = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(newton, "discretize_operator", recording_pid)
            for cpus in (2, 1):
                _usable_cpus(mp, cpus)
                out = root / f"cpus{cpus}"
                assert main(["soliton", "--config", str(cfg), "--out", str(out), *self.ARGS]) == 0
                left[cpus] = _children_left()
        return root, left

    @staticmethod
    def grids(root) -> dict[int, float]:
        """delta by grid size round(L / h)."""
        runs = json.loads((root / "cpus1" / "soliton_scaling.json").read_text())["runs"]
        return {round(float(r["L"]) / 0.015625): float(r["delta"]) for r in runs}

    def test_same_bytes_as_one_worker(self, runs):
        root, _ = runs
        names = sorted(p.name for p in (root / "cpus2").iterdir())
        assert names == ["soliton_delta_0p1.csv", "soliton_delta_0p2.csv", "soliton_scaling.json"]
        assert names == sorted(p.name for p in (root / "cpus1").iterdir())
        for name in names:
            assert (root / "cpus2" / name).read_bytes() == (root / "cpus1" / name).read_bytes(), name

    def test_same_bytes_without_an_affinity_mask(self, runs, monkeypatch):
        """Where os has no sched_getaffinity (macOS, Windows) the workers
        are counted from os.cpu_count."""
        root, _ = runs
        monkeypatch.delattr(os, "sched_getaffinity")
        cfg, out = root / "free.cfg", root / "no-affinity"
        assert main(["soliton", "--config", str(cfg), "--out", str(out), *self.ARGS]) == 0
        for path in (root / "cpus1").iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_workers_only_with_two_cpus(self, runs):
        root, _ = runs
        pids = {cpus: {int((root / f"cpus{cpus}-{d}.pid").read_text()) for d in (0.2, 0.1)}
                for cpus in (2, 1)}
        assert pids[1] == {os.getpid()}
        assert os.getpid() not in pids[2]

    def test_no_worker_outlives_main(self, runs):
        _, left = runs
        assert left == {2: False, 1: False}

    @pytest.mark.parametrize(
        "failing,named", [((0.1,), 0.1), ((0.2, 0.1), 0.2)], ids=["second", "both"]
    )
    def test_failure_names_first_failing_delta(
        self, runs, free_cfg_path, tmp_path, capsys, monkeypatch, failing, named
    ):
        grids = self.grids(runs[0])
        real = newton.jacobian_min_eig

        def failing_for(op, u, shift):
            if grids[len(u)] in failing:
                raise RuntimeError(f"jacobian_min_eig: N = {len(u)}, injected")
            return real(op, u, shift)

        monkeypatch.setattr(newton, "jacobian_min_eig", failing_for)
        _usable_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        rc = main(["soliton", "--config", free_cfg_path, "--out", str(out), *self.ARGS])
        assert rc == 3
        n = {d: g for g, d in grids.items()}[named]
        err = capsys.readouterr().err
        assert f"numerical failure: soliton delta={named}, N={n}: jacobian_min_eig" in err
        assert "Traceback" not in err
        assert not (out / "soliton_scaling.json").exists()
        assert not _children_left()

    def test_dead_worker_exits_3(self, free_cfg_path, tmp_path, capsys, monkeypatch):
        parent, real = os.getpid(), newton.jacobian_min_eig

        def dying_in_a_worker(op, u, shift):
            if os.getpid() != parent:
                os._exit(1)
            return real(op, u, shift)

        monkeypatch.setattr(newton, "jacobian_min_eig", dying_in_a_worker)
        _usable_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        rc = main(["soliton", "--config", free_cfg_path, "--out", str(out), *self.ARGS])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure: soliton delta=0.2, N=" in err
        assert "terminated abruptly" in err and "Traceback" not in err
        assert not (out / "soliton_scaling.json").exists()
        assert not _children_left()

    def test_failing_delta_stops_the_later_ones(
        self, runs, free_cfg_path, tmp_path, capsys, monkeypatch
    ):
        """delta = 0.2, first in config order, fails while the worker of
        0.1 sleeps for a minute: the run exits 3 at once, having waited
        for no later delta, and kills that worker."""
        grids, real = self.grids(runs[0]), newton.jacobian_min_eig

        def failing_or_slowed(op, u, shift):
            if grids[len(u)] == 0.2:
                raise RuntimeError("jacobian_min_eig: injected")
            time.sleep(60.0)
            return real(op, u, shift)

        monkeypatch.setattr(newton, "jacobian_min_eig", failing_or_slowed)
        _usable_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        start = time.monotonic()
        rc = main(["soliton", "--config", free_cfg_path, "--out", str(out), *self.ARGS])
        assert rc == 3 and time.monotonic() - start < 30.0
        assert "numerical failure: soliton delta=0.2, N=" in capsys.readouterr().err
        assert not list(out.iterdir())
        assert not _children_left()

    def test_same_bytes_without_fork(self, runs, monkeypatch):
        """Where os has no fork (Windows) the deltas are solved here."""
        root, _ = runs
        monkeypatch.delattr(os, "fork")
        _usable_cpus(monkeypatch, 2)
        cfg, out = root / "free.cfg", root / "no-fork"
        assert main(["soliton", "--config", str(cfg), "--out", str(out), *self.ARGS]) == 0
        for path in (root / "cpus1").iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name


class TestVerifyAllTasks:
    """verify-all on FREE_CFG at deltas 0.2 and 0.1: bands, dirac and nld
    run in this process, while the forked workers solve the deltas with
    two usable CPUs, or before the deltas are solved with one.

    main runs in this process, so monkeypatches reach the workers.
    """

    ARGS = ["--delta", "0.2,0.1"]
    COMMANDS = ("bands", "dirac", "nld")

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Output directories of a run with two usable CPUs and one with one,
        and the processes left running after each."""
        root = tmp_path_factory.mktemp("tasks")
        cfg = root / "free.cfg"
        cfg.write_text(FREE_CFG)

        def recording_pid(name, command):
            def recording(run, out):
                (out.parent / f"{out.name}-{name}.pid").write_text(str(os.getpid()))
                return command(run, out)

            return recording

        left = {}
        with pytest.MonkeyPatch.context() as mp:
            for name in self.COMMANDS:
                mp.setitem(cli.COMMANDS, name, recording_pid(name, cli.COMMANDS[name]))
            for cpus in (2, 1):
                _usable_cpus(mp, cpus)
                out = root / f"cpus{cpus}"
                assert main(["verify-all", "--config", str(cfg), "--out", str(out), *self.ARGS]) == 0
                left[cpus] = _children_left()
        return root, left

    def test_same_bytes_as_one_worker(self, runs):
        root, _ = runs
        names = sorted(p.name for p in (root / "cpus2").iterdir())
        assert names == sorted(
            ["bands.csv", "bands.json", "dirac_point.json", "gap_report.json",
             "nld_profile.csv", "nld_diagnostics.json", "soliton_delta_0p1.csv",
             "soliton_delta_0p2.csv", "soliton_scaling.json", "verify_all.json"]
        )
        assert names == sorted(p.name for p in (root / "cpus1").iterdir())
        for name in names:
            assert (root / "cpus2" / name).read_bytes() == (root / "cpus1" / name).read_bytes(), name

    def test_commands_here_with_one_or_two_cpus(self, runs):
        root, _ = runs
        for name in self.COMMANDS:
            for cpus in (1, 2):
                assert int((root / f"cpus{cpus}-{name}.pid").read_text()) == os.getpid(), name

    def test_no_worker_outlives_main(self, runs):
        _, left = runs
        assert left == {2: False, 1: False}

    @pytest.mark.parametrize(
        "stage,exc,rc,label",
        [
            ("band_sweep", RuntimeError, 3, "numerical failure: bands"),
            ("kernel_check_on_Y", ValueError, 2, "validation error: nld"),
        ],
    )
    def test_stage_failure_here_while_workers_solve(
        self, free_cfg_path, tmp_path, capsys, monkeypatch, stage, exc, rc, label
    ):
        """bands' sweep fails here while the workers hold the deltas; the
        kernel check, a shared stage, before the workers fork."""
        parent, workers = os.getpid(), []

        def failing(*args):
            assert os.getpid() == parent, "called in a worker"
            workers.append(_children_left())
            raise exc(f"{stage}: injected")

        monkeypatch.setattr(cli, stage, failing)
        _usable_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        assert main(["verify-all", "--config", free_cfg_path, "--out", str(out), *self.ARGS]) == rc
        assert capsys.readouterr().err == f"{label}: {stage}: injected\n"
        assert not (out / "soliton_scaling.json").exists()
        assert not (out / "verify_all.json").exists()
        assert not _children_left()
        assert workers == [stage == "band_sweep"]

    def test_failure_here_stops_the_workers(self, free_cfg_path, tmp_path, capsys, monkeypatch):
        """bands fails while both workers solve their deltas, each slowed
        by a minute: the run exits 3 at once, writes no soliton CSV and
        leaves no worker behind."""
        real = newton.discretize_operator

        def slowed(*args):
            time.sleep(60.0)
            return real(*args)

        def failing(*args):
            raise RuntimeError("band_sweep: injected")

        monkeypatch.setattr(newton, "discretize_operator", slowed)
        monkeypatch.setattr(cli, "band_sweep", failing)
        _usable_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        start = time.monotonic()
        rc = main(["verify-all", "--config", free_cfg_path, "--out", str(out), *self.ARGS])
        assert rc == 3 and time.monotonic() - start < 30.0
        assert capsys.readouterr().err == "numerical failure: bands: band_sweep: injected\n"
        assert not list(out.glob("soliton_delta_*.csv"))
        assert not _children_left()

    def test_nld_failure_reported_before_a_delta(self, free_cfg_path, tmp_path, capsys):
        """Both fail, a command here and a delta in a worker; the order is
        that of a serial run: nld, then the deltas.  The same for bands."""

        def failing(*args):
            raise RuntimeError("injected")

        for stage, name in (("kernel_check_on_Y", "nld"), ("band_sweep", "bands")):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, stage, failing)
                mp.setattr(newton, "jacobian_min_eig", failing)
                _usable_cpus(mp, 2)
                out = tmp_path / name
                assert main(["verify-all", "--config", free_cfg_path, "--out", str(out), *self.ARGS]) == 3
            assert capsys.readouterr().err == f"numerical failure: {name}: injected\n"
            assert not _children_left()


class TestWriteCsv:
    def test_matches_per_element_format(self, tmp_path):
        x = np.array([-0.0, 5e-324, 2.2250738585072014e-308 / 3.0, 1e300, -1.0 / 3.0, 0.1])
        n = np.arange(len(x)) - 2
        cli._write_csv(tmp_path / "t.csv", {"x": x, "band_index": n, "y": x[::-1]})
        expect = ["x,band_index,y"] + [
            f"{float(a):.17g},{int(b)},{float(c):.17g}" for a, b, c in zip(x, n, x[::-1])
        ]
        assert (tmp_path / "t.csv").read_text() == "\n".join(expect) + "\n"

    def test_blocks_match_per_element_format(self, tmp_path):
        """A table of two blocks and three rows: the joins between the
        blocks' `%` operations add or drop no byte."""
        n = 2 * cli._CSV_BLOCK_ROWS + 3
        rng = np.random.default_rng(0)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        k = np.arange(n) - n // 2
        cli._write_csv(tmp_path / "t.csv", {"k": k, "x": x})
        expect = "".join(f"{int(a)},{float(b):.17g}\n" for a, b in zip(k, x))
        assert (tmp_path / "t.csv").read_text() == "k,x\n" + expect

    def test_memory_bounded_by_one_block(self, tmp_path, monkeypatch):
        """Python's allocations while writing four blocks stay those of one."""
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 8192)

        def traced_peak(n):
            x = np.linspace(0.0, 1.0, n)
            tracemalloc.start()
            try:
                cli._write_csv(tmp_path / "t.csv", {"x": x, "u": x})
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        block = cli._CSV_BLOCK_ROWS
        assert traced_peak(4 * block) < 1.25 * traced_peak(block)


def _per_element(columns) -> str:
    """The rows as the per-value `%` writes them: %d or %.17g."""
    kinds = ["%d" if np.asarray(c).dtype.kind in "iu" else "%.17g" for c in columns]
    rows = zip(*[np.asarray(c).tolist() for c in columns])
    return "".join(",".join(k % v for k, v in zip(kinds, row)) + "\n" for row in rows)


_POWERS = 10.0 ** np.arange(-45, 46)
# the formatter's edges: neighbours of powers of 10, where X changes; %g's
# switches to the exponent form below 1e-4 and from 1e17; the fast path's
# range [1e-40, 1e40); exact decimal ties, settled by `%`; zeros,
# subnormals, the largest double, inf and nan
CSV_EDGES = np.concatenate([
    _POWERS, np.nextafter(_POWERS, 0.0), np.nextafter(_POWERS, np.inf),
    [1e-4, 1e16, 1e17, 1e-40, 1e40, 9.9999999999999995e-5, 99999999999999999.0],
    np.nextafter([1e-4, 1e17, 1e-40, 1e40], 0.0),
    np.nextafter([1e-4, 1e17, 1e-40, 1e40], np.inf),
    [2.0**-25, 0.5, 2.5, 1e16 + 2.0, 5e-324, 2.2250738585072014e-308 / 3.0,
     2.2250738585072014e-308, 1.7976931348623157e308, 0.0, np.inf, np.nan],
])
CSV_EDGES = np.concatenate([CSV_EDGES, -CSV_EDGES])


class TestCsvText:
    """_csvtext.format_rows writes the bytes of the per-value `%`."""

    def test_edges(self):
        assert _csvtext.format_rows([CSV_EDGES]) == _per_element([CSV_EDGES])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(st.floats(), st.sampled_from(CSV_EDGES.tolist())), min_size=1),
        st.integers(-(2**63), 2**63 - 1),
    )
    def test_any_double_and_integer(self, values, k):
        x = np.array(values)
        n = np.resize(np.array([k, 0, -7, 2**63 - 1, -(2**63)]), len(x))
        columns = [x, n, x[::-1]]
        assert _csvtext.format_rows(columns) == _per_element(columns)

    def test_random_bit_patterns(self):
        """200,000 doubles of uniform bits: every exponent, nan included."""
        x = np.random.default_rng(3).integers(0, 2**64, 200_000, dtype=np.uint64)
        x = x.view(np.float64)
        assert _csvtext.format_rows([x]) == _per_element([x])

    def test_unsettled_and_out_of_range_values_go_to_percent(self):
        """A tie 2^-25 = 2.98023223876953125e-08 (the 18th digit a 5, exact),
        a value beyond 1e40 and one below 1e-40 are written by `%`; values
        between are not."""
        x = np.array([2.0**-25, 3.0e45, 1.5e-41, -0.0, np.nan, 0.1, -123.25, 7e39])
        _, _, fallback = _csvtext._digits_and_exponents(x)
        assert fallback.tolist() == [True] * 5 + [False] * 3
        assert _csvtext.format_rows([x]) == _per_element([x])
        assert _csvtext.format_rows([x]).splitlines()[0] == "2.9802322387695312e-08"

    def test_soliton_csv_is_its_per_element_rendering(self, free_cfg_path, tmp_path):
        assert main(["soliton", "--config", free_cfg_path, "--out", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "soliton_delta_0p1.csv").read_text().splitlines()
        assert header == "x,u" and len(rows) > 10_000
        x, u = np.array([r.split(",") for r in rows], dtype=float).T
        expect = "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(x.tolist(), u.tolist()))
        assert "\n".join(rows) + "\n" == expect


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
        "command,files,cfg",
        [
            ("nld", ("nld_profile.csv", "nld_diagnostics.json"), FREE_CFG),
            ("dirac", ("dirac_point.json", "gap_report.json"), FREE_CFG),
            ("dirac", ("dirac_point.json", "gap_report.json"), None),
            ("soliton", ("soliton_delta_0p1.csv", "soliton_scaling.json"), FREE_CFG),
            (
                "soliton",
                ("soliton_delta_0p4.csv", "soliton_delta_0p2.csv", "soliton_scaling.json"),
                LATTICE_CFG,
            ),
        ],
        ids=["nld", "dirac", "dirac-default-lattice", "soliton", "soliton-lattice"],
    )
    def test_artifacts_independent_of_blas_threads(self, tmp_path, command, files, cfg):
        """Every byte, at one and at two BLAS threads: on FREE_CFG, for
        dirac also on the default lattice, whose pair has every even-index
        mode, and for soliton also on a lattice with V != 0, whose
        corrector couples the modes of each parity block."""
        config = []
        if cfg is not None:
            (tmp_path / "run.cfg").write_text(cfg)
            config = ["--config", str(tmp_path / "run.cfg")]
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
                    *config,
                    "--out",
                    str(out),
                ],
                env=env,
                check=True,
            )
            outs.append(out)
        for fname in files:
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


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
        expect = [len(newton.staggered_grid(float(r["L"]), 0.015625)) for r in runs]
        assert synthesis_points == expect

    def test_one_carrier_sum_per_grid_at_cell_offsets(self, verify_all_run):
        _, _, calls, carrier_points, _ = verify_all_run
        assert len(carrier_points) == calls["evaluate_udelta"]
        # h = 1/64: the staggered grid x = (i + 1/2) h has 64 cell offsets
        assert all(0 < n <= 64 for n in carrier_points)

    def test_field_synthesised_on_the_operator_grid(self, free_cfg_path, tmp_path, monkeypatch):
        """One half-line grid per delta: Newton's operator builds it, and the
        synthesised field holds that very array."""
        made = {"staggered_grid": [], "discretize_operator": [], "assemble_udelta": []}

        def recording(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                made[name].append(fn(*args, **kwargs))
                return made[name][-1]

            monkeypatch.setattr(owner, name, wrapper)

        recording(newton, "staggered_grid")
        recording(newton, "discretize_operator")
        recording(ansatz, "assemble_udelta")
        assert main(["soliton", "--config", free_cfg_path, "--out", str(tmp_path)]) == 0
        (grid,), (op,), (fld,) = made.values()  # FREE_CFG has one delta
        assert op.x_grid is grid
        assert fld.x_grid is grid

    def test_each_stage_runs_once_here_with_workers(self, free_cfg_path, tmp_path, monkeypatch):
        """With the deltas in two forked workers, each shared stage still
        runs once, in this process: the workers receive its result with
        the pipeline and recompute none."""
        stages = [
            (cli, "certify_dirac_point"),
            (cli, "integrate_homoclinic"),
            (ansatz, "build_G1"),
            (ansatz, "solve_U1"),
            (cli, "kernel_check_on_Y"),
            # each delta's first stage: the submitted _soliton_delta is
            # pickled by name, so it is not replaced
            (newton, "discretize_operator"),
        ]

        def recording_pid(name, fn):
            def wrapper(*args, **kwargs):
                with (tmp_path / f"{name}.pid").open("a") as f:
                    f.write(f"{os.getpid()}\n")
                return fn(*args, **kwargs)

            return wrapper

        for owner, name in stages:
            monkeypatch.setattr(owner, name, recording_pid(name, getattr(owner, name)))
        _usable_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        assert main(["verify-all", "--config", free_cfg_path, "--out", str(out),
                     "--delta", "0.2,0.1"]) == 0
        pids = {name: (tmp_path / f"{name}.pid").read_text().split() for _, name in stages}
        deltas = pids.pop("discretize_operator")
        assert len(deltas) == 2 and str(os.getpid()) not in deltas  # solved in workers
        assert pids == {name: [str(os.getpid())] for name in pids}

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

    def test_command_line_section_names_every_flag(self, capsys):
        """The README's "Command line" section and main's parser name the
        same `--` flags, argparse's own --help aside."""
        readme = (ROOT / "README.md").read_text()
        section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
        with pytest.raises(SystemExit):
            main(["--help"])
        flag = re.compile(r"(?<![\w-])--[a-z][a-z-]*")
        parser_flags = set(flag.findall(capsys.readouterr().out)) - {"--help"}
        assert parser_flags
        assert set(flag.findall(section)) == parser_flags


def test_no_integer_power_above_two_in_the_package():
    """Cubes and higher powers are products: numpy's float64 power of a
    negative base is about 40 times slower than of a positive one, and 200
    times slower than x * x * x, and the soliton changes sign every half
    cell.  Squares are exempt: numpy computes x**2 as one multiply."""
    slow = []
    for path in sorted((ROOT / "src" / "diracsoliton").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp):
                exponent = node.right
            elif isinstance(node, ast.AugAssign):
                exponent = node.value
            else:
                continue
            if (
                isinstance(node.op, ast.Pow)
                and isinstance(exponent, ast.Constant)
                and isinstance(exponent.value, (int, float))
                and float(exponent.value).is_integer()
                and exponent.value >= 3
            ):
                slow.append(f"{path.name}:{node.lineno}")
    assert slow == []


class TestTracedBenchmarkChild:
    @staticmethod
    def _traced_verify_all(free_cfg_path, tmp_path, *extra):
        """solbench/child.py --trace verify-all, with the layer wrappers installed."""
        return subprocess.run(
            [
                sys.executable, str(ROOT / "solbench" / "child.py"), "--stamp", "s",
                "--trace", "spans.json",
                "--", "verify-all", "--config", free_cfg_path, "--out", "out", *extra,
            ],
            cwd=tmp_path,
            env=_src_env(),
            capture_output=True,
            text=True,
        )

    @staticmethod
    def _layer_metrics(tmp_path) -> dict:
        """solbench/spans.py's per-layer metrics of the traced run's spans."""
        spec = importlib.util.spec_from_file_location("spans", ROOT / "solbench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        return spans.layer_metrics([json.loads((tmp_path / "spans.json").read_text())])

    def test_verify_all_spans(self, free_cfg_path, tmp_path):
        """solbench/child.py --trace: the layer wrappers fit the pipeline's signatures."""
        proc = self._traced_verify_all(free_cfg_path, tmp_path)
        assert proc.returncode == 0, proc.stderr
        metrics = self._layer_metrics(tmp_path)
        assert metrics["dirac.certify_calls"] == 1
        assert metrics["homoclinic.integrate_calls"] == 1
        assert metrics["newton.iterations"] >= 1
        runs = json.loads((tmp_path / "out" / "soliton_scaling.json").read_text())["runs"]
        (run,) = runs  # FREE_CFG has one delta
        points = len(newton.staggered_grid(float(run["L"]), 0.015625))
        assert metrics["ansatz.synthesis_points"] == points

    def test_two_deltas_in_workers(self, free_cfg_path, tmp_path):
        """Two deltas are solved in forked workers, which inherit the layer
        wrappers: a return type a wrapper cannot read fails the run there.
        bands and dirac run in the traced process meanwhile, so their
        sweeps keep their spans."""
        proc = self._traced_verify_all(free_cfg_path, tmp_path, "--delta", "0.2,0.1")
        assert proc.returncode == 0, proc.stderr
        runs = json.loads((tmp_path / "out" / "soliton_scaling.json").read_text())["runs"]
        assert len(runs) == 2
        metrics = self._layer_metrics(tmp_path)
        assert metrics["bloch.band_sweep_s"] > 0
        assert metrics["dirac.gap_sweep_s"] > 0
