"""Command-line driver for the band, Dirac-point and soliton pipeline.

Config files are flat `key = value` text with Python-literal values.
Every JSON artifact embeds the fully resolved configuration and its
SHA-256 hash so outputs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import pickle
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import ansatz as az
from .bloch import FourierCutoff, ParityClass, PeriodicPotential, band_sweep
from .dirac import certify_dirac_point, frequency_window_check, verify_gap_opening
from .homoclinic import NLDParams, integrate_homoclinic, kernel_check_on_Y


@dataclass
class RunConfig:
    V: list = field(default_factory=lambda: [[2, 20.0]])
    W: list = field(default_factory=lambda: [[1, 1.0]])
    M: int = 64
    pair: int = 1
    mu_sharp: float = 0.0
    a: float = 0.9
    deltas: list = field(default_factory=lambda: [0.1, 0.05, 0.025])
    h: float = 1.0 / 256.0
    L: float | None = None
    y_max: float | None = None
    newton_tol: float = 1e-10
    newton_max_iters: int = 25
    n_bands: int = 12
    n_k: int = 129

    def potential_V(self) -> PeriodicPotential:
        return PeriodicPotential(
            {int(m): float(amp) for m, amp in self.V}, ParityClass.EVEN_INDEX
        )

    def potential_W(self) -> PeriodicPotential:
        return PeriodicPotential(
            {int(m): float(amp) for m, amp in self.W}, ParityClass.ODD_INDEX
        )

    def cutoff(self) -> FourierCutoff:
        return FourierCutoff(self.M)

    def validate(self):
        """Reject a malformed configuration before any numerical work."""

        def integer(x):
            return isinstance(x, int) and not isinstance(x, bool)

        def real(x):
            # an integer beyond float range is not a finite number either
            if integer(x):
                return abs(x) <= sys.float_info.max
            return isinstance(x, float) and math.isfinite(x)

        for key in ("V", "W"):
            pairs = getattr(self, key)
            if not isinstance(pairs, (list, tuple)) or not all(
                isinstance(p, (list, tuple)) and len(p) == 2
                and integer(p[0]) and real(p[1])
                for p in pairs
            ):
                raise ValueError(f"{key} must be a list of [index, amplitude] pairs")
            indices = [m for m, _ in pairs]
            if len(set(indices)) != len(indices):
                raise ValueError(f"{key} repeats a cosine index: {indices}")
        for key in ("M", "pair", "n_bands", "n_k", "newton_max_iters"):
            val = getattr(self, key)
            if not integer(val) or val < 1:
                raise ValueError(f"{key} must be a positive integer, got {val!r}")
        if self.n_bands > 2 * self.M + 1:
            raise ValueError(
                f"n_bands = {self.n_bands} exceeds the 2M + 1 = {2 * self.M + 1} "
                f"bands of the cutoff M = {self.M}"
            )
        if not isinstance(self.deltas, (list, tuple)) or not self.deltas or not all(
            real(d) for d in self.deltas
        ):
            # no delta leaves the gap opening and the soliton scaling unchecked
            raise ValueError(
                f"deltas must be a non-empty list of numbers, got {self.deltas!r}"
            )
        if len(set(map(float, self.deltas))) != len(self.deltas):
            # each delta names its soliton CSV and is one abscissa of the order fit
            raise ValueError(f"deltas repeats a delta: {self.deltas}")
        for key in ("mu_sharp", "a", "h", "newton_tol", "L", "y_max"):
            val = getattr(self, key)
            if not real(val) and not (val is None and key in ("L", "y_max")):
                raise ValueError(f"{key} must be a finite number, got {val!r}")
        for key in ("newton_tol", "L", "y_max"):
            val = getattr(self, key)
            if val is not None and val <= 0.0:
                raise ValueError(f"{key} must be positive, got {val!r}")
        self.potential_V()
        self.potential_W()
        if not 0.0 < self.a < 1.0:
            raise ValueError("a must lie in (0, 1)")
        for d in self.deltas:
            if not 0.0 < float(d) < 1.0:
                raise ValueError(
                    f"delta={d} outside (0, 1); delta = 0 has no soliton branch"
                )
        if not 0.0 < self.h <= 1.0 / 64.0:
            raise ValueError("h must lie in (0, 1/64]")


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    cfg = RunConfig()
    keys = {f.name for f in fields(RunConfig)}
    if path is not None:
        text = Path(path).read_text()
        seen = {}  # key -> the line that set it
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
            if key in seen:  # no silent merge: the later value would win
                raise ValueError(f"{path}:{lineno}: '{key}' already set on line {seen[key]}")
            seen[key] = lineno
            try:
                setattr(cfg, key, ast.literal_eval(val))
            except (ValueError, SyntaxError, TypeError):
                # TypeError: a set or dict literal with an unhashable member
                raise ValueError(
                    f"{path}:{lineno}: bad value for '{key}': {val!r} is not a Python literal"
                ) from None
    for key, val in (overrides or {}).items():
        if key not in keys:
            raise ValueError(f"unknown config key '{key}'")
        setattr(cfg, key, val)
    cfg.validate()
    return cfg


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _config_block(cfg: RunConfig) -> dict:
    resolved = asdict(cfg)
    canon = json.dumps(resolved, sort_keys=True)
    return {
        "config": resolved,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
    }


@contextmanager
def _artifact(path: Path):
    """path opened for writing; an OSError, say a directory in its place,
    re-raised as the invalid-configuration ValueError naming the path."""
    try:
        with path.open("w") as f:
            yield f
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_json(path: Path, payload: dict):
    with _artifact(path) as f:
        f.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# rows formatted at once: the arrays and the text of one block, not of
# the whole table, are held at once
_CSV_BLOCK_ROWS = 65536


def _write_csv(path: Path, columns: dict):
    """Write equal-length columns under a header of their names.

    Integer columns as %d, the others as %.17g, the digits `_fmt`
    writes, each block of rows formatted by `_csvtext.format_rows`.
    """
    from ._csvtext import format_rows  # not loaded with the CLI: set-up stays

    cols = [np.asarray(c) for c in columns.values()]
    with _artifact(path) as f:
        f.write(",".join(columns) + "\n")
        for start in range(0, len(cols[0]), _CSV_BLOCK_ROWS):
            f.write(format_rows([c[start : start + _CSV_BLOCK_ROWS] for c in cols]))


@dataclass
class Pipeline:
    """The stages of one invocation, each computed once, on first use.

    dirac -> params -> profile -> corrector and kernel, and the deltas
    checked against the frequency window; the subcommands write
    artifacts from these, and verify-all shares one set between them.
    """

    cfg: RunConfig

    @cached_property
    def dirac(self):
        cfg = self.cfg
        return certify_dirac_point(
            cfg.potential_V(), cfg.potential_W(), cfg.cutoff(), cfg.pair
        )

    @cached_property
    def deltas(self) -> list[float]:
        """The deltas, once mu_delta is known to lie in every protected gap."""
        cfg, data = self.cfg, self.dirac
        if not frequency_window_check(data, cfg.mu_sharp, cfg.a):
            raise ValueError(
                f"mu_sharp={cfg.mu_sharp} outside the frequency window "
                f"|mu#| < a |theta#| = {cfg.a * abs(data.theta_sharp):.6g}"
            )
        return [float(d) for d in cfg.deltas]

    @cached_property
    def params(self) -> NLDParams:
        d = self.dirac
        return NLDParams(d.c_sharp, d.theta_sharp, self.cfg.mu_sharp, d.beta1, d.beta2)

    @cached_property
    def profile(self):
        return integrate_homoclinic(self.params, y_max=self.cfg.y_max)

    def domain(self, delta: float) -> float:
        """Half-line length L at delta: cfg.L, or floor(18.5 ell / delta),
        ell the decay length: whole cells, whose Dirichlet cut carries no
        edge state.  y_max does not enter.  Either must reach the
        envelope-decay floor 10 ell / delta."""
        ell = 1.0 / self.params.decay_rate
        L, rule = self.cfg.L, "L"
        if L is None:  # np.floor keeps an infinite L for the grid's size rule
            L = float(np.floor(18.5 * ell / delta))
            rule = "the default L = floor(18.5 ell / delta)"
        L_min = 10.0 * ell / delta
        if L < L_min:
            raise ValueError(
                f"{rule} = {L:.4g} below the envelope-decay floor "
                f"10 ell / delta = {L_min:.4g}"
            )
        return L

    def mu_delta(self, delta: float) -> float:
        """The soliton's frequency mu* + delta mu#."""
        return float(self.dirac.mu_star + delta * self.params.mu_sharp)

    @cached_property
    def kernel(self):
        """The NLD linearisation's spectrum on Y: nld's diagnostics, and
        each delta's Jacobian shift delta nu."""
        return kernel_check_on_Y(self.profile)

    @cached_property
    def corrector(self) -> np.ndarray:
        dirac, profile = self.dirac, self.profile
        x_profiles = az.build_G1(dirac, profile)
        y = profile.y_grid[:: max(1, len(profile.y_grid) // 400)]
        az.solvability_check(dirac, profile, x_profiles, y, fail_tol=1e-6)
        return az.solve_U1(dirac, x_profiles)


def cmd_bands(run: Pipeline, out: Path):
    cfg = run.cfg
    pot = cfg.potential_V()
    k_grid = np.linspace(0.0, 2.0 * np.pi, cfg.n_k)
    sweep = band_sweep(pot, k_grid, cfg.cutoff())
    _write_csv(
        out / "bands.csv",
        {
            "k": np.repeat(sweep.k_grid, cfg.n_bands),
            "band_index": np.tile(np.arange(1, cfg.n_bands + 1), len(sweep.k_grid)),
            "mu": sweep.eigenvalues[:, :cfg.n_bands].ravel(),
        },
    )
    summary = {
        "n_k": cfg.n_k,
        "n_bands": cfg.n_bands,
        "band_ranges": [
            [_fmt(np.min(sweep.band(n))), _fmt(np.max(sweep.band(n)))]
            for n in range(cfg.n_bands)
        ],
        **_config_block(cfg),
    }
    _write_json(out / "bands.json", summary)


def cmd_dirac(run: Pipeline, out: Path):
    cfg, data = run.cfg, run.dirac
    payload = {
        "band_pair": list(data.band_pair),
        "mu_star": _fmt(data.mu_star),
        "c_sharp": _fmt(data.c_sharp),
        "theta_sharp": _fmt(data.theta_sharp),
        "beta1": _fmt(data.beta1),
        "beta2": _fmt(data.beta2),
        "cutoff": cfg.M,
        "potential_spec": {"V": cfg.V, "W": cfg.W},
        **_config_block(cfg),
    }
    _write_json(out / "dirac_point.json", payload)
    gaps = []
    for delta in cfg.deltas:
        rep = verify_gap_opening(data, float(delta), cfg.a)
        gaps.append(
            {
                "delta": _fmt(rep.delta),
                "a": _fmt(rep.a),
                "interval": [_fmt(rep.interval[0]), _fmt(rep.interval[1])],
                "gap_open": rep.gap_open,
                "half_gap_at_pi": _fmt(rep.half_gap_at_pi),
                "violations": [
                    [_fmt(k), n, _fmt(mu)] for k, n, mu in rep.violations
                ],
            }
        )
    _write_json(out / "gap_report.json", {"reports": gaps, **_config_block(cfg)})


def cmd_nld(run: Pipeline, out: Path):
    params, profile = run.params, run.profile
    psi = profile.psi_minus
    _write_csv(
        out / "nld_profile.csv",
        {
            "y": profile.y_grid,
            "u": profile.u,
            "v": profile.v,
            "re_psi_minus": psi.real,
            "im_psi_minus": psi.imag,
            "H": profile.hamiltonian_trace,
        },
    )
    kres = run.kernel
    diag = {
        "decay_rate_fit": _fmt(profile.decay_rate_fit),
        "decay_rate_predicted": _fmt(params.decay_rate),
        "h_drift_max": _fmt(profile.h_drift_max),
        "sigma_min_restricted": _fmt(kres.sigma_min_restricted),
        "sigma_min_unrestricted": _fmt(kres.sigma_min_unrestricted),
        "operator_norm": _fmt(kres.operator_norm),
        **_config_block(run.cfg),
    }
    _write_json(out / "nld_diagnostics.json", diag)


def _soliton_delta(run: Pipeline, delta: float, L: float, out: Path):
    """One delta's soliton on [-L, L], its CSV written to `out`.

    Synthesis, Newton, the Jacobian's eigenvalue nearest 0 (sought at
    delta nu and certified nearest 0) and the error norms; returns the
    ansatz residual norm, the H2 error and the delta's entry of
    soliton_scaling.json's runs.
    """
    from . import newton as nt

    cfg, data, mu_delta = run.cfg, run.dirac, run.mu_delta(delta)
    op = nt.discretize_operator(
        data.pot_V, data.pot_W, delta, mu_delta, L, cfg.h, data.theta_sharp
    )
    fld = az.assemble_udelta(data, run.profile, run.corrector, delta, op.x_grid)
    resid_norm = az.residual_norm(op, fld.samples)
    sol = nt.newton_solve(op, fld.samples, cfg.newton_tol, cfg.newton_max_iters)
    nu = run.kernel.nu_restricted
    try:
        min_eig = nt.jacobian_min_eig(op, sol.samples, delta * nu)
    except nt.UncertifiedEigenvalue as exc:
        # a cut mid-cell can carry an edge state nearer 0 than the soliton's
        raise RuntimeError(
            f"{exc}; L = {L:.10g}, L mod 1 = {L % 1.0:.6g}, lambda/delta = "
            f"{exc.lam / delta:.6g} against nu = {nu:.6g} on Y"
        ) from None
    l2_error, h2_error = nt.error_vs_ansatz(op, sol.samples, fld)
    tag = repr(delta).replace(".", "p")
    _write_csv(out / f"soliton_delta_{tag}.csv", {"x": op.x_grid, "u": sol.samples})
    return resid_norm, h2_error, {
        "delta": _fmt(delta),
        "mu_delta": _fmt(mu_delta),
        "L": _fmt(L),
        "iters": len(sol.newton_history),
        "final_residual": _fmt(sol.newton_history[-1]),
        "l2_error": _fmt(l2_error),
        "h2_error": _fmt(h2_error),
        "jacobian_min_eig": _fmt(min_eig),
    }


def _named(call, where: str):
    """call(), a failure re-raised naming where it happened, as the class
    main maps to an exit code: numpy's out-of-memory error takes no
    message, and LinAlgError, a numerical failure, subclasses ValueError."""
    try:
        return call()
    except MemoryError as exc:
        raise MemoryError(f"{where}: {exc}") from exc
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        raise RuntimeError(f"{where}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _work(solve, pipe: int):
    """The body of a forked worker: solve() or its exception, pickled to
    the pipe; the process then ends with os._exit, 0 once all is sent."""
    code = 1
    try:
        try:
            outcome = (True, solve())
        except Exception as exc:
            outcome = (False, exc)
        view = memoryview(pickle.dumps(outcome))
        while view:
            view = view[os.write(pipe, view):]
        code = 0
    finally:
        os._exit(code)


class _Workers:
    """Delta chains solved in worker processes forked from this one, at
    most `size` at a time, queued largest grid first, the next forked as
    a worker exits.  A worker inherits the pipeline, with its shared
    stages and any replaced function, and sends back its chain's result
    or exception, pickled, through a pipe.  Leaving the `with` block kills
    and reaps every worker still running."""

    def __init__(self, tasks, size: int):
        self.queue = sorted(tasks, key=lambda t: -t[1])
        self.size = size
        self.running = {}  # a worker's pipe -> (pid, where, bytes read)
        self.done = {}  # where -> (ok, result or exception)

    def _fork(self):
        while self.queue and len(self.running) < self.size:
            where, _, solve = self.queue.pop(0)
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _work(solve, w)
            os.close(w)
            self.running[r] = (pid, where, [])

    def __enter__(self):
        try:
            self._fork()
        except BaseException:  # a failed fork: no worker outlives the run
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        import signal

        for r, (pid, *_) in self.running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)
        self.running.clear()

    def outcome(self, where: str):
        """The result of the chain named `where`, once its worker has sent
        it.  Its exception is raised; so is a worker's death, at the chain
        awaited, and the chains are awaited in config order."""
        import select

        while where not in self.done:
            for r in select.select(list(self.running), [], [])[0]:
                pid, name, chunks = self.running[r]
                chunk = os.read(r, 1 << 16)
                if chunk:
                    chunks.append(chunk)
                    continue
                del self.running[r]
                os.close(r)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code != 0:
                    how = f"signal {-code}" if code < 0 else f"exit code {code}"
                    raise RuntimeError(f"a worker process terminated abruptly ({how})")
                self.done[name] = pickle.loads(b"".join(chunks))
                self._fork()
        ok, value = self.done.pop(where)
        if not ok:
            raise value
        return value


def _solve(run: Pipeline, out: Path, commands: tuple[str, ...]):
    """The shared stages (the kernel check's failure named `nld`) and
    each delta's L and grid size (a failure named `soliton delta=<d>`),
    then the commands named, run here, and each delta's soliton chain;
    soliton_scaling.json from the deltas'.

    With more than one delta and usable CPU, the deltas are solved in
    `_Workers`, while this process runs the commands.  Otherwise they
    are solved here, after the commands, in order.  Either way the
    failure raised is the first in the order commands, then deltas in
    config order, each named as it ran: the command, or
    `soliton delta=<d>, N=<grid points>`.  It is raised as soon as it is
    known, and the workers still running are killed.
    """
    cfg, deltas = run.cfg, run.deltas  # the window check before the first artifact
    run.corrector  # every shared stage, computed once and inherited by each worker
    _named(lambda: run.kernel, "nld")
    from . import _csvtext, newton  # noqa: F401  imported once, before the workers fork

    # (where a failure is named, grid points, soliton chain), in config order
    tasks = []
    for d in deltas:  # each delta's L and grid size, checked before any artifact
        where = f"soliton delta={d}"
        L = _named(partial(run.domain, d), where)
        n = _named(partial(newton.grid_points, L, cfg.h), where)
        tasks.append((f"{where}, N={n}", n, partial(_soliton_delta, run, d, L, out)))
    affinity = getattr(os, "sched_getaffinity", None)  # none on macOS and Windows
    workers = min(len(deltas), len(affinity(0)) if affinity else os.cpu_count() or 1)
    # forked, not spawned: the workers inherit this process's modules,
    # replaced functions included; no fork on Windows
    pool = _Workers(tasks, workers) if workers > 1 and hasattr(os, "fork") else None
    with pool or nullcontext():
        for name in commands:
            _named(partial(COMMANDS[name], run, out), name)
        results = [
            _named(partial(pool.outcome, where) if pool else solve, where)
            for where, _, solve in tasks
        ]
    resid_norms, h2_errors, per_delta = zip(*results)
    report = {
        "deltas": [_fmt(d) for d in deltas],
        "residual_norms": [_fmt(r) for r in resid_norms],
        "fitted_residual_order": (
            _fmt(az.fit_order(deltas, resid_norms)) if len(deltas) >= 2 else None
        ),
        "h2_errors": [_fmt(e) for e in h2_errors],
        "fitted_error_order": (
            _fmt(az.fit_order(deltas, h2_errors)) if len(deltas) >= 2 else None
        ),
        "runs": per_delta,
        **_config_block(cfg),
    }
    _write_json(out / "soliton_scaling.json", report)


def cmd_soliton(run: Pipeline, out: Path):
    _solve(run, out, ())


def cmd_verify_all(run: Pipeline, out: Path):
    _solve(run, out, ("bands", "dirac", "nld"))
    summary = {
        "bands": "bands.json",
        "dirac": "dirac_point.json",
        "nld": "nld_diagnostics.json",
        "soliton": "soliton_scaling.json",
    }
    _write_json(out / "verify_all.json", {"artifacts": summary, **_config_block(run.cfg)})


COMMANDS = {
    "bands": cmd_bands,
    "dirac": cmd_dirac,
    "nld": cmd_nld,
    "soliton": cmd_soliton,
    "verify-all": cmd_verify_all,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diracsoliton",
        description="Band structures, Dirac points and Dirac solitons of "
        "1D periodic lattices",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--delta", default=None, help="comma-separated delta list override"
    )
    args = parser.parse_args(argv)
    try:
        overrides = {}
        if args.delta is not None:
            overrides["deltas"] = [float(s) for s in args.delta.split(",") if s]
        cfg = load_config(args.config, overrides)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"configuration error: cannot make --out {args.out!r}: {exc}", file=sys.stderr)
        return 2
    # the numerical failures first: LinAlgError subclasses ValueError
    try:
        COMMANDS[args.command](Pipeline(cfg), out)
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
