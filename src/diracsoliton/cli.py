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
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from itertools import chain
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
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
            try:
                setattr(cfg, key, ast.literal_eval(val.strip()))
            except (ValueError, SyntaxError, TypeError) as exc:
                # TypeError: a set or dict literal with an unhashable member
                raise ValueError(f"{path}:{lineno}: bad value for '{key}': {exc}")
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


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, columns: dict):
    """Write equal-length columns under a header of their names.

    The whole table is one `%` operation: integer columns as %d, the
    others as %.17g, the digits `_fmt` writes.
    """
    cols = [np.asarray(c) for c in columns.values()]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in cols)
    body = (row + "\n") * len(cols[0]) % tuple(
        chain.from_iterable(zip(*(c.tolist() for c in cols)))
    )
    with path.open("w") as f:
        f.write(",".join(columns) + "\n")
        f.write(body)


@dataclass
class Pipeline:
    """The stages of one invocation, each computed once, on first use.

    dirac -> params -> profile -> corrector, and the deltas checked
    against the frequency window; the subcommands write artifacts from
    these, and verify-all shares one set between them.
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

    @cached_property
    def corrector(self):
        forcing = az.build_G1(self.dirac, self.profile)
        y = self.profile.y_grid
        az.solvability_check(forcing, y[:: max(1, len(y) // 400)], fail_tol=1e-6)
        return az.solve_U1(forcing, self.dirac)


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
            "mu": np.concatenate([sol.eigenvalues[:cfg.n_bands] for sol in sweep.solutions]),
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
    kres = kernel_check_on_Y(params, profile)
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


def cmd_soliton(run: Pipeline, out: Path):
    from . import newton as nt  # here: bands and dirac start without scipy

    cfg, data, deltas = run.cfg, run.dirac, run.deltas
    params, profile = run.params, run.profile
    V, W = data.pot_V, data.pot_W
    corrector = run.corrector
    parity = nt.parity_from_theta(data.theta_sharp)
    ncfg = nt.NewtonConfig(max_iters=cfg.newton_max_iters, tol=cfg.newton_tol)
    ell = 1.0 / params.decay_rate
    resid_norms, h2_errors, per_delta = [], [], []
    for delta in deltas:
        L = cfg.L if cfg.L is not None else min(
            18.5 * ell, 0.995 * profile.y_max
        ) / delta
        fld = az.assemble_udelta(data, profile, corrector, delta, L, cfg.h)
        mu_delta = fld.mu_delta
        op = nt.discretize_operator(V, W, delta, mu_delta, fld.x_grid, parity)
        resid_norms.append(az.residual_norm(fld, op))
        sol = nt.newton_solve(op, delta, mu_delta, fld.samples, ncfg)
        min_eig = nt.jacobian_min_eig(op, sol.samples)
        l2_error, h2_error = nt.error_vs_ansatz(sol, fld)
        tag = repr(delta).replace(".", "p")
        _write_csv(out / f"soliton_delta_{tag}.csv", {"x": sol.x_grid, "u": sol.samples})
        h2_errors.append(h2_error)
        per_delta.append(
            {
                "delta": _fmt(delta),
                "mu_delta": _fmt(mu_delta),
                "L": _fmt(L),
                "iters": len(sol.newton_history),
                "final_residual": _fmt(sol.newton_history[-1]),
                "l2_error": _fmt(l2_error),
                "h2_error": _fmt(h2_error),
                "jacobian_min_eig": _fmt(min_eig),
            }
        )
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


def cmd_verify_all(run: Pipeline, out: Path):
    run.deltas  # reject a detuning outside the window before the first artifact
    for cmd in (cmd_bands, cmd_dirac, cmd_nld, cmd_soliton):
        cmd(run, out)
    summary = {
        "bands": "bands.json",
        "dirac": "dirac_point.json",
        "nld": "nld_diagnostics.json",
        "soliton": "soliton_scaling.json",
    }
    _write_json(out / "verify_all.json", {"artifacts": summary, **_config_block(run.cfg)})


def _seed_regressions(out: Path):
    golden = out / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    for f in sorted(out.iterdir()):
        if f.is_file() and f.suffix in (".json", ".csv"):
            (golden / f.name).write_bytes(f.read_bytes())


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
    parser.add_argument(
        "--seed-regressions",
        action="store_true",
        help="copy produced artifacts into <out>/golden",
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
    try:
        COMMANDS[args.command](Pipeline(cfg), out)
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return 3
    if args.seed_regressions:
        _seed_regressions(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
