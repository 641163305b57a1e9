"""Layer spans for the traced benchmark run.

The child process installs wrappers around the public functions of each
`diracsoliton` module, at the name each caller looks up (the CLI imports
several of them into its own namespace).  Each call records a span:
name, start, end, parent and optional counts.  With allocation tracing
on, each span also records its traced-allocation peak; tracemalloc
slows allocation-heavy code (the ODE dense output) several-fold, so the
parent takes times from rounds traced without it and allocation peaks
from separate rounds traced with it.  Spans stay in memory and are
written out when the CLI returns.  The parent process turns the spans
of one round into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

ALLOC_LAYERS = ("ansatz", "newton", "homoclinic", "dirac")


class Tracer:
    def __init__(self, alloc: bool):
        self.alloc = alloc
        self.spans: list[dict] = []
        self._open: list[tuple[dict, int]] = []  # (span, traced bytes at start)
        self._peaks: list[int] = []

    def _fold_peak(self) -> int:
        """Fold the allocation peak since the last reset into every open span."""
        if not self.alloc:
            return 0
        current, peak = tracemalloc.get_traced_memory()
        self._peaks = [max(p, peak) for p in self._peaks]
        tracemalloc.reset_peak()
        return current

    def wrap(self, name: str, fn, measure=None):
        """fn inside a span; measure(args, kwargs, result) -> counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current = self._fold_peak()
            span = {
                "id": len(self.spans),
                "parent": self._open[-1][0]["id"] if self._open else None,
                "name": name,
                "fn": fn.__name__,
                "counts": {},
            }
            self.spans.append(span)
            self._open.append((span, current))
            self._peaks.append(current)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._fold_peak()
                _, base = self._open.pop()
                span["alloc_peak_bytes"] = self._peaks.pop() - base
            if measure is not None:
                span["counts"].update(measure(args, kwargs, result))
            return result

        return wrapper

    def count(self, key: str, fn):
        """fn unchanged, but each call adds 1 to counts[key] of the innermost span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open:
                counts = self._open[-1][0]["counts"]
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: Path):
        path.write_text(json.dumps(self.spans))


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _fourier_counts(args, kwargs, _):
    coeffs = np.asarray(_arg(args, kwargs, 0, "coeff_vec"))
    points = np.size(_arg(args, kwargs, 2, "x_grid"))
    return {"calls": 1, "mode_points": points * int(np.count_nonzero(np.abs(coeffs) > 1e-300))}


def install(tracer: Tracer):
    """Wrap the pipeline's public functions where the CLI path calls them."""
    from diracsoliton import ansatz, bloch, cli, dirac, homoclinic, newton

    def patch(owner, attr, name, measure=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), measure))

    def gap_solves(args, kwargs, _):
        k_grid = kwargs.get("k_grid", args[5] if len(args) > 5 else None)
        if k_grid is None:
            k_grid = dirac.default_gap_k_grid()
        return {"eig_solves": len(k_grid) + 1}  # the sweep plus the solve at pi

    patch(cli, "band_sweep", "bloch.band_sweep")
    patch(cli, "certify_dirac_point", "dirac.certify", lambda *_: {"calls": 1})
    patch(cli, "verify_gap_opening", "dirac.gap_sweep", gap_solves)
    patch(cli, "integrate_homoclinic", "homoclinic.integrate", lambda *_: {"calls": 1})
    patch(cli, "kernel_check_on_Y", "homoclinic.kernel_check")
    patch(
        homoclinic.SpinorProfile, "evaluate", "homoclinic.dense_eval",
        lambda a, k, _: {"points": int(np.size(_arg(a, k, 1, "y")))},
    )
    for owner in (bloch, dirac, ansatz):
        patch(owner, "fourier_eval", "bloch.fourier_eval", _fourier_counts)
    for attr in ("build_G1", "solvability_check", "solve_U1"):
        patch(ansatz, attr, "ansatz.corrector")
    patch(
        ansatz, "assemble_udelta", "ansatz.synthesis",
        lambda a, k, result: {"points": int(np.size(result.x_grid))},
    )
    patch(
        ansatz, "evaluate_udelta", "ansatz.synthesis",
        lambda a, k, _: {"points": int(np.size(_arg(a, k, 4, "x_grid")))},
    )
    for owner in (ansatz, newton):
        patch(
            owner, "build_U0", "ansatz.synthesis",
            lambda a, k, _: {"points": int(np.size(_arg(a, k, 3, "x_grid")))},
        )
    patch(ansatz, "residual_norm", "ansatz.residual")
    patch(
        newton, "newton_solve", "newton.solve",
        lambda a, k, result: {"iterations": len(result.newton_history) - 1},
    )
    patch(newton, "jacobian_min_eig", "newton.min_eig")
    patch(newton, "error_vs_ansatz", "newton.error_norms")
    newton.DiscreteOperator.solve_shifted = tracer.count(
        "banded_solves", newton.DiscreteOperator.solve_shifted
    )
    for command, fn in list(cli.COMMANDS.items()):
        wrapped = tracer.wrap(f"cli.{command}", fn)
        cli.COMMANDS[command] = wrapped
        setattr(cli, fn.__name__, wrapped)


# ---- parent side -----------------------------------------------------------

PER_LAYER = {
    "bloch.band_sweep_s": "s",
    "bloch.fourier_eval_s": "s",
    "bloch.fourier_eval_calls": "count",
    "bloch.fourier_eval_mode_points": "count",
    "bloch.self_s": "s",
    "dirac.certify_s": "s",
    "dirac.certify_calls": "count",
    "dirac.gap_sweep_s": "s",
    "dirac.gap_eig_solves": "count",
    "dirac.self_s": "s",
    "dirac.peak_alloc_mb": "MB",
    "homoclinic.integrate_s": "s",
    "homoclinic.integrate_calls": "count",
    "homoclinic.dense_eval_s": "s",
    "homoclinic.dense_eval_points": "count",
    "homoclinic.kernel_check_s": "s",
    "homoclinic.self_s": "s",
    "homoclinic.peak_alloc_mb": "MB",
    "ansatz.corrector_s": "s",
    "ansatz.synthesis_s": "s",
    "ansatz.synthesis_points": "count",
    "ansatz.residual_s": "s",
    "ansatz.self_s": "s",
    "ansatz.peak_alloc_mb": "MB",
    "newton.solve_s": "s",
    "newton.iterations": "count",
    "newton.min_eig_s": "s",
    "newton.min_eig_solves": "count",
    "newton.error_norms_s": "s",
    "newton.self_s": "s",
    "newton.peak_alloc_mb": "MB",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(span_lists: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics summed over the spans of one round's processes.

    Times of named functions are inclusive; a layer's self_s is the time
    in its spans not covered by child spans.  synthesis_s is the self
    time of the synthesis spans.  Points of a synthesis call nested in
    another synthesis call are not counted twice.
    """
    out = {name: 0.0 for name in PER_LAYER if not name.startswith(("trace.", "cli.artifact"))}
    for spans in span_lists:
        covered = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        for s in spans:
            name, counts = s["name"], s["counts"]
            layer, stem = name.split(".", 1)
            dur = s["end"] - s["start"]
            own = dur - covered[s["id"]]
            out[f"{layer}.self_s"] += own
            if layer in ALLOC_LAYERS:
                key = f"{layer}.peak_alloc_mb"
                out[key] = max(out[key], s["alloc_peak_bytes"] / 2**20)
            parent = spans[s["parent"]]["name"] if s["parent"] is not None else None
            if name == "ansatz.synthesis":
                out["ansatz.synthesis_s"] += own
                if parent != name:
                    out["ansatz.synthesis_points"] += counts["points"]
            elif f"{name}_s" in out:
                out[f"{name}_s"] += dur
            if name == "bloch.fourier_eval":
                out["bloch.fourier_eval_calls"] += counts["calls"]
                out["bloch.fourier_eval_mode_points"] += counts["mode_points"]
            elif name in ("dirac.certify", "homoclinic.integrate"):
                out[f"{name}_calls"] += counts["calls"]
            elif name == "dirac.gap_sweep":
                out["dirac.gap_eig_solves"] += counts["eig_solves"]
            elif name == "homoclinic.dense_eval":
                out["homoclinic.dense_eval_points"] += counts["points"]
            elif name == "newton.solve":
                out["newton.iterations"] += counts["iterations"]
            elif name == "newton.min_eig":
                out["newton.min_eig_solves"] += counts.get("banded_solves", 0)
    return out
