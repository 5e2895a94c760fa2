"""Seeded inputs of the four workloads.

Everything here is plain Python and numpy: string specifications are JSON
documents in the format that ``indefstring.spec_from_json`` and the CLI read,
grids are complex arrays.  The same ``(workload, seed)`` pair always gives the
same inputs, so the orchestrator (which computes the references) and the
workload process (which runs the program) build identical copies.
"""
from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("halfline-weyl", "finite-sweep", "inverse-spectral", "cli-files")

# Load tasks of finite-sweep read a different document each round, so every
# round builds a fresh coefficient view.  Its runs stop at this many rounds.
LOAD_ROUNDS = 6

UNIFORM_HALFLINE = {"L": "inf", "omega": {"density": [{"a": 0.0, "b": "inf", "value": 1.0}]}}
UPSILON_HALFLINE = {"L": "inf", "upsilon": {"density": [{"a": 0.0, "b": "inf", "value": 1.0}]}}
EMPTY_HALFLINE = {"L": "inf"}
UNIFORM_STRING = {"L": 1.0, "omega": {"density": [{"a": 0.0, "b": 1.0, "value": 1.0}]}}


def standard_grid() -> np.ndarray:
    """The program's 7 x 7 grid [-5, 5] x [0.1, 5]i, row-major in Re z."""
    re = np.linspace(-5.0, 5.0, 7)
    im = np.linspace(0.1, 5.0, 7)
    return (re[:, None] + 1j * im[None, :]).ravel()


def sweep_grid() -> np.ndarray:
    """1000 points: 40 real parts in [-40, 40] times 25 imaginary parts in [0.1, 10]."""
    re = np.linspace(-40.0, 40.0, 40)
    im = np.geomspace(0.1, 10.0, 25)
    return (re[:, None] + 1j * im[None, :]).ravel()


def high_frequency_points() -> np.ndarray:
    """9 log-spaced radii in [1e2, 1e6] on 4 rays; does not depend on the seed."""
    radii = np.logspace(2.0, 6.0, 9)
    rays = (0.01, math.pi / 4.0, math.pi / 2.0, math.pi - 0.01)
    return np.array([r * complex(math.cos(t), math.sin(t)) for t in rays for r in radii])


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _jittered(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n sorted positions, one per cell of an even split of [lo, hi), kept off the cell edges."""
    cell = (hi - lo) / n
    return lo + cell * (np.arange(n) + rng.uniform(0.1, 0.9, n))


def _atoms(xs, masses) -> list[dict]:
    return [{"x": float(x), "mass": float(m)} for x, m in zip(xs, masses)]


def _total(rng, n: int, total: float) -> np.ndarray:
    """n masses drawn from [0.5, 1.5], scaled to the given total."""
    masses = rng.uniform(0.5, 1.5, n)
    return masses * (total / masses.sum())


def atomic_halfline(rng, n: int, upsilon0: float) -> dict:
    """n positive omega point masses of total 0.6 n on [0, 2), a free tail,
    optionally a upsilon point mass at 0."""
    xs = _jittered(rng, n, 0.0, 2.0)
    doc = {"L": "inf", "omega": {"atoms": _atoms(xs, _total(rng, n, 0.6 * n))}}
    if upsilon0 > 0.0:
        doc["upsilon"] = {"atoms": [{"x": 0.0, "mass": upsilon0}]}
    return doc


def atomic_finite(rng, n: int, length: float = 1.0) -> dict:
    """n signed omega point masses (about a fifth negative) of total variation ~2."""
    xs = _jittered(rng, n, 0.0, length)
    sign = np.where(rng.random(n) < 0.2, -1.0, 1.0)
    masses = sign * rng.uniform(0.5, 1.5, n) * (2.0 / n)
    return {"L": length, "omega": {"atoms": _atoms(xs, masses)}}


def density_finite(rng, n: int, length: float = 1.0) -> dict:
    """About n breakpoints: n/2 omega point masses plus n/4 pieces that carry
    an omega and a upsilon density each."""
    n_atoms, n_pieces = n // 2, n // 4
    cuts = np.sort(_jittered(rng, 2 * n_pieces, 0.0, length))
    pieces = list(zip(cuts[0::2], cuts[1::2]))
    om_d = [{"a": float(a), "b": float(b), "value": float(rng.uniform(-1.0, 3.0))} for a, b in pieces]
    up_d = [{"a": float(a), "b": float(b), "value": float(rng.uniform(0.0, 2.0))} for a, b in pieces]
    xs = _jittered(rng, n_atoms, 0.0, length)
    masses = rng.uniform(0.5, 1.5, n_atoms) * (2.0 / n_atoms)
    return {"L": length, "omega": {"atoms": _atoms(xs, masses), "density": om_d},
            "upsilon": {"density": up_d}}


def discrete_string(rng, n_omega: int, n_upsilon: int) -> dict:
    """Finite purely atomic string on [0, 1) with positive omega masses of
    total 2 n_omega/n and upsilon masses of total n_upsilon/(2n) on distinct
    positions; eigenvalue-friendly."""
    n = n_omega + n_upsilon
    xs = _jittered(rng, n, 0.05, 0.95)
    which = rng.permutation(n) < n_upsilon
    om = _atoms(xs[~which], _total(rng, n_omega, 2.0 * n_omega / n))
    up = _atoms(xs[which], _total(rng, n_upsilon, 0.5 * n_upsilon / n)) if n_upsilon else []
    return {"L": 1.0, "omega": {"atoms": om}, "upsilon": {"atoms": up}}


def mollified(doc: dict, n: int) -> dict:
    """Each omega point mass (x, a) becomes the density a*n on [x, x + 1/n).

    Positions must be more than 1/n apart and at least 1/n before L.
    """
    dens = [{"a": d["x"], "b": d["x"] + 1.0 / n, "value": d["mass"] * n} for d in doc["omega"]["atoms"]]
    return {"L": doc["L"], "omega": {"density": dens}}


def make_inputs(workload: str, seed: int) -> dict:
    """All inputs of one workload: a dict of JSON documents, grids and windows."""
    rng = _rng(workload, seed)
    if workload == "halfline-weyl":
        return {
            "specs": {
                "uniform": UNIFORM_HALFLINE,
                "upsilon": UPSILON_HALFLINE,
                "empty": EMPTY_HALFLINE,
                "atomic": atomic_halfline(rng, 12, 0.0),
                "atomic-ups0": atomic_halfline(rng, 12, float(rng.uniform(0.5, 1.5))),
            },
            "grid": standard_grid(),
            "classify_rows": (1, 4),
            "inversion": {"spec": "upsilon", "window": (1.0, 1.1), "eps": (1e-2, 1e-3)},
        }
    if workload == "finite-sweep":
        specs = {
            "atomic-1e2": atomic_finite(rng, 100),
            "density-1e2": density_finite(rng, 100),
            "atomic-1e3": atomic_finite(rng, 1000),
            "density-1e3": density_finite(rng, 1000),
            "atomic-1e4": atomic_finite(rng, 10000),
        }
        loads = {
            size: [atomic_finite(rng, n) for _ in range(LOAD_ROUNDS)]
            for size, n in (("1e2", 100), ("1e3", 1000), ("1e4", 10000))
        }
        scalar_z = {name: rng.uniform(-20.0, 20.0, 2) + 1j * rng.uniform(0.5, 5.0, 2) for name in specs}
        fs_z = {name: complex(rng.uniform(-20.0, 20.0), rng.uniform(0.5, 5.0)) for name in specs}
        return {
            "specs": specs,
            "loads": loads,
            "grid": sweep_grid(),
            "scalar_z": scalar_z,
            "fs_z": fs_z,
            "fs_x": np.linspace(0.0, 1.0, 9),
            "hf_spec": UNIFORM_STRING,
            "hf_z": high_frequency_points(),
            "max_rounds": LOAD_ROUNDS,
        }
    if workload == "inverse-spectral":
        shapes = (("s8", 8, 0), ("s12", 12, 0), ("s16", 16, 0), ("s8u", 6, 2), ("s10u", 8, 2),
                  ("s32u", 24, 8), ("s64", 64, 0))
        return {
            "specs": {name: discrete_string(rng, n_om, n_up) for name, n_om, n_up in shapes},
            "grid": standard_grid(),
            "eps": (1e-2, 1e-3, 1e-4),
        }
    if workload == "cli-files":
        base = discrete_string(rng, 6, 0)
        return {
            "halfline": atomic_halfline(rng, 10, 0.0),
            "finite": discrete_string(rng, 8, 4),
            "atomic": discrete_string(rng, 10, 2),
            "family_base": base,
            "family_ns": (64, 256, 1024),
            "halfline_grid": standard_grid()[[3, 10, 17, 24, 31, 38, 45]],
            "finite_grid": standard_grid(),
        }
    raise ValueError(f"unknown workload {workload!r}")
