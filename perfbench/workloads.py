"""Tasks, warm-up passes, references and checks of the four workloads.

A task is a fixed bundle of public calls (or one CLI process).  ``run(r)``
does the work of round ``r`` and returns its raw output; ``check(output)``
turns that output into one :class:`Outcome` per operation.  Only ``run`` is
timed.  References are computed by the orchestrator from ``refs`` before the
workload process starts, so the program and its checks never share code.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import inputs as inp
import refs

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "cli_launch.py"

# Tolerances: relative unless stated.  They bound what counts as a pass; the
# reported accuracy is the error actually measured.
TOL_M = 1e-8            # Weyl function values
TOL_WRONSKIAN = 1e-8    # |W - 1|
TOL_SIGMA = 1e-12       # travel coordinate at L
TOL_EIG = 1e-10         # exact eigenvalues
TOL_MASS = 1e-8         # exact masses, absolute, as a share of the total mass
TOL_INV_EIG = 1e-7      # eigenvalues found by Stieltjes inversion
TOL_INV_MASS = 1e-7     # their masses, absolute, as a share of the total mass
TOL_ROUNDTRIP = 1e-10   # string -> Hamiltonian -> string, absolute
TOL_IRC = 1e-6          # integral-representation constants, absolute (scaled by max(1, c1))


@dataclass(frozen=True)
class Outcome:
    """One checked operation: did it pass, and its error against the reference."""

    passed: bool
    err: float = 0.0
    note: str = ""


@dataclass
class Task:
    name: str
    run: Callable[[int], Any]
    check: Callable[[Any], list]
    ops: int
    # Operations of a task marked ``known_fault`` count as failed when they
    # fail, without making the run incorrect (see README, finite-sweep).
    known_fault: bool = False


def _ok(err: float, tol: float, note: str = "") -> Outcome:
    return Outcome(bool(err <= tol), float(err), note)


def _doc_length(doc) -> float:
    return math.inf if doc["L"] == "inf" else float(doc["L"])


def _window(doc) -> tuple[float, float]:
    """A window holding the three lowest positive eigenvalues, its edges midway to their neighbours."""
    lams, _ = refs.pencil(doc)
    pos = lams[lams > 0]
    return float(pos[0] / 2.0), float((pos[2] + pos[3]) / 2.0)


def _atom_defect(got, want, length_got, length_want) -> float:
    """Worst position/mass defect of two strings' atoms, inf when the counts differ."""
    err = 0.0 if length_got == length_want else abs(length_got - length_want)
    for key in ("omega", "upsilon"):
        a = sorted(got.get(key, ()))
        b = sorted((float(d["x"]), float(d["mass"])) for d in (want.get(key) or {}).get("atoms", ()))
        if len(a) != len(b):
            return math.inf
        for (xa, ma), (xb, mb) in zip(a, b):
            err = max(err, abs(xa - xb), abs(ma - mb))
    return err


def _spec_atoms(spec) -> dict:
    return {"omega": list(spec.omega.atoms), "upsilon": list(spec.upsilon.atoms)}


def _fsys_outcome(fs, want) -> Outcome:
    """theta and phi against the reference at every sample point, and the Wronskian."""
    err = abs(fs.wronskian - 1.0)
    for th, ph in zip(fs.theta, fs.phi):
        want_th, want_ph = want[th.x]
        scale = max(1.0, abs(want_th), abs(want_ph))
        err = max(err, abs(th.f - want_th) / scale, abs(ph.f - want_ph) / scale)
    return _ok(err, TOL_WRONSKIAN)


def _measure_outcome(atoms, lams, masses, total, tol_eig, tol_mass) -> Outcome:
    """Compare (eigenvalue, mass) pairs; masses in absolute terms as a share of ``total``."""
    got = np.array([a for a, _ in atoms])
    got_m = np.array([m for _, m in atoms])
    if len(got) != len(lams):
        return Outcome(False, math.inf, f"{len(got)} atoms, expected {len(lams)}")
    e_lam = refs.rel_err(got, lams)
    e_mass = float(np.max(np.abs(got_m - masses))) / total if len(got) else 0.0
    return Outcome(e_lam <= tol_eig and e_mass <= tol_mass, max(e_lam, e_mass),
                   f"eig {e_lam:.2e} mass {e_mass:.2e}")


# -- halfline-weyl -------------------------------------------------------------


def halfline_references(data) -> dict:
    grid = data["grid"]
    m = {}
    for name, doc in data["specs"].items():
        if name == "uniform":
            m[name] = refs.uniform_halfline_m(grid)
        elif name == "upsilon":
            m[name] = refs.upsilon_halfline_m(grid)
        else:
            m[name] = refs.weyl_m(doc, grid)
    return {"m": m}


def halfline_tasks(ind, data, ref, workdir) -> tuple[list[Task], Callable[[], None]]:
    specs = {name: ind.validate_spec(doc) for name, doc in data["specs"].items()}
    grid = data["grid"]

    def row_task(name, r):
        zs = grid[7 * r: 7 * r + 7]
        want = ref["m"][name][7 * r: 7 * r + 7]
        spec = specs[name]

        def run(_):
            return np.array([ind.weyl_m(spec, complex(z)).m for z in zs])

        def check(ms):
            floor = 1.0 if name == "empty" else 0.0
            out = []
            for m, w in zip(ms, want):
                err = refs.rel_err(m, w, floor)
                out.append(Outcome(err <= TOL_M and m.imag >= -TOL_M, err))
            return out

        return Task(f"row:{name}:{r}", run, check, 7)

    rows = [grid.reshape(7, 7)[r] for r in data["classify_rows"]]
    samples = np.concatenate(rows)

    def classify_task(name):
        spec = specs[name]

        def run(_):
            return ind.classify(spec, samples=samples)

        def check(c):
            agree = c.stieltjes == c.stieltjes_structural
            return [Outcome(bool(c.herglotz and agree), 0.0,
                            f"herglotz {c.herglotz} stieltjes {c.stieltjes}/{c.stieltjes_structural}")]

        return Task(f"classify:{name}", run, check, 1)

    def irc_task(name):
        spec = specs[name]
        ups = data["specs"][name].get("upsilon", {}).get("atoms", ())
        c1 = sum(d["mass"] for d in ups if d["x"] == 0.0)

        def run(_):
            return ind.integral_rep_constants(spec)

        def check(rep):
            err = max(abs(rep.c1 - c1) / max(1.0, c1), abs(rep.inv_L))
            return [_ok(err, TOL_IRC, f"c1 {rep.c1!r} inv_L {rep.inv_L!r}")]

        return Task(f"irc:{name}", run, check, 1)

    inv = data["inversion"]

    def inversion_run(_):
        return ind.stieltjes_inversion(specs[inv["spec"]], inv["window"], eps=inv["eps"])

    def inversion_check(mu):
        lam = np.array([l for l, _ in mu.continuous_samples])
        dens = np.array([d for _, d in mu.continuous_samples])
        want = refs.upsilon_halfline_m(lam + 1j * mu.epsilon_used).imag / math.pi
        err = refs.rel_err(dens, want)
        return [Outcome(not mu.atoms and err <= TOL_M, err, f"{len(mu.atoms)} atoms")]

    tasks = [row_task(name, r) for name in ("uniform", "upsilon", "atomic", "atomic-ups0") for r in range(7)]
    tasks.append(row_task("empty", 3))
    tasks += [classify_task(name) for name in specs]
    # The uniform and upsilon half-lines are left out of integral_rep_constants:
    # its Richardson model does not fit their sqrt/1/eta behaviour (CHANGES.md).
    tasks += [irc_task(name) for name in ("empty", "atomic", "atomic-ups0")]
    tasks.append(Task("invert:upsilon", inversion_run, inversion_check, 1))

    def warmup():
        for spec in specs.values():
            ind.weyl_m(spec, 1j)

    return tasks, warmup


# -- finite-sweep ----------------------------------------------------------------


def finite_references(data) -> dict:
    out = {"m": {}, "scalar": {}, "fs": {}, "sigma": {}}
    grid = data["grid"]
    for name, doc in data["specs"].items():
        zs = np.concatenate([grid, data["scalar_z"][name], [data["fs_z"][name]]])
        (a, b, _, _), samples = refs.transfer(doc, zs, data["fs_x"])
        m = np.asarray(-a / (zs * b), dtype=complex)
        out["m"][name] = m[: len(grid)]
        out["scalar"][name] = m[len(grid): -1]
        out["fs"][name] = {x: (complex(th[-1]), complex(ph[-1])) for x, (th, ph) in samples.items()}
    for size, docs in data["loads"].items():
        out["sigma"][size] = [refs.sigma_length(doc) for doc in docs]
    out["hf"] = refs.uniform_string_m(data["hf_z"])
    return out


def finite_tasks(ind, data, ref, workdir) -> tuple[list[Task], Callable[[], None]]:
    specs = {name: ind.validate_spec(doc) for name, doc in data["specs"].items()}
    grid = data["grid"]
    files = {}
    for size, docs in data["loads"].items():
        files[size] = []
        for k, doc in enumerate(docs):
            path = workdir / f"load-{size}-{k}.json"
            path.write_text(json.dumps(doc))
            files[size].append(path)

    def load_task(size):
        def run(r):
            spec = ind.spec_from_json(json.loads(files[size][r].read_text()))
            return ind.travel_coords(spec).sigma_L

        def check(res):
            # Round r reads document r; the round index travels with the output.
            r, sigma_l = res
            return [_ok(refs.rel_err(sigma_l, ref["sigma"][size][r]), TOL_SIGMA)]

        return Task(f"load:{size}", lambda r: (r, run(r)), check, 1)

    def grid_task(name):
        spec = specs[name]

        def run(_):
            return ind.m_truncated(spec, grid, spec.length)

        return Task(f"grid:{name}", run, lambda m: [_ok(refs.rel_err(m, ref["m"][name]), TOL_M)], 1)

    def point_task(name, k):
        spec = specs[name]
        z = complex(data["scalar_z"][name][k])

        def run(_):
            return ind.weyl_m(spec, z).m

        return Task(f"point:{name}:{k}", run,
                    lambda m: [_ok(refs.rel_err(m, ref["scalar"][name][k]), TOL_M)], 1)

    def fsys_task(name):
        spec = specs[name]

        def run(_):
            return ind.fundamental_system(spec, data["fs_z"][name], data["fs_x"])

        return Task(f"fsys:{name}", run, lambda fs: [_fsys_outcome(fs, ref["fs"][name])], 1)

    hf_spec = ind.validate_spec(data["hf_spec"])
    hf_z = data["hf_z"]

    def hf_run(_):
        out = []
        for z in hf_z:
            try:
                out.append(ind.weyl_m(hf_spec, complex(z)).m)
            except ind.ComputationError as exc:
                out.append(exc)
        return out

    def hf_check(ms):
        out = []
        for m, w in zip(ms, ref["hf"]):
            if isinstance(m, Exception):
                out.append(Outcome(False, math.inf, f"raised {type(m).__name__}"))
            else:
                out.append(_ok(refs.rel_err(m, w), TOL_M, f"m={m!r}"))
        return out

    # The six one-z tasks on the 10^3 strings (one sweep over about 10^3
    # breakpoints each) hold the middle ranks, so the median falls on one kind
    # of task in every run; the two weyl_m tasks on the 10^4 string hold the
    # 88th percentile.  The 10^2 density string has no fundamental_system task,
    # which keeps the task count odd.
    tasks = [load_task(size) for size in files]
    tasks += [grid_task(name) for name in specs]
    tasks += [point_task(name, k) for name in specs for k in range(len(data["scalar_z"][name]))]
    tasks += [fsys_task(name) for name in specs if name != "density-1e2"]
    tasks.append(Task("high-frequency", hf_run, hf_check, len(hf_z), known_fault=True))

    def warmup():
        # Builds every base string's coefficient view, so each timed round does the same work.
        for spec in specs.values():
            ind.travel_coords(spec)
        ind.weyl_m(hf_spec, 1j)

    return tasks, warmup


# -- inverse-spectral ------------------------------------------------------------

# Strings small enough for the exact measure on every seed (see README).
EXACT_MEASURE = ("s8", "s12", "s16", "s8u", "s10u")
INVERTED = EXACT_MEASURE + ("s32u",)


def inverse_references(data) -> dict:
    grid = data["grid"]
    zs = np.concatenate([grid, grid.conj()])
    out = {"pencil": {}, "window": {}, "m": {}}
    for name, doc in data["specs"].items():
        out["pencil"][name] = refs.pencil(doc)
        out["m"][name] = refs.weyl_m(doc, zs)
        if name in INVERTED:
            out["window"][name] = _window(doc)
    return out


def inverse_tasks(ind, data, ref, workdir) -> tuple[list[Task], Callable[[], None]]:
    specs = {name: ind.validate_spec(doc) for name, doc in data["specs"].items()}
    grid = data["grid"]
    zs = np.concatenate([grid, grid.conj()])
    eps = data["eps"]

    def bundle(name):
        spec = specs[name]
        doc = data["specs"][name]
        window = ref["window"].get(name)

        def run(_):
            out = {}
            if name in EXACT_MEASURE:
                out["measure"] = ind.spectral_measure_discrete(spec)
            if window is not None:
                out["inversion"] = ind.stieltjes_inversion(spec, window, eps=eps)
            ham = ind.string_to_hamiltonian(spec)
            out["back"] = ind.hamiltonian_to_string(ham)
            out["canonical"] = ind.canonical_m_grid(ham, zs)
            return out

        def check(out):
            lams, masses = ref["pencil"][name]
            res = []
            total = float(np.sum(masses))
            if "measure" in out:
                res.append(_measure_outcome(out["measure"].atoms, lams, masses, total, TOL_EIG, TOL_MASS))
            if "inversion" in out:
                inside = (lams >= window[0]) & (lams <= window[1])
                res.append(_measure_outcome(out["inversion"].atoms, lams[inside], masses[inside], total,
                                            TOL_INV_EIG, TOL_INV_MASS))
            back = out["back"]
            res.append(_ok(_atom_defect(_spec_atoms(back), doc, back.length, _doc_length(doc)),
                           TOL_ROUNDTRIP))
            res.append(_ok(refs.rel_err(out["canonical"], ref["m"][name]), TOL_M))
            return res

        ops = 2 + (name in EXACT_MEASURE) + (window is not None)
        return Task(f"bundle:{name}", run, check, ops)

    tasks = [bundle(name) for name in specs]

    def warmup():
        # Builds every string's coefficient view, so each timed round does the same work.
        for spec in specs.values():
            ind.travel_coords(spec)
        bundle("s8").run(0)

    return tasks, warmup


# -- cli-files -------------------------------------------------------------------


def cli_references(data) -> dict:
    return {
        "halfline": refs.weyl_m(data["halfline"], data["halfline_grid"]),
        "finite": refs.weyl_m(data["finite"], data["finite_grid"]),
        "pencil": refs.pencil(data["atomic"]),
        "window": _window(data["atomic"]),
    }


def _write_grid(path: Path, zs) -> None:
    lines = ["re_z,im_z"] + [f"{float(z.real)!r},{float(z.imag)!r}" for z in zs]
    path.write_text("\n".join(lines) + "\n")


def _read_m_csv(text: str) -> np.ndarray:
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    return np.array([complex(float(r[2]), float(r[3])) for r in rows])


class CliRunner:
    """Starts one ``indefstring`` process per task through the launcher.

    With a span directory set, the launcher installs the tracing wrappers and
    writes each process's spans there.
    """

    def __init__(self, workdir: Path, span_dir: Path | None = None):
        self.workdir = workdir
        self.span_dir = span_dir
        self.count = 0

    def __call__(self, args: list[str]):
        self.count += 1
        env = dict(os.environ)
        if self.span_dir is not None:
            env["PERFBENCH_SPANS"] = str(self.span_dir / f"proc-{self.count:06d}.tsv")
        env["PERFBENCH_T0"] = repr(time.time())
        proc = subprocess.run([sys.executable, str(LAUNCHER), *args], cwd=self.workdir, env=env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr


def cli_tasks(ind, data, ref, workdir, runner: CliRunner) -> tuple[list[Task], Callable[[], None]]:
    for name in ("halfline", "finite", "atomic"):
        ind.validate_spec(data[name])
        (workdir / f"{name}.json").write_text(json.dumps(data[name]))
    (workdir / "upsilon.json").write_text(json.dumps(inp.UPSILON_HALFLINE))
    _write_grid(workdir / "grid-halfline.csv", data["halfline_grid"])
    _write_grid(workdir / "grid-finite.csv", data["finite_grid"])
    family = workdir / "family"
    family.mkdir(exist_ok=True)
    for k, n in enumerate(data["family_ns"]):
        doc = inp.mollified(data["family_base"], n)
        ind.validate_spec(doc)
        (family / f"member-{k}.json").write_text(json.dumps(doc))
    (workdir / "limit.json").write_text(json.dumps(data["family_base"]))
    out = workdir / "out"
    out.mkdir(exist_ok=True)
    lo, hi = ref["window"]

    def forward(spec, grid, want, jobs, ham):
        def argv(r):
            a = ["forward", "--spec", f"{spec}.json", "--grid", f"grid-{spec}.csv",
                 "--out", f"out/fwd-{spec}-j{jobs}-{r}.csv", "--jobs", str(jobs)]
            return a + (["--hamiltonian", f"out/ham-{r}.json"] if ham else [])

        def run(r):
            code, _, err = runner(argv(r))
            path = out / f"fwd-{spec}-j{jobs}-{r}.csv"
            return r, code, err, path

        def check(res):
            r, code, err, path = res
            if code != 0:
                return [Outcome(False, math.inf, err.strip()[-200:])]
            text = path.read_text()
            m = _read_m_csv(text)
            e = refs.rel_err(m, want)
            passed = e <= TOL_M and bool(np.all(m.imag >= 0.0))
            if jobs != 1:
                same = text == (out / f"fwd-{spec}-j1-{r}.csv").read_text()
                return [Outcome(passed and same, e, "byte-identical to --jobs 1" if same else "differs from --jobs 1")]
            return [Outcome(passed, e)]

        return Task(f"forward:{spec}:j{jobs}", run, check, 1)

    def simple(name, argv, check_fn):
        def run(r):
            code, stdout, err = runner(argv(r))
            return r, code, stdout, err

        def check(res):
            r, code, stdout, err = res
            if code != 0:
                return [Outcome(False, math.inf, f"exit {code}: {err.strip()[-200:]}")]
            return [check_fn(r, stdout)]

        return Task(name, run, check, 1)

    def check_classify(r, stdout):
        doc = json.loads((out / f"classify-{r}.json").read_text())
        agree = doc["stieltjes"] == doc["stieltjes_structural"]
        return Outcome(bool(doc["herglotz"] and agree), 0.0)

    def check_spectrum(r, stdout):
        doc = json.loads((out / f"spectrum-{r}.json").read_text())
        lams, masses = ref["pencil"]
        inside = (lams >= lo) & (lams <= hi)
        atoms = [(d["lambda"], d["mass"]) for d in doc["atoms"]]
        return _measure_outcome(atoms, lams[inside], masses[inside], float(np.sum(masses)),
                                TOL_INV_EIG, TOL_INV_MASS)

    def check_roundtrip(r, stdout):
        doc = json.loads((out / f"roundtrip-{r}.json").read_text())
        return _ok(doc["overall"], TOL_ROUNDTRIP)

    def check_inverse(r, stdout):
        doc = json.loads((out / f"inverse-{r}.json").read_text())
        atoms = {k: [(d["x"], d["mass"]) for d in doc[k]["atoms"]] for k in ("omega", "upsilon")}
        length = math.inf if doc["L"] == "inf" else float(doc["L"])
        want = data["finite"]
        return _ok(_atom_defect(atoms, want, length, _doc_length(want)), TOL_ROUNDTRIP)

    def check_converge(r, stdout):
        doc = json.loads((out / f"converge-{r}.json").read_text())
        return Outcome(doc["verdict"] == "converges", 0.0, doc["verdict"])

    tasks = [
        forward("halfline", data["halfline_grid"], ref["halfline"], 1, False),
        forward("halfline", data["halfline_grid"], ref["halfline"], 2, False),
        forward("finite", data["finite_grid"], ref["finite"], 1, True),
        forward("finite", data["finite_grid"], ref["finite"], 2, False),
        simple("classify", lambda r: ["classify", "--spec", "upsilon.json", "--out", f"out/classify-{r}.json"],
               check_classify),
        simple("spectrum", lambda r: ["spectrum", "--spec", "atomic.json", "--window", repr(lo), repr(hi),
                                      "--out", f"out/spectrum-{r}.json"], check_spectrum),
        simple("roundtrip", lambda r: ["roundtrip", "--spec", "atomic.json", "--out", f"out/roundtrip-{r}.json"],
               check_roundtrip),
        simple("inverse", lambda r: ["inverse", "--hamiltonian", "out/ham-warm.json",
                                     "--out", f"out/inverse-{r}.json"], check_inverse),
        simple("converge", lambda r: ["converge", "--family", "family", "--limit", "limit.json",
                                      "--out", f"out/converge-{r}.json"], check_converge),
    ]

    def warmup():
        # Writes the Hamiltonian that the inverse tasks read.
        code, _, err = runner(["forward", "--spec", "finite.json", "--grid", "grid-finite.csv",
                               "--out", "out/fwd-warm.csv", "--hamiltonian", "out/ham-warm.json"])
        if code != 0:
            raise RuntimeError(f"warm-up forward failed: {err}")

    return tasks, warmup


REFERENCES = {
    "halfline-weyl": halfline_references,
    "finite-sweep": finite_references,
    "inverse-spectral": inverse_references,
    "cli-files": cli_references,
}

# Percentile of task_tail_s: at least ten tasks lie beyond it in every
# 20-second run, and it falls inside a block of tasks of one kind rather than
# on the edge between two kinds (README gives the counts).
TAIL_PERCENTILE = {
    "halfline-weyl": 85,
    "finite-sweep": 88,
    "inverse-spectral": 79,
    "cli-files": 70,
}
