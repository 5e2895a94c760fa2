"""End-to-end tests for the command-line interface and its exit-code contract."""

import cmath
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import indefstring
from indefstring import catalog
from indefstring.cli import main
from indefstring.coefficients import coefficient_view, spec_from_json, spec_discrepancy, spec_to_json
from indefstring.convergence import mollify_string

ATOM_MID = {"L": 1.0, "omega": {"atoms": [{"x": 0.5, "mass": 1.0}]}}
UNIFORM = {"L": 1.0, "omega": {"density": [{"a": 0.0, "b": 1.0, "value": 1.0}]}}
HALFLINE = {"L": "inf", "omega": {"density": [{"a": 0.0, "b": "inf", "value": 1.0}]}}
UPSILON_HALFLINE = {"L": "inf", "upsilon": {"density": [{"a": 0.0, "b": "inf", "value": 1.0}]}}
HAMILTONIAN = {
    "pieces": [
        {"len": 5.0, "h11": 0.8, "h12": 0.4},
        {"len": "inf", "h11": 1.0, "h12": 0.0},
    ]
}


def _dump(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def grid_csv(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("re_z,im_z\n0,1\n2,0.5\n", encoding="utf-8")
    return str(path)


# -- forward ------------------------------------------------------------------


def test_forward_writes_m_samples(tmp_path, grid_csv):
    spec = _dump(tmp_path / "spec.json", ATOM_MID)
    out = tmp_path / "m.csv"
    assert main(["forward", "--spec", spec, "--grid", grid_csv, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "re_z,im_z,re_m,im_m,trunc_x,est_err"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[0] == "0" and row[1] == "1"
    # closed form at z=i: -1/z + 1/(4 - z)
    z = 1j
    expected = -1 / z + 1 / (4 - z)
    assert float(row[2]) == pytest.approx(expected.real, abs=1e-10)
    assert float(row[3]) == pytest.approx(expected.imag, abs=1e-10)
    assert float(row[4]) == 1.0  # finite string: evaluated at its endpoint
    assert float(row[5]) == 0.0


def test_forward_output_is_byte_stable_across_runs_and_jobs(tmp_path, grid_csv):
    spec = _dump(tmp_path / "spec.json", HALFLINE)
    outs = []
    for name, jobs in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "3")):
        out = tmp_path / name
        coefficient_view.cache_clear()
        rc = main(["forward", "--spec", spec, "--grid", grid_csv, "--out", str(out),
                   "--jobs", jobs])
        assert rc == 0
        # one view build per run; --jobs is accepted and has no effect
        assert coefficient_view.cache_info().misses == 1
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_forward_optionally_writes_hamiltonian(tmp_path, grid_csv):
    spec = _dump(tmp_path / "spec.json", ATOM_MID)
    ham = tmp_path / "h.json"
    rc = main(["forward", "--spec", spec, "--grid", grid_csv,
               "--out", str(tmp_path / "m.csv"), "--hamiltonian", str(ham)])
    assert rc == 0
    doc = json.loads(ham.read_text(encoding="utf-8"))
    assert set(doc) == {"pieces"}
    assert set(doc["pieces"][0]) == {"len", "h11", "h12"}
    assert doc["pieces"][-1]["len"] == "inf"


def test_forward_rejects_real_axis_grid_points(tmp_path):
    spec = _dump(tmp_path / "spec.json", ATOM_MID)
    grid = tmp_path / "grid.csv"
    grid.write_text("re_z,im_z\n2,0\n", encoding="utf-8")
    rc = main(["forward", "--spec", spec, "--grid", str(grid),
               "--out", str(tmp_path / "m.csv")])
    assert rc == 1


def test_forward_refuses_non_finite_grid_points_with_exit_1(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("re_z,im_z\n0,1\nnan,1\n", encoding="utf-8")
    for doc in (HALFLINE, UNIFORM):
        out = tmp_path / "m.csv"
        rc = main(["forward", "--spec", _dump(tmp_path / "spec.json", doc), "--grid", str(grid),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: Weyl evaluation needs a finite z")
        assert not out.exists()


def test_forward_refuses_a_malformed_grid_row_with_exit_1(tmp_path, capsys):
    # Only a first line that does not parse is a header, and blank lines are
    # skipped; a later row with a field that is not a float, or with one
    # field, names its line and writes nothing.
    spec = _dump(tmp_path / "spec.json", ATOM_MID)
    out = tmp_path / "m.csv"
    for rows, line in (("0,1\n1,abc\n2;1\n3\n1e,2\n4,1\n", 3), ("0,1\n\n3\n", 4), ("0,1\n1e,2\n", 3),
                       ("0,1\n1,\n", 3), ("0,1\nre_z,im_z\n", 3)):
        grid = tmp_path / "grid.csv"
        grid.write_text("re_z,im_z\n" + rows, encoding="utf-8")
        assert main(["forward", "--spec", spec, "--grid", str(grid), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: line {line} of {grid} ")
        assert not out.exists()
    # A header after blank lines, and blank lines between rows, still read.
    grid.write_text("\n re_z , im_z \n0,1\n\n2;0.5\n", encoding="utf-8")
    assert main(["forward", "--spec", spec, "--grid", str(grid), "--out", str(out)]) == 0
    assert [row.split(",")[:2] for row in out.read_text().splitlines()[1:]] == [["0", "1"], ["2", "0.5"]]


def test_forward_refuses_a_grid_of_only_a_header_with_exit_1(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("re_z,im_z\n\n", encoding="utf-8")
    out = tmp_path / "m.csv"
    rc = main(["forward", "--spec", _dump(tmp_path / "spec.json", ATOM_MID), "--grid", str(grid),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: no usable 're_z, im_z' rows in {grid}")
    assert not out.exists()


@pytest.mark.parametrize("command, args, option", [
    ("roundtrip", ["--tol", "0"], "--tol"),
    ("spectrum", ["--window", "1", "6", "--eps", "0", "1e-3"], "--eps"),
])
def test_tolerances_must_be_positive_with_exit_1(tmp_path, capsys, command, args, option):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as err:
        main([command, "--spec", _dump(tmp_path / "spec.json", ATOM_MID), *args, "--out", str(out)])
    assert err.value.code == 1
    captured = capsys.readouterr().err
    assert "usage:" in captured and f"{option}: must be positive, got 0" in captured
    assert not out.exists()


@pytest.mark.parametrize("mesh", ["0", "-3", "2.5", "many"])
@pytest.mark.parametrize("command", ["forward", "roundtrip"])
def test_mesh_must_be_a_positive_integer_with_exit_1(tmp_path, capsys, grid_csv, command, mesh):
    spec = _dump(tmp_path / "spec.json", UNIFORM)
    args = {"forward": ["--grid", grid_csv, "--out", str(tmp_path / "m.csv"),
                        "--hamiltonian", str(tmp_path / "h.json")],
            "roundtrip": []}[command]
    with pytest.raises(SystemExit) as err:
        main([command, "--spec", spec, *args, f"--mesh={mesh}"])
    assert err.value.code == 1
    captured = capsys.readouterr().err
    assert "usage:" in captured and f"--mesh: must be a positive integer, got {mesh}" in captured
    assert not (tmp_path / "m.csv").exists() and not (tmp_path / "h.json").exists()


@pytest.mark.parametrize("jobs", ["0", "-3", "2.5"])
def test_jobs_must_be_a_positive_integer_with_exit_1(tmp_path, capsys, grid_csv, jobs):
    spec = _dump(tmp_path / "spec.json", ATOM_MID)
    with pytest.raises(SystemExit) as err:
        main(["forward", "--spec", spec, "--grid", grid_csv, "--out", str(tmp_path / "m.csv"),
              f"--jobs={jobs}"])
    assert err.value.code == 1
    captured = capsys.readouterr().err
    assert "usage:" in captured and f"--jobs: must be a positive integer, got {jobs}" in captured
    assert not (tmp_path / "m.csv").exists()


# -- inverse ------------------------------------------------------------------


def test_inverse_recovers_string_from_hamiltonian(tmp_path):
    ham = _dump(tmp_path / "h.json", HAMILTONIAN)
    out = tmp_path / "spec.json"
    assert main(["inverse", "--hamiltonian", ham, "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    spec = spec_from_json(doc)
    assert spec.length == pytest.approx(1.0, abs=1e-12)
    assert len(spec.omega.atoms) == 1
    x, mass = spec.omega.atoms[0]
    assert x == 0.0
    assert mass == pytest.approx(2.0, abs=1e-12)


def test_inverse_refuses_a_hamiltonian_that_is_not_a_mapping(tmp_path, capsys):
    ham = _dump(tmp_path / "h.json", HAMILTONIAN["pieces"])
    assert main(["inverse", "--hamiltonian", ham, "--out", str(tmp_path / "spec.json")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot interpret Hamiltonian data")
    assert not (tmp_path / "spec.json").exists()


# -- roundtrip ----------------------------------------------------------------


def test_roundtrip_passes_on_atomic_string(tmp_path, capsys):
    spec = _dump(tmp_path / "spec.json", ATOM_MID)
    report = tmp_path / "report.json"
    rc = main(["roundtrip", "--spec", spec, "--out", str(report)])
    assert rc == 0
    assert "roundtrip max discrepancy" in capsys.readouterr().out
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["passed"] is True
    assert doc["overall"] <= doc["tol"]
    assert set(doc) == {"length", "w_primitive", "sigma_primitive", "tail_w", "tail_sigma",
                        "tail_omega_density", "tail_upsilon_density", "overall", "tol", "passed"}


def test_roundtrip_passes_on_an_atomic_halfline_at_rounding_tolerance(tmp_path):
    # Twelve omega atoms, a upsilon atom at 0 and a free tail: the tail slope
    # returns a few ulps off, which the tail parts read as rounding.
    rng = np.random.default_rng(3)
    xs = (np.arange(12) + rng.uniform(0.1, 0.9, 12)) / 6.0
    doc = {"L": "inf", "omega": {"atoms": [{"x": x, "mass": m} for x, m in
                                           zip(xs.tolist(), rng.uniform(0.2, 1.0, 12).tolist())]},
           "upsilon": {"atoms": [{"x": 0.0, "mass": 0.5}]}}
    spec = _dump(tmp_path / "spec.json", doc)
    report = tmp_path / "report.json"
    assert main(["roundtrip", "--spec", spec, "--tol", "1e-12", "--out", str(report)]) == 0
    parts = json.loads(report.read_text(encoding="utf-8"))
    assert parts["passed"] is True
    assert all(parts[key] <= 1e-12 for key in parts if key.startswith("tail_")), parts


def test_roundtrip_flags_mesh_limited_density_at_tight_tolerance(tmp_path):
    # a meshed density reconstructs only to mesh accuracy, far above 1e-9
    spec = _dump(tmp_path / "spec.json", UNIFORM)
    report = tmp_path / "report.json"
    rc = main(["roundtrip", "--spec", spec, "--out", str(report)])
    assert rc == 3
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["passed"] is False


def test_roundtrip_passes_on_a_density_string_at_mesh_accuracy(tmp_path, capsys):
    # The primitives of a meshed density come back at second order in the
    # mesh width: about 3.4e-6 at --mesh 256.
    spec = _dump(tmp_path / "spec.json", UNIFORM)
    report = tmp_path / "report.json"
    assert main(["roundtrip", "--spec", spec, "--mesh", "256", "--tol", "1e-5",
                 "--out", str(report)]) == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["passed"] is True and 1e-6 < doc["overall"] <= 5e-6
    assert doc["overall"] == max(doc["w_primitive"], doc["sigma_primitive"], doc["length"])


# -- spectrum -----------------------------------------------------------------


def test_spectrum_finds_the_atom(tmp_path, capsys):
    spec = _dump(tmp_path / "spec.json", ATOM_MID)
    out = tmp_path / "mu.json"
    rc = main(["spectrum", "--spec", spec, "--window", "1", "6", "--out", str(out)])
    assert rc == 0
    assert "1 atom(s)" in capsys.readouterr().out
    doc = json.loads(out.read_text(encoding="utf-8"))
    (atom,) = doc["atoms"]
    assert atom["lambda"] == pytest.approx(4.0, abs=1e-3)
    assert atom["mass"] == pytest.approx(1.0, abs=1e-3)


def test_spectrum_with_one_eps_exits_1(tmp_path, capsys):
    spec = _dump(tmp_path / "spec.json", ATOM_MID)
    rc = main(["spectrum", "--spec", spec, "--window", "1", "6", "--eps", "0.01",
               "--out", str(tmp_path / "mu.json")])
    assert rc == 1
    assert "two eps" in capsys.readouterr().err
    assert not (tmp_path / "mu.json").exists()


def test_spectrum_writes_exact_atoms_for_atomic_strings(tmp_path):
    spec = _dump(tmp_path / "spec.json", ATOM_MID)
    out = tmp_path / "mu.json"
    assert main(["spectrum", "--spec", spec, "--window", "1", "6", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8")) == {"atoms": [{"lambda": 4.0, "mass": 1.0}]}


def test_spectrum_uses_boundary_values_for_densities(tmp_path):
    spec = _dump(tmp_path / "spec.json", UNIFORM)
    out = tmp_path / "mu.json"
    assert main(["spectrum", "--spec", spec, "--window", "5", "15", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    (atom,) = doc["atoms"]
    assert atom["lambda"] == pytest.approx(math.pi ** 2, rel=1e-2)
    assert doc["epsilon_used"] == 1e-4
    assert doc["continuous_samples"]


def test_spectrum_on_a_halfline_writes_only_densities(tmp_path, capsys):
    spec = _dump(tmp_path / "spec.json", UPSILON_HALFLINE)
    out = tmp_path / "mu.json"
    assert main(["spectrum", "--spec", spec, "--window", "0.5", "3", "--out", str(out)]) == 0
    assert "0 atom(s)" in capsys.readouterr().out
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["atoms"] == []
    assert doc["continuous_samples"]


@pytest.mark.parametrize("window", [("-1e12", "-1e-9"), ("-1e3", "-1e-3"), ("-1E+3", "-.001")])
def test_spectrum_reads_negative_window_edges_in_exponent_notation(tmp_path, capsys, window):
    # An edge like -1e-9 is a value, as -0.001 is, not an option.  On a string
    # with omega masses of both signs the atoms on the window are the
    # negative eigenvalues.
    rng = np.random.default_rng(6)
    xs, masses = np.sort(rng.uniform(0.05, 0.95, 10)), rng.uniform(-1.0, 1.0, 10) / 5.0
    doc = {"L": 1.0, "omega": {"atoms": [{"x": x, "mass": m} for x, m in zip(xs.tolist(), masses.tolist())]}}
    spec, out = _dump(tmp_path / "spec.json", doc), tmp_path / "mu.json"
    assert main(["spectrum", "--spec", spec, "--window", *window, "--out", str(out)]) == 0
    lams = [atom["lambda"] for atom in json.loads(out.read_text(encoding="utf-8"))["atoms"]]
    eigs = indefstring.discrete_eigenvalues(spec_from_json(doc))
    assert lams == [lam for lam in eigs if float(window[0]) <= lam <= float(window[1])]
    assert len(lams) == 5 and all(lam < 0.0 for lam in lams)
    assert "5 atom(s)" in capsys.readouterr().out


@pytest.mark.parametrize("doc", [ATOM_MID, UNIFORM])
@pytest.mark.parametrize("window,message", [(("-1", "6"), "exclude 0"), (("6", "1"), "empty")])
def test_spectrum_window_checks_agree_on_both_routes(tmp_path, capsys, doc, window, message):
    spec = _dump(tmp_path / "spec.json", doc)
    rc = main(["spectrum", "--spec", spec, "--window", *window, "--out", str(tmp_path / "mu.json")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "mu.json").exists()


@pytest.mark.parametrize("doc", [ATOM_MID, UNIFORM, UPSILON_HALFLINE])
@pytest.mark.parametrize("args,message", [
    (["--window", "1", "inf"], "finite edges"),
    (["--window", "1", "nan"], "finite edges"),
    (["--window", "1", "6", "--eps", "inf", "0.001"], "positive and finite"),
    (["--window", "1", "6", "--eps", "0.01", "0.01"], "distinct"),
])
def test_spectrum_rejects_bad_windows_and_eps_with_exit_1(tmp_path, capsys, doc, args, message):
    spec = _dump(tmp_path / "spec.json", doc)
    rc = main(["spectrum", "--spec", spec, *args, "--out", str(tmp_path / "mu.json")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "mu.json").exists()


# -- classify -----------------------------------------------------------------


def test_classify_prints_and_writes_flags(tmp_path, capsys):
    spec = _dump(tmp_path / "spec.json",
                 {"L": 1.0, "omega": {"density": [{"a": 0.0, "b": 1.0, "value": -1.0}]}})
    out = tmp_path / "flags.json"
    rc = main(["classify", "--spec", spec, "--out", str(out)])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["herglotz"] is True
    assert printed["stieltjes"] is False
    assert printed == json.loads(out.read_text(encoding="utf-8"))


# -- converge -----------------------------------------------------------------


def test_converge_reports_verdict_for_mollified_family(tmp_path, capsys):
    base = catalog.omega_atom_origin(mass=1.0)
    family = tmp_path / "family"
    family.mkdir()
    for n in (4, 16, 64):
        _dump(family / f"member_{n:03d}.json", spec_to_json(mollify_string(base, n)))
    limit = _dump(tmp_path / "limit.json", spec_to_json(base))
    out = tmp_path / "report.json"
    rc = main(["converge", "--family", str(family), "--limit", limit, "--out", str(out)])
    assert rc == 0
    assert "verdict: converges" in capsys.readouterr().out
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["verdict"] == "converges"
    assert len(doc["per_member"]) == 3


def test_converge_rejects_empty_family_dir(tmp_path):
    family = tmp_path / "family"
    family.mkdir()
    assert main(["converge", "--family", str(family)]) == 1


# -- exit codes ---------------------------------------------------------------


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["forward"])  # missing required flags
    assert err.value.code == 1


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["transmogrify"])
    assert err.value.code == 1


def test_missing_file_exits_1(tmp_path, grid_csv):
    rc = main(["forward", "--spec", str(tmp_path / "nope.json"),
               "--grid", grid_csv, "--out", str(tmp_path / "m.csv")])
    assert rc == 1


def test_bad_json_exits_1(tmp_path, grid_csv):
    spec = tmp_path / "spec.json"
    spec.write_text("{not json", encoding="utf-8")
    rc = main(["forward", "--spec", str(spec), "--grid", grid_csv,
               "--out", str(tmp_path / "m.csv")])
    assert rc == 1


def test_invalid_spec_exits_1(tmp_path, grid_csv):
    spec = _dump(tmp_path / "spec.json", {"L": 0.0})
    rc = main(["forward", "--spec", spec, "--grid", grid_csv,
               "--out", str(tmp_path / "m.csv")])
    assert rc == 1


def test_forward_refuses_a_density_piece_ending_at_nan_with_exit_1(tmp_path, capsys, grid_csv):
    spec = tmp_path / "spec.json"
    spec.write_text('{"L": 1.0, "omega": {"density": [{"a": 0.2, "b": NaN, "value": 1.0}]}}',
                    encoding="utf-8")
    out = tmp_path / "m.csv"
    assert main(["forward", "--spec", str(spec), "--grid", grid_csv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: omega density piece (0.2, nan, 1.0)")
    assert not out.exists()


def test_forward_on_a_halfline_at_tiny_im_z_exits_0(tmp_path, capsys):
    """Im sqrt(z) = 5e-10 or less: the tail past the last breakpoint gives
    m = i/sqrt(z), read at x0 = 0 with no error estimate to carry."""
    spec = _dump(tmp_path / "spec.json", HALFLINE)
    grid = tmp_path / "grid.csv"
    zs = (100 + 1e-8j, 1e4 + 1e-8j, 1e6 + 1e-8j)
    grid.write_text("re_z,im_z\n" + "".join(f"{z.real!r},{z.imag!r}\n" for z in zs), encoding="utf-8")
    out = tmp_path / "m.csv"
    assert main(["forward", "--spec", spec, "--grid", str(grid), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert len(rows) == len(zs)
    for z, row in zip(zs, rows):
        exact = 1j / cmath.sqrt(z)
        assert abs(complex(float(row[2]), float(row[3])) - exact) <= 1e-14 * abs(exact), z
        assert row[4:] == ["0", "0"]
    # The truncation tolerance is gone with the truncation.
    with pytest.raises(SystemExit) as err:
        main(["forward", "--spec", spec, "--grid", str(grid), "--out", str(out), "--tol", "1e-10"])
    assert err.value.code == 1
    assert "--tol" in capsys.readouterr().err


def test_non_finite_weyl_value_exits_2(tmp_path):
    spec = _dump(tmp_path / "spec.json", UNIFORM)
    grid = tmp_path / "grid.csv"
    # Large |Im sqrt(z)| is evaluated: m = -cot(sqrt(z))/sqrt(z).
    grid.write_text("re_z,im_z\n0,1\n-1e6,1\n", encoding="utf-8")
    out = tmp_path / "m.csv"
    assert main(["forward", "--spec", spec, "--grid", str(grid), "--out", str(out)]) == 0
    row = out.read_text(encoding="utf-8").splitlines()[2].split(",")
    m = complex(float(row[2]), float(row[3]))
    assert m == pytest.approx(0.000999999999999625 + 4.999999999996875e-10j, rel=1e-12)
    # z^2 overflows at z = 1e300 i: the value is refused and no file is written.
    grid.write_text("re_z,im_z\n0,1\n0,1e300\n", encoding="utf-8")
    out = tmp_path / "m-refused.csv"
    rc = main(["forward", "--spec", spec, "--grid", str(grid), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


# -- console script -----------------------------------------------------------


def _declared_script(name):
    """Return the ``module:function`` target of ``name`` in ``[project.scripts]``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_console_script_help(tmp_path):
    # Build the launcher an installer generates from the declared entry point,
    # so the check runs from source without installing the package.
    module, _, func = _declared_script("indefstring").partition(":")
    launcher = tmp_path / "indefstring"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n",
        encoding="utf-8",
    )
    launcher.chmod(0o755)
    src = str(Path(indefstring.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    exe = shutil.which("indefstring", path=env["PATH"])
    assert exe is not None
    done = subprocess.run([exe, "--help"], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "forward" in done.stdout, done.stderr


def test_cli_roundtrip_agrees_with_library(tmp_path, grid_csv):
    spec_doc = spec_to_json(catalog.upsilon_atom_origin())
    spec = _dump(tmp_path / "spec.json", spec_doc)
    ham = tmp_path / "h.json"
    back = tmp_path / "back.json"
    assert main(["forward", "--spec", spec, "--grid", grid_csv,
                 "--out", str(tmp_path / "m.csv"), "--hamiltonian", str(ham)]) == 0
    assert main(["inverse", "--hamiltonian", str(ham), "--out", str(back)]) == 0
    recovered = spec_from_json(json.loads(back.read_text(encoding="utf-8")))
    parts = spec_discrepancy(spec_from_json(spec_doc), recovered)
    assert parts["overall"] < 1e-9


def test_no_subcommand_imports_numpy_ma(tmp_path, grid_csv):
    # numpy.ma costs every fresh process some 15 ms to import; np.unique
    # pulls it in on its first call.  Each subcommand runs in one fresh
    # interpreter, on inputs that reach its sweeps, searches and meshes.
    family = tmp_path / "family"
    family.mkdir()
    for n in (4, 16):
        _dump(family / f"member_{n:03d}.json", spec_to_json(mollify_string(catalog.omega_atom_origin(), n)))
    uniform = _dump(tmp_path / "uniform.json", UNIFORM)
    out = str(tmp_path / "out")
    runs = [
        ["forward", "--spec", uniform, "--grid", grid_csv, "--out", out, "--hamiltonian", out + ".json"],
        ["forward", "--spec", _dump(tmp_path / "halfline.json", HALFLINE), "--grid", grid_csv, "--out", out],
        ["inverse", "--hamiltonian", _dump(tmp_path / "ham.json", HAMILTONIAN), "--out", out],
        ["roundtrip", "--spec", uniform, "--tol", "1e-3"],
        ["spectrum", "--spec", uniform, "--window", "5", "45", "--out", out],
        ["spectrum", "--spec", _dump(tmp_path / "omega.json", ATOM_MID), "--window", "1", "60", "--out", out],
        ["classify", "--spec", _dump(tmp_path / "mixed.json", spec_to_json(catalog.mixed_example()))],
        ["converge", "--family", str(family), "--limit",
         _dump(tmp_path / "limit.json", spec_to_json(catalog.omega_atom_origin()))],
    ]
    src = str(Path(indefstring.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in runs:
        code = ("import sys\nfrom indefstring.cli import main\n"
                f"rc = main({argv!r})\n"
                "print(rc, 'numpy.ma' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False", (argv[0], done.stdout, done.stderr)
