"""Command-line front end: JSON/CSV plumbing around the library operations.

Exit codes: 0 success, 1 parse/validation problems (including usage errors),
2 numerical failure (a value that is not finite), 3 roundtrip discrepancy
above tolerance.
Floats are written with 17 significant digits so outputs are byte-stable.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .canonical import (
    hamiltonian_from_json,
    hamiltonian_to_json,
    hamiltonian_to_string,
    string_to_hamiltonian,
)
from .coefficients import spec_discrepancy, spec_from_json, spec_to_json
from .convergence import StringSequence, report_to_json, string_convergence_check
from .errors import ComputationError, NotAtomic, NotFiniteLength, UnsupportedShape, ValidationError
from .spectral import _checked_window, measure_to_json, spectral_measure_discrete, stieltjes_inversion
from .weyl import classify, weyl_m_grid

_FMT = "%.17g"


def _fmt(x: float) -> str:
    return _FMT % x


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read_grid(path: str) -> list[complex]:
    """The points of a CSV grid, one 're_z, im_z' row each.  Blank lines are
    skipped, and the first other line is the header if it does not parse; any
    other row with fewer than two fields, or a field that is not a float, is
    refused by its line number."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = [(k, line) for k, line in enumerate(lines, 1) if line.strip()]
    zs = []
    for k, line in rows:
        try:
            # A row of fewer than two fields fails the unpacking.
            re_z, im_z, *_ = (float(field) for field in line.replace(";", ",").split(","))
        except ValueError:
            if k == rows[0][0]:
                continue  # header row
            raise ValidationError(f"line {k} of {path} is not a 're_z, im_z' row of floats: {line!r}") from None
        zs.append(complex(re_z, im_z))
    if not zs:
        raise ValidationError(f"no usable 're_z, im_z' rows in {path}")
    return zs


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1, and which reads
    a negative number in exponent notation (``--window -1e12 -1e-9``) as a
    value, as it reads ``-1000``, not as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="indefstring", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    fwd = sub.add_parser("forward", help="Weyl samples (and optionally the Hamiltonian) of a string")
    fwd.add_argument("--spec", required=True)
    fwd.add_argument("--grid", required=True, help="CSV with re_z, im_z rows")
    fwd.add_argument("--out", required=True, help="output CSV for the m samples")
    fwd.add_argument("--hamiltonian", help="also write the Hamiltonian JSON here")
    fwd.add_argument("--mesh", type=_positive_int, default=256)
    fwd.add_argument("--jobs", type=_positive_int, default=1,
                     help="accepted for compatibility; has no effect (long grids use every CPU "
                          "the process may run on, with the same output)")
    fwd.set_defaults(func=cmd_forward)

    inv = sub.add_parser("inverse", help="string spec of a Hamiltonian")
    inv.add_argument("--hamiltonian", required=True)
    inv.add_argument("--out", required=True)
    inv.set_defaults(func=cmd_inverse)

    rt = sub.add_parser("roundtrip", help="string -> Hamiltonian -> string discrepancy check")
    rt.add_argument("--spec", required=True)
    rt.add_argument("--tol", type=_positive, default=1e-9)
    rt.add_argument("--mesh", type=_positive_int, default=256)
    rt.add_argument("--out", help="write a JSON report here")
    rt.set_defaults(func=cmd_roundtrip)

    sp = sub.add_parser("spectrum", help="spectral measure on a window: exact for finite atomic "
                                         "strings, else by boundary values")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--window", nargs=2, type=float, required=True, metavar=("A", "B"))
    sp.add_argument("--eps", nargs="+", type=_positive, default=[1e-2, 1e-3, 1e-4])
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_spectrum)

    cl = sub.add_parser("classify", help="Herglotz/Stieltjes flags of a string")
    cl.add_argument("--spec", required=True)
    cl.add_argument("--out")
    cl.set_defaults(func=cmd_classify)

    cv = sub.add_parser("converge", help="convergence report for a directory of string specs")
    cv.add_argument("--family", required=True, help="directory of member spec JSON files")
    cv.add_argument("--limit", help="limit spec JSON file")
    cv.add_argument("--out")
    cv.set_defaults(func=cmd_converge)
    return parser


def cmd_forward(args) -> int:
    spec = spec_from_json(_load_json(args.spec))
    zs = _read_grid(args.grid)
    if any(z.imag == 0.0 for z in zs):
        raise ValidationError("grid points must have nonzero imaginary part")
    samples = weyl_m_grid(spec, zs)
    # est_err stays for old readers of the file: nothing is truncated, so it is 0.
    lines = ["re_z,im_z,re_m,im_m,trunc_x,est_err"]
    for s in samples:
        lines.append(
            ",".join(_fmt(v) for v in (s.z.real, s.z.imag, s.m.real, s.m.imag, s.truncation_x, 0.0))
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.hamiltonian:
        _write_json(args.hamiltonian, hamiltonian_to_json(string_to_hamiltonian(spec, mesh=args.mesh)))
    return 0


def cmd_inverse(args) -> int:
    ham = hamiltonian_from_json(_load_json(args.hamiltonian))
    _write_json(args.out, spec_to_json(hamiltonian_to_string(ham)))
    return 0


def cmd_roundtrip(args) -> int:
    spec = spec_from_json(_load_json(args.spec))
    back = hamiltonian_to_string(string_to_hamiltonian(spec, mesh=args.mesh))
    parts = spec_discrepancy(spec, back)
    passed = parts["overall"] <= args.tol
    if args.out:
        _write_json(args.out, {**parts, "tol": args.tol, "passed": passed})
    print(f"roundtrip max discrepancy {_fmt(parts['overall'])} (tol {_fmt(args.tol)})")
    return 0 if passed else 3


def cmd_spectrum(args) -> int:
    spec = spec_from_json(_load_json(args.spec))
    lo, hi, eps = _checked_window(args.window, args.eps)
    try:
        mu = spectral_measure_discrete(spec, (lo, hi))
    except (NotFiniteLength, NotAtomic, UnsupportedShape):
        mu = stieltjes_inversion(spec, (lo, hi), eps=eps)
    _write_json(args.out, measure_to_json(mu))
    print(f"{len(mu.atoms)} atom(s) on [{_fmt(args.window[0])}, {_fmt(args.window[1])}]")
    return 0


def cmd_classify(args) -> int:
    result = classify(spec_from_json(_load_json(args.spec)))
    doc = {
        "herglotz": result.herglotz,
        "stieltjes": result.stieltjes,
        "stieltjes_structural": result.stieltjes_structural,
        "nonneg_spectrum_predicted": result.nonneg_spectrum_predicted,
        "margins": result.margins,
    }
    if args.out:
        _write_json(args.out, doc)
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_converge(args) -> int:
    family_dir = Path(args.family)
    paths = sorted(family_dir.glob("*.json"))
    if not paths:
        raise ValidationError(f"no member spec files in {family_dir}")
    specs = tuple(spec_from_json(_load_json(str(p))) for p in paths)
    limit = spec_from_json(_load_json(args.limit)) if args.limit else None
    report = string_convergence_check(StringSequence(specs=specs, limit=limit))
    if args.out:
        _write_json(args.out, report_to_json(report))
    print(f"verdict: {report.verdict}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
