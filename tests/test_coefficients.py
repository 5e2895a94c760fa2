"""Tests for string specs, coefficient views, and travel coordinates."""

import dataclasses
import json
import math

import numpy as np
import pytest

from indefstring import catalog, coefficients
from indefstring.canonical import hamiltonian_to_string, string_to_hamiltonian
from indefstring.coefficients import (
    MeasureData,
    StringSpec,
    coefficient_view,
    spec_discrepancy,
    spec_from_json,
    spec_to_json,
    travel_coords,
    validate_spec,
)
from indefstring.errors import (
    NegativeUpsilon,
    NonPositiveLength,
    OverlappingDensityIntervals,
    PositionOutOfRange,
    ValidationError,
)
from indefstring.propagation import transfer_matrices
from indefstring.spectral import spectral_measure_discrete
from indefstring.weyl import weyl_m

ATOM2 = catalog.omega_atom_origin()        # L=1, omega = 2*delta_0
UPS3 = catalog.upsilon_atom_origin()       # L=1, upsilon = 3*delta_0
EMPTY1 = catalog.empty_string()


def test_empty_spec_is_valid_and_zero():
    spec = validate_spec({"L": 1.0, "omega": {}, "upsilon": {}})
    assert spec.length == 1.0
    assert spec.omega.is_zero() and spec.upsilon.is_zero()


@pytest.mark.parametrize("raw, message", [
    (42, "cannot interpret string spec"),
    ({"L": 1.0, "omega": [{"x": 0.5, "mass": 1.0}]}, "cannot interpret measure data"),
])
def test_specs_of_the_wrong_type_are_refused(raw, message):
    with pytest.raises(ValidationError, match=message):
        validate_spec(raw)


def test_built_specs_and_measures_pass_through_validate_spec():
    spec = catalog.mixed_example()
    assert validate_spec(spec) is spec
    assert validate_spec({"L": spec.length, "omega": spec.omega, "upsilon": spec.upsilon}) == spec


def test_negative_upsilon_rejected():
    with pytest.raises(NegativeUpsilon):
        validate_spec({"L": 1.0, "omega": {}, "upsilon": {"atoms": [{"x": 0.5, "mass": -1.0}]}})


def test_nonpositive_length_rejected():
    for bad in (0.0, -2.0):
        with pytest.raises(NonPositiveLength):
            validate_spec({"L": bad, "omega": {}, "upsilon": {}})


def test_positions_must_lie_in_half_open_interval():
    with pytest.raises(PositionOutOfRange):
        validate_spec({"L": 1.0, "omega": {"atoms": [{"x": 1.5, "mass": 1.0}]}, "upsilon": {}})
    with pytest.raises(PositionOutOfRange):
        # the endpoint itself is excluded
        validate_spec({"L": 1.0, "omega": {"atoms": [{"x": 1.0, "mass": 1.0}]}, "upsilon": {}})


def test_overlapping_density_intervals_rejected():
    with pytest.raises(OverlappingDensityIntervals):
        validate_spec({
            "L": 2.0,
            "omega": {"density": [{"a": 0.0, "b": 1.0, "value": 1.0},
                                  {"a": 0.5, "b": 1.5, "value": 2.0}]},
            "upsilon": {},
        })


def test_duplicate_atoms_merge_and_zero_mass_drops():
    spec = validate_spec({
        "L": 1.0,
        "omega": {"atoms": [{"x": 0.5, "mass": 1.0}, {"x": 0.5, "mass": 2.0},
                            {"x": 0.25, "mass": 0.0}]},
        "upsilon": {},
    })
    assert spec.omega.atoms == ((0.5, 3.0),)


def _doc(length, omega=((), ()), upsilon=((), ())):
    """JSON form of raw ``(atoms, density)`` data for both measures."""
    def measure(data):
        atoms, density = data
        return {"atoms": [{"x": x, "mass": m} for x, m in atoms],
                "density": [{"a": a, "b": "inf" if math.isinf(b) else b, "value": v}
                            for a, b, v in density]}

    return {"L": "inf" if math.isinf(length) else length,
            "omega": measure(omega), "upsilon": measure(upsilon)}


def _built(length, omega=((), ()), upsilon=((), ())):
    """The same raw data handed straight to the StringSpec constructor."""
    return StringSpec(length=length, omega=MeasureData(*omega), upsilon=MeasureData(*upsilon))


@pytest.mark.parametrize("raw, error", [
    ((1.0, ((), ()), (((0.5, -1.0),), ())), NegativeUpsilon),
    ((1.0, (((1.0, 1.0),), ())), PositionOutOfRange),
    ((2.0, ((), ((0.0, 1.0, 1.0), (0.5, 1.5, 2.0)))), OverlappingDensityIntervals),
    ((0.0,), NonPositiveLength),
])
def test_building_an_invalid_spec_raises_like_validate_spec(raw, error):
    with pytest.raises(error) as direct:
        _built(*raw)
    with pytest.raises(error) as parsed:
        validate_spec(_doc(*raw))
    assert type(direct.value) is type(parsed.value)


def test_a_density_piece_that_ends_at_nan_is_refused():
    # nan fails every comparison, so an end check written as "not beyond"
    # lets it through; the piece must be named as a nan start is.
    for length in (1.0, math.inf):
        with pytest.raises(ValidationError, match=r"omega density piece \(0\.2, nan, 1\.0\)") as built:
            StringSpec(length, MeasureData(density=((0.2, math.nan, 1.0),)))
        doc = {"L": length, "upsilon": {"density": [{"a": 0.1, "b": math.nan, "value": 2.0}]}}
        with pytest.raises(ValidationError, match=r"upsilon density piece \(0\.1, nan, 2\.0\)") as parsed:
            validate_spec(json.loads(json.dumps(doc)))
        assert type(built.value) is type(parsed.value) is ValidationError
    # An infinite end stays allowed on a half-line.
    piece = (0.2, math.inf, 1.0)
    assert StringSpec(math.inf, MeasureData(density=(piece,))).omega.density == (piece,)


def _random_raw_measure(rng, length, *, sign):
    """Unsorted atoms with repeated positions and zero masses, and density
    pieces in shuffled order where neighbours touch and often share a value."""
    span = 4.0 if math.isinf(length) else length
    grid = np.linspace(0.0, span, 8, endpoint=False)
    xs = rng.choice(grid, size=6)
    masses = rng.uniform(0.2, 2.0, size=6) * sign
    masses[rng.random(6) < 0.3] = 0.0
    atoms = [(float(x), float(m)) for x, m in zip(xs, masses)]
    cuts = np.sort(rng.choice(np.linspace(0.0, span, 9), size=4, replace=False)).tolist()
    ends = cuts[1:] + ([math.inf] if math.isinf(length) else [])
    density = [(float(a), float(b), float(rng.choice([0.0, 0.5, 1.5, 1.5]) * sign))
               for a, b in zip(cuts, ends)]
    rng.shuffle(density)
    return tuple(atoms), tuple(density)


def _assert_normal(measure):
    xs = [x for x, _ in measure.atoms]
    assert xs == sorted(set(xs)) and all(m != 0.0 for _, m in measure.atoms)
    for (a0, b0, v0), (a1, _, v1) in zip(measure.density, measure.density[1:]):
        assert b0 <= a1 and not (b0 == a1 and v0 == v1)
    assert all(v != 0.0 for _, _, v in measure.density)


def test_built_spec_is_normal_and_equals_the_parsed_one():
    rng = np.random.default_rng(11)
    for k in range(20):
        length = (1.0, 2.5, math.inf)[k % 3]
        omega = _random_raw_measure(rng, length, sign=float(rng.choice([-1.0, 1.0])))
        upsilon = _random_raw_measure(rng, length, sign=1.0)
        spec = _built(length, omega, upsilon)
        assert spec == validate_spec(_doc(length, omega, upsilon))
        assert spec == validate_spec(spec_to_json(spec))
        _assert_normal(spec.omega)
        _assert_normal(spec.upsilon)
        again = dataclasses.replace(spec)
        assert again == spec and hash(again) == hash(spec)
        assert again.omega.atoms == spec.omega.atoms and again.upsilon.density == spec.upsilon.density


def test_spec_hash_is_kept_and_equal_specs_share_a_view(monkeypatch):
    rng = np.random.default_rng(3)
    spec = catalog.random_discrete_string(rng)
    twin = validate_spec(spec_to_json(spec))
    assert twin is not spec and twin == spec and hash(twin) == hash(spec)
    assert hash(spec) == hash((spec.length, spec.omega, spec.upsilon))
    coefficient_view.cache_clear()
    assert coefficient_view(twin) is coefficient_view(spec)
    assert coefficient_view.cache_info().hits == 1

    # The kept hash is no field: repr, == and JSON see only the three fields.
    assert [f.name for f in dataclasses.fields(StringSpec)] == ["length", "omega", "upsilon"]
    assert repr(spec) == repr(twin) and spec_to_json(spec) == spec_to_json(twin)

    # The atoms are hashed once per instance, not on every lookup.
    hashed = []
    measure_hash = MeasureData.__hash__
    monkeypatch.setattr(MeasureData, "__hash__", lambda m: hashed.append(m) or measure_hash(m))
    fresh = validate_spec(spec_to_json(spec))
    for _ in range(3):
        hash(fresh)
        coefficient_view(fresh)
    assert len(hashed) == 2


def test_evaluators_do_not_renormalize_a_built_spec(monkeypatch):
    halfline = catalog.uniform_halfline()
    atomic = catalog.random_discrete_string(np.random.default_rng(5))
    calls = []
    normalize = coefficients._normalize_measure

    def counting(*args, **kwargs):
        calls.append(kwargs["label"])
        return normalize(*args, **kwargs)

    monkeypatch.setattr(coefficients, "_normalize_measure", counting)
    coefficient_view.cache_clear()
    weyl_m(halfline, 1 + 1j)
    transfer_matrices(atomic, [1j, 2.0 + 0.5j], [0.5 * atomic.length, atomic.length])
    spectral_measure_discrete(atomic)
    assert calls == []
    StringSpec(length=1.0)
    assert calls == ["omega", "upsilon"]


def _coefficients(spec, x):
    view = coefficient_view(spec)
    return view.w(x), view.upsilon(x), view.sigma(x)


def _normalize_by_loop(data: MeasureData, length: float, *, nonneg: bool, label: str) -> MeasureData:
    """The normal form of a measure by a loop over its atoms and pieces: the
    reference whose results, bits and errors the array version must keep."""
    merged: dict[float, float] = {}
    for x, mass in data.atoms:
        if not math.isfinite(x):
            raise PositionOutOfRange(f"{label} atom position must be finite, got {x}")
        if not math.isfinite(mass):
            raise coefficients.ValidationError(f"{label} atom mass must be finite, got {mass}")
        if not 0.0 <= x < length:
            raise PositionOutOfRange(f"{label} atom at {x} outside [0, {length})")
        merged[x] = merged.get(x, 0.0) + mass
    atoms = tuple(sorted((x, m) for x, m in merged.items() if m != 0.0))
    pieces = []
    for a, b, value in data.density:
        if not (math.isfinite(a) and math.isfinite(value)):
            raise coefficients.ValidationError(
                f"{label} density piece ({a}, {b}, {value}) must have finite endpoint/value")
        if a >= b:
            raise PositionOutOfRange(f"{label} density interval [{a}, {b}) is empty or reversed")
        if a < 0.0 or b > length:
            raise PositionOutOfRange(f"{label} density interval [{a}, {b}) outside [0, {length}]")
        if value != 0.0:
            pieces.append((a, b, value))
    pieces.sort()
    for (a0, b0, _), (a1, _, _) in zip(pieces, pieces[1:]):
        if a1 < b0:
            raise OverlappingDensityIntervals(f"{label} density intervals starting at {a0} and {a1} overlap")
    fused = []
    for piece in pieces:
        if fused and fused[-1][1] == piece[0] and fused[-1][2] == piece[2]:
            fused[-1] = (fused[-1][0], piece[1], piece[2])
        else:
            fused.append(piece)
    if nonneg:
        bad = [m for _, m in atoms if m < 0.0] + [v for _, _, v in fused if v < 0.0]
        if bad:
            raise NegativeUpsilon(f"{label} must be a non-negative measure, found {bad[0]}")
    return MeasureData(atoms=atoms, density=tuple(fused))


def _normalized_or_error(normalize, data, length, nonneg):
    try:
        return repr(normalize(data, length, nonneg=nonneg, label="upsilon"))
    except coefficients.ValidationError as exc:
        return type(exc), str(exc)


def test_measures_normalize_as_by_the_loop():
    # Repeated positions (-0.0 and 0.0 among them) whose masses cancel or
    # sum in input order, zero masses of both signs, touching pieces of one
    # value, and one input per error, also where a later entry fails first in
    # sorted order.  repr shows the signs of zeros.
    rng = np.random.default_rng(2)
    cases = []
    for _ in range(200):
        n = int(rng.integers(0, 12))
        xs = rng.choice([-0.0, 0.0, 0.1, 0.25, 0.5, 0.75, 0.9], n).tolist()
        masses = rng.choice([-1.0, -0.0, 0.0, 0.1, 0.3, 1.0 / 3.0, 1e-17, 2.0], n).tolist()
        ends = np.sort(rng.choice(np.linspace(0.0, 1.0, 9), 2 * int(rng.integers(0, 4)), replace=False))
        values = rng.choice([0.0, 0.5, 0.5, -2.0], ends.size // 2).tolist()
        density = list(zip(ends[::2].tolist(), ends[1::2].tolist(), values))
        rng.shuffle(density)
        cases.append(MeasureData(atoms=tuple(zip(xs, masses)), density=tuple(density)))
    good = MeasureData(atoms=((0.5, 1.0), (0.2, 2.0)), density=((0.0, 0.5, 1.0),))
    for atom in ((math.nan, 1.0), (math.inf, 1.0), (0.3, math.nan), (0.3, -math.inf), (1.0, 1.0),
                 (-0.1, 1.0), (2.0, math.nan), (0.3, -1.0)):
        cases.append(dataclasses.replace(good, atoms=good.atoms + (atom, (math.nan, 1.0))))
    for piece in ((math.nan, 0.9, 1.0), (0.6, 0.9, math.inf), (0.7, 0.6, 1.0), (0.6, 0.6, 1.0),
                  (-0.1, 0.2, 1.0), (0.6, 1.5, 1.0), (0.6, math.inf, 1.0), (0.4, 0.7, 1.0),
                  (0.6, 0.9, -1.0), (0.5, 0.9, 1.0)):
        cases.append(dataclasses.replace(good, density=(piece,) + good.density + ((0.9, 0.95, math.nan),)))
    cases.append(MeasureData(density=((0.6, 0.8, 1.0), (0.1, 0.3, 1.0), (0.2, 0.4, 1.0), (0.5, 0.7, 1.0))))
    messages = []
    for data in cases:
        for nonneg in (False, True):
            want = _normalized_or_error(_normalize_by_loop, data, 1.0, nonneg)
            assert _normalized_or_error(coefficients._normalize_measure, data, 1.0, nonneg) == want, data
            if isinstance(want, tuple):
                messages.append(want[1])
    for phrase in ("position must be finite", "mass must be finite", "outside [0, 1.0)",
                   "finite endpoint/value", "empty or reversed", "outside [0, 1.0]", "overlap",
                   "non-negative measure"):
        assert any(phrase in message for message in messages), phrase


def test_values_at_origin_are_zero():
    for spec in (ATOM2, UPS3, catalog.mixed_example()):
        assert _coefficients(spec, 0.0) == (0.0, 0.0, 0.0)


def test_atom_at_origin_coefficients():
    w, ups, sigma = _coefficients(ATOM2, 0.5)
    assert w == 2.0
    assert ups == 0.0
    assert sigma == pytest.approx(2.5, abs=1e-14)


def test_upsilon_atom_coefficients():
    w, ups, sigma = _coefficients(UPS3, 0.5)
    assert w == 0.0
    assert ups == 3.0
    assert sigma == pytest.approx(3.5, abs=1e-14)


def test_generalized_inverse_of_linear_travel():
    # sigma(x) = 5x for the atom-at-origin string
    assert coefficient_view(ATOM2).xi(2.0) == pytest.approx(0.4, abs=1e-13)
    assert coefficient_view(ATOM2).xi(7.0) == 1.0


def test_generalized_inverse_at_jump():
    # sigma jumps from 0 to 3 at the origin, so small s map to 0
    assert coefficient_view(UPS3).xi(2.0) == 0.0


def test_generalized_inverse_empty_string():
    for s in (0.0, 0.3, 0.999, 1.0, 2.5):
        assert coefficient_view(EMPTY1).xi(s) == pytest.approx(min(s, 1.0), abs=1e-14)


def test_travel_coords_bundle():
    tc = travel_coords(catalog.uniform_string())
    # w(x) = x, so sigma(1) = 1 + 1/3
    assert tc.sigma_L == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert tc.xi(tc.sigma(0.5)) == pytest.approx(0.5, abs=1e-12)


def test_json_roundtrip_finite_and_infinite():
    for spec in (catalog.mixed_example(), catalog.uniform_halfline()):
        doc = spec_to_json(spec)
        text = json.dumps(doc)
        again = spec_from_json(json.loads(text))
        assert again == spec
    assert spec_to_json(catalog.uniform_halfline())["L"] == "inf"


EDGE_SPECS = (
    # omega and upsilon breakpoints coincide at 0.5, 1.0 and 1.5; atoms sit on
    # density endpoints (omega at 0.5, upsilon at 1.5 and 2.0).
    validate_spec({
        "L": 3.0,
        "omega": {"atoms": [{"x": 0.0, "mass": -1.0}, {"x": 0.5, "mass": 0.5}, {"x": 1.0, "mass": 0.25}],
                  "density": [{"a": 0.5, "b": 1.5, "value": 2.0}, {"a": 1.5, "b": 2.5, "value": -1.0}]},
        "upsilon": {"atoms": [{"x": 1.0, "mass": 0.2}, {"x": 1.5, "mass": 0.3}, {"x": 2.0, "mass": 0.1}],
                    "density": [{"a": 0.5, "b": 2.0, "value": 0.75}]},
    }),
    # half-line whose densities run on to infinity
    validate_spec({
        "L": "inf",
        "omega": {"atoms": [{"x": 0.25, "mass": 1.0}], "density": [{"a": 1.0, "b": "inf", "value": 0.5}]},
        "upsilon": {"atoms": [{"x": 2.0, "mass": 0.5}],
                    "density": [{"a": 0.0, "b": 2.0, "value": 1.0}, {"a": 2.0, "b": "inf", "value": 3.0}]},
    }),
)


def _brute_distribution(measure, x, *, closed=False):
    """measure([0, x)), or measure([0, x]) when ``closed``, summed from the raw data."""
    total = sum(m for p, m in measure.atoms if p < x or (closed and p == x))
    return total + sum(v * (min(b, x) - a) for a, b, v in measure.density if a < x)


def _brute_sigma(spec, x, *, closed=False):
    """x + int_0^x w^2 + Upsilon, with w^2 integrated by Simpson per affine piece of w."""
    ends = {p for p, _ in spec.omega.atoms} | {e for a, b, _ in spec.omega.density for e in (a, b)}
    cuts = sorted({0.0, x} | {e for e in ends if e < x})
    wsq = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        left = _brute_distribution(spec.omega, lo, closed=True)
        mid = _brute_distribution(spec.omega, 0.5 * (lo + hi))
        right = _brute_distribution(spec.omega, hi)
        wsq += (hi - lo) * (left ** 2 + 4.0 * mid ** 2 + right ** 2) / 6.0
    return x + wsq + _brute_distribution(spec.upsilon, x, closed=closed)


def _check_view_by_brute_force(spec, view, xs):
    def close(got, want):
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (spec, got, want)

    for j, p in enumerate(float(b) for b in view.bp):
        # right limits at the breakpoint include the point masses sitting there
        close(view.w_right[j], _brute_distribution(spec.omega, p, closed=True))
        close(view.ups_right[j], _brute_distribution(spec.upsilon, p, closed=True))
        close(view.sigma_right[j], _brute_sigma(spec, p, closed=True))
        xs = [*xs, p, p - 1e-7, p + 1e-7]
    for x in xs:
        if not 0.0 <= x <= spec.length:
            continue
        close(view.w(x), _brute_distribution(spec.omega, x))
        close(view.upsilon(x), _brute_distribution(spec.upsilon, x))
        close(view.sigma(x), _brute_sigma(spec, x))
        assert abs(view.xi(view.sigma(x)) - x) <= 1e-10


def test_inverse_undoes_travel_map_on_random_specs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        spec = catalog.random_atomic_omega_string(rng)
        view = coefficient_view(spec)
        xs = [float(x) for x in rng.uniform(0.0, spec.length, size=8)]
        _check_view_by_brute_force(spec, view, xs)
    for spec in EDGE_SPECS:
        _check_view_by_brute_force(spec, coefficient_view(spec), [0.1, 0.75, 1.25, 2.75, 7.5])


def test_view_running_sums_match_the_sequential_loop():
    # The view builds its running sums with array operations; they must round
    # exactly like the per-breakpoint recurrence.
    rng = np.random.default_rng(6)
    specs = list(EDGE_SPECS)
    for _ in range(5):
        cuts = np.sort(rng.uniform(0.0, 2.0, size=40))
        pieces = list(zip(cuts[:-1:2], cuts[1::2], rng.normal(size=20)))
        atoms = [{"x": x, "mass": m} for x, m in zip(rng.uniform(0.0, 2.0, 10), rng.normal(size=10))]
        specs.append(validate_spec({
            "L": 2.0,
            "omega": {"atoms": atoms, "density": [{"a": a, "b": b, "value": v} for a, b, v in pieces]},
            "upsilon": {"density": [{"a": a, "b": b, "value": abs(v)} for a, b, v in pieces[::3]]},
        }))
    # One piece each: int w^2 is then the cube term alone, so its rounding shows.
    specs += [catalog.uniform_string(float(h)) for h in rng.uniform(0.1, 2.0, size=100)]
    for spec in specs:
        view = coefficient_view(spec)
        n = len(view.bp)
        w, ups, i1, i2 = (np.zeros(n) for _ in range(4))
        for i in range(n - 1):
            h = view.bp[i + 1] - view.bp[i]
            wr = w[i] + view.atom_omega[i]
            a = view.dens_omega[i]
            w[i + 1] = wr + a * h
            ups[i + 1] = ups[i] + view.atom_upsilon[i] + view.dens_upsilon[i] * h
            i1[i + 1] = i1[i] + h * wr + a * h * h / 2.0
            i2[i + 1] = i2[i] + h * wr * wr + wr * a * h * h + a * a * h ** 3 / 3.0
        assert np.array_equal(view.w_left, w) and np.array_equal(view.ups_left, ups)
        assert np.array_equal(view.i1, i1) and np.array_equal(view.i2, i2)
        assert np.array_equal(view.sigma_right, view.bp + i2 + (ups + view.atom_upsilon))


def test_inverse_is_monotone_and_contractive():
    rng = np.random.default_rng(4)
    for _ in range(10):
        spec = catalog.random_atomic_omega_string(rng)
        view = coefficient_view(spec)
        ss = np.sort(rng.uniform(0.0, view.sigma_length * 1.2, size=12))
        vals = [view.xi(float(s)) for s in ss]
        for (s0, v0), (s1, v1) in zip(zip(ss, vals), zip(ss[1:], vals[1:])):
            assert v1 - v0 >= -1e-13
            assert v1 - v0 <= (s1 - s0) + 1e-12


def test_travel_map_grows_at_least_linearly():
    rng = np.random.default_rng(5)
    spec = catalog.mixed_example()
    view = coefficient_view(spec)
    xs = np.sort(rng.uniform(0.0, 2.0, size=16))
    sig = [view.sigma(float(x)) for x in xs]
    for (x0, s0), (x1, s1) in zip(zip(xs, sig), zip(xs[1:], sig[1:])):
        assert s1 - s0 >= (x1 - x0) - 1e-14


def _gauss_integral(fun, lo, hi, order=48):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return half * float(np.sum(weights * np.array([fun(mid + half * t) for t in nodes])))


def test_change_of_variables_identity():
    # integral_0^{sigma(x)} F(xi(t)) dt = integral_0^x F (1 + w^2) dx + sum F d(upsilon)
    # checked for F = 1 and F = t
    spec = catalog.mixed_example()
    view = coefficient_view(spec)
    x_top = 1.75
    s_top = view.sigma(x_top)

    # smooth segments of xi: cut at the images of breakpoints and at jumps
    cut = {0.0, s_top}
    for b in view.bp:
        bf = float(b)
        if 0.0 < bf < x_top:
            lo = view.sigma(bf)
            cut.add(lo)
            cut.add(lo + dict(spec.upsilon.atoms).get(bf, 0.0))
    cuts = sorted(c for c in cut if c <= s_top)

    for F in (lambda t: 1.0, lambda t: t):
        lhs = sum(
            _gauss_integral(lambda s: F(view.xi(s)), lo, hi)
            for lo, hi in zip(cuts, cuts[1:])
            if hi - lo > 1e-14
        )
        # split at breakpoints so the polynomial quadrature is exact per piece
        rhs = 0.0
        xcuts = sorted({0.0, x_top} | {float(b) for b in view.bp if 0.0 < float(b) < x_top})
        for lo, hi in zip(xcuts, xcuts[1:]):
            rhs += _gauss_integral(lambda t: F(t) * (1.0 + view.w(t) ** 2), lo, hi, order=8)
        for p, mass in spec.upsilon.atoms:
            if p < x_top:
                rhs += F(p) * mass
        for a, b, value in spec.upsilon.density:
            hi = min(b, x_top)
            if hi > a:
                rhs += value * _gauss_integral(F, a, hi, order=8)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def _sigma_integral_loop(view, x: float) -> float:
    """int_0^x sigma as a sum over pieces, each by two-point Gauss on the
    scalar sigma (exact on cubics)."""
    nodes = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))
    total = 0.0
    for lo, hi in zip(view.bp, [*view.bp[1:], math.inf]):
        if lo >= x:
            break
        h = min(hi, x) - lo
        total += h * sum(view.sigma(float(lo + t * h)) for t in nodes) / 2.0
    return total


def test_primitives_take_arrays_and_match_closed_forms():
    view = coefficient_view(catalog.uniform_string())  # w(x) = x, sigma(x) = x + x^3/3
    xs = np.linspace(0.0, 1.0, 257)
    assert np.allclose(view.w_integral(xs), xs ** 2 / 2.0, rtol=0.0, atol=2e-16)
    assert np.allclose(view.sigma_integral(xs), xs ** 2 / 2.0 + xs ** 4 / 12.0, rtol=0.0, atol=4e-16)
    assert view.sigma_integral(xs[:, None]).shape == (257, 1)
    assert type(view.w_integral(0.5)) is float and type(view.sigma_integral(0.5)) is float
    with pytest.raises(PositionOutOfRange):
        view.sigma_integral(np.array([0.5, 1.5]))
    with pytest.raises(PositionOutOfRange):
        view.w_integral(np.array([math.nan]))

    view = coefficient_view(catalog.mixed_example())
    xs = np.concatenate([view.bp, np.linspace(0.0, 2.0, 41), view.bp[1:] - 1e-9])
    w_arr, sigma_arr = view.w_integral(xs), view.sigma_integral(xs)
    for x, w_int, sigma_int in zip(xs.tolist(), w_arr, sigma_arr):
        assert w_int == view.w_integral(x)
        assert sigma_int == view.sigma_integral(x)
        assert abs(sigma_int - _sigma_integral_loop(view, x)) <= 4e-16 * max(1.0, sigma_int), x


CATALOG_SPECS = (
    catalog.empty_string(), catalog.empty_halfline(), catalog.uniform_string(),
    catalog.negative_uniform_string(), catalog.uniform_halfline(),
    catalog.upsilon_lebesgue_halfline(), ATOM2, UPS3, catalog.omega_atom_middle(),
    catalog.upsilon_atom_middle(), catalog.mixed_example(),
)


def _density_string(rng, scale, *, halfline=False):
    """A seeded string whose omega and upsilon densities reach |scale|, with
    omega atoms and upsilon atoms (flats of xi), one of them at 0."""
    cuts = np.sort(rng.uniform(0.0, 1.0, 24))
    pieces = list(zip(cuts[0::2].tolist(), cuts[1::2].tolist()))
    omega = [{"a": a, "b": b, "value": v} for (a, b), v in zip(pieces, rng.uniform(-scale, scale, 12))]
    upsilon = [{"a": a, "b": b, "value": v} for (a, b), v in zip(pieces[::2], rng.uniform(0.0, scale, 6))]
    if halfline:
        omega.append({"a": 1.0, "b": "inf", "value": float(rng.uniform(-scale, scale))})
        upsilon.append({"a": 1.0, "b": "inf", "value": float(rng.uniform(0.0, scale))})
    return validate_spec({
        "L": "inf" if halfline else 1.0,
        "omega": {"atoms": [{"x": x, "mass": m} for x, m in zip(rng.uniform(0.0, 1.0, 6), rng.normal(size=6))],
                  "density": omega},
        "upsilon": {"atoms": [{"x": x, "mass": m} for x, m in zip([0.0, *rng.uniform(0.0, 1.0, 2)],
                                                                   rng.uniform(0.1, 1.0, 3))],
                    "density": upsilon},
    })


def _query_specs():
    rng = np.random.default_rng(25)
    seeded = [_density_string(rng, scale, halfline=halfline)
              for scale in (1.0, 30.0, 1e3) for halfline in (False, True) for _ in range(3)]
    return [*CATALOG_SPECS, *EDGE_SPECS, *seeded]


def test_point_queries_take_arrays_with_the_values_of_scalar_calls():
    rng = np.random.default_rng(8)
    for spec in _query_specs():
        view = coefficient_view(spec)
        top = min(spec.length, float(view.bp[-1]) + 2.0)
        xs = np.concatenate([view.bp, view.bp + 1e-9, view.bp - 1e-9, rng.uniform(0.0, top, 64)])
        xs = xs[(xs >= 0.0) & (xs <= top)]
        scalar = {name: np.array([getattr(view, name)(x) for x in xs.tolist()])
                  for name in ("w", "upsilon", "sigma")}
        assert all(type(getattr(view, name)(0.0)) is float for name in scalar)
        assert np.array_equal(view.w(xs), scalar["w"])
        assert np.array_equal(view.upsilon(xs), scalar["upsilon"])
        assert np.all(np.abs(view.sigma(xs) - scalar["sigma"]) <= 2.0 * np.spacing(scalar["sigma"]))
        assert view.sigma(xs[:, None]).shape == (xs.size, 1)
        # left-continuous at the breakpoints
        assert np.array_equal(view.w(view.bp[view.bp <= top]), view.w_left[view.bp <= top])


def test_xi_inverts_sigma_on_arrays():
    eps = np.finfo(float).eps
    rng = np.random.default_rng(9)
    for spec in _query_specs():
        view = coefficient_view(spec)
        finite = math.isfinite(spec.length)
        top = view.sigma_length if finite else 1e12
        ss = np.concatenate([rng.uniform(0.0, top, 256), np.geomspace(1e-12, top, 64),
                             view.sigma_left, view.sigma_right])
        xs = view.xi(ss)
        assert np.array_equal(xs, [view.xi(s) for s in ss.tolist()])
        assert type(view.xi(0.5)) is float
        # s in sigma's jump at bp[k], [sigma_left[k], sigma_right[k]], maps to
        # bp[k]; for k = 0 these are the s below sigma_right[0]
        k = np.searchsorted(view.sigma_left, ss, side="right") - 1
        jump = ss <= view.sigma_right[k]
        assert np.array_equal(xs[jump], view.bp[k[jump]])
        if finite:
            assert np.all(xs[ss >= view.sigma_length] == spec.length)
        inside = ~jump & (ss < view.sigma_length)
        s, x = ss[inside], xs[inside]
        j = np.maximum(np.searchsorted(view.bp, x, side="right") - 1, 0)
        slope = 1.0 + np.maximum(view.w(x) ** 2, view.w_right[j] ** 2) + view.dens_upsilon[j]
        assert np.all(np.abs(view.sigma(x) - s) <= 4.0 * eps * (s + slope * x)), spec
        assert np.all(np.diff(view.xi(np.sort(ss))) >= 0.0)
    x = coefficient_view(catalog.uniform_halfline()).xi(1e12)  # sigma(x) = x + x^3/3
    assert x + x ** 3 / 3.0 == pytest.approx(1e12, rel=4.0 * eps)
    assert np.array_equal(coefficient_view(UPS3).xi(np.array([0.0, 1.0, 2.999])), [0.0, 0.0, 0.0])


def test_queries_name_a_bad_entry_of_an_array():
    view = coefficient_view(catalog.mixed_example())
    for query in (view.w, view.upsilon, view.sigma):
        with pytest.raises(PositionOutOfRange, match="position -0.25 "):
            query(np.array([0.5, -0.25, 1.0]))
        with pytest.raises(PositionOutOfRange, match="position nan "):
            query(np.array([[0.5, 1.0], [math.nan, 0.0]]))
        with pytest.raises(PositionOutOfRange, match="position 2.5 "):
            query(np.array([0.5, 2.5]))
    with pytest.raises(PositionOutOfRange, match="coordinate -1.0 "):
        view.xi(np.array([0.0, 3.0, -1.0]))
    with pytest.raises(PositionOutOfRange, match="coordinate nan "):
        view.xi(np.array([math.nan, 1.0]))


def test_travel_coords_take_arrays():
    spec = catalog.mixed_example()
    tc, view = travel_coords(spec), coefficient_view(spec)
    xs = np.linspace(0.0, spec.length, 41)
    assert np.array_equal(tc.sigma(xs), view.sigma(xs))
    assert np.allclose(tc.xi(tc.sigma(xs)), xs, rtol=0.0, atol=1e-14)
    assert tc.xi(np.array([tc.sigma_L, 2.0 * tc.sigma_L])).tolist() == [spec.length] * 2


def test_distinct_has_the_bits_of_np_unique():
    rng = np.random.default_rng(10)
    cases = [(rng.integers(0, 8, 40).astype(float),), (np.array([0.0, -0.0, 1.0, -0.0]),),
             (np.array([-0.0, 1.0, 0.0]),), (rng.integers(0, 30, 50),),
             (rng.integers(0, 5, 9).astype(float), np.array([2.0, -0.0, 7.5]))]
    for parts in cases:
        want = np.unique(np.concatenate(parts))
        got = coefficients._distinct(*parts)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_discrepancy_zero_on_identical_specs():
    parts = spec_discrepancy(catalog.mixed_example(), catalog.mixed_example())
    assert parts["overall"] == 0.0


def test_discrepancy_detects_shifted_atom():
    a = catalog.omega_atom_middle()
    b = StringSpec(length=1.0,
                   omega=MeasureData(atoms=((0.5 + 1e-6, 1.0),)),
                   upsilon=MeasureData())
    parts = spec_discrepancy(a, b)
    # Past the atoms int w differs by the shift times the unit mass.
    assert parts["w_primitive"] == pytest.approx(1e-6, rel=1e-6)
    assert parts["overall"] >= 1e-6 / 2


def test_discrepancy_detects_structure_mismatch():
    # int_0^1 w = 1/2 against 0; int_0^1 sigma differs by int_(1/2)^1 (x - 1/2) = 1/8.
    parts = spec_discrepancy(catalog.omega_atom_middle(), catalog.empty_string())
    assert parts["w_primitive"] == 0.5 and parts["sigma_primitive"] == 0.125
    assert parts["overall"] == 0.5


def _halfline(omega_atoms=(), omega_density=(), upsilon_atoms=()):
    return StringSpec(length=math.inf, omega=MeasureData(atoms=omega_atoms, density=omega_density),
                      upsilon=MeasureData(atoms=upsilon_atoms))


_TAIL_PARTS = ("tail_w", "tail_sigma", "tail_omega_density", "tail_upsilon_density")


def test_discrepancy_of_two_halflines_is_a_sup_over_the_whole_line():
    # Past the later last breakpoint x1 both strings are fixed by their
    # primitives at x1, w(x1+), sigma(x1+) and their two densities, so these
    # differences are the parts, all finite.
    parts = spec_discrepancy(catalog.uniform_halfline(), catalog.empty_halfline())
    assert parts == {"length": 0.0, "w_primitive": 0.0, "sigma_primitive": 0.0, "tail_w": 0.0,
                     "tail_sigma": 0.0, "tail_omega_density": 1.0, "tail_upsilon_density": 0.0,
                     "overall": 1.0}
    parts = spec_discrepancy(_halfline(((0.5, 1.0),)), catalog.empty_halfline())
    assert parts["tail_w"] == parts["overall"] == 1.0
    # w = +1 against -1 past 0.3: int w parts only past x1, where w(x1+) differs by 2;
    # sigma = x + int w^2 agrees.
    parts = spec_discrepancy(_halfline(((0.3, 1.0),)), _halfline(((0.3, -1.0),)))
    assert parts["tail_w"] == parts["overall"] == 2.0
    assert parts["w_primitive"] == parts["sigma_primitive"] == parts["tail_sigma"] == 0.0
    # A upsilon atom at x1 moves only sigma(x1+).
    parts = spec_discrepancy(_halfline(((0.3, 1.0),)), _halfline(((0.3, 1.0),), upsilon_atoms=((0.3, 0.25),)))
    assert parts["tail_sigma"] == pytest.approx(0.25, rel=1e-14)
    assert parts["overall"] == parts["tail_sigma"]
    assert parts["w_primitive"] == parts["sigma_primitive"] == parts["tail_w"] == 0.0
    # Atoms of +-1/2 at 0.2 and 0.4 on the uniform half-line: past 0.4 w agrees,
    # so int w differs by 1/2 * 0.2 from there on, while sigma(0.4) differs by
    # int_0.2^0.4 ((t + 1/2)^2 - t^2) dt = 0.11.
    dens = ((0.0, math.inf, 1.0),)
    atoms = _halfline(((0.2, 0.5), (0.4, -0.5)), dens)
    parts = spec_discrepancy(catalog.uniform_halfline(), atoms)
    assert parts["w_primitive"] == pytest.approx(0.1, rel=1e-14)
    assert parts["tail_sigma"] == pytest.approx(0.11, rel=1e-14)
    assert parts["tail_w"] <= 1e-15 and parts["tail_omega_density"] == 0.0
    # Equal strings agree everywhere.
    for spec in (catalog.upsilon_lebesgue_halfline(), atoms):
        assert spec_discrepancy(spec, spec)["overall"] == 0.0


def test_tail_parts_are_zero_when_either_string_is_finite():
    for a, b in ((catalog.uniform_string(), catalog.uniform_halfline()),
                 (catalog.empty_halfline(), catalog.omega_atom_middle()),
                 (catalog.mixed_example(), catalog.uniform_string())):
        parts = spec_discrepancy(a, b)
        assert all(parts[key] == 0.0 for key in _TAIL_PARTS), parts
        assert parts["overall"] > 0.0


def _atomic_halfline(seed: int, upsilon0: float) -> StringSpec:
    """perfbench's atomic_halfline(default_rng(seed), 12, upsilon0): twelve
    positive omega atoms of total 7.2, one in each sixth of [0, 2), a free
    tail, and a upsilon atom upsilon0 at 0."""
    rng = np.random.default_rng(seed)
    xs = 0.0 + (2.0 / 12) * (np.arange(12) + rng.uniform(0.1, 0.9, 12))
    masses = rng.uniform(0.5, 1.5, 12)
    masses = masses * (0.6 * 12 / masses.sum())
    return StringSpec(length=math.inf, omega=MeasureData(atoms=tuple(zip(xs.tolist(), masses.tolist()))),
                      upsilon=MeasureData(atoms=((0.0, upsilon0),)))


@pytest.mark.parametrize("upsilon0", [0.0, 0.5])
@pytest.mark.parametrize("seed", range(6))
def test_atomic_halfline_roundtrips_read_rounding(seed, upsilon0):
    # The tail slope comes back as a sum of the emitted jumps, a few ulps
    # off; that moves w(x1+) and sigma(x1+) by rounding, not to inf.
    spec = _atomic_halfline(seed, upsilon0)
    parts = spec_discrepancy(spec, hamiltonian_to_string(string_to_hamiltonian(spec)))
    assert all(math.isfinite(v) for v in parts.values()), parts
    assert parts["overall"] <= 1e-12, parts


def test_atomic_roundtrips_keep_the_primitives_to_rounding():
    eps = np.finfo(float).eps
    for name, spec in catalog.REGRESSION_SPECS:
        if not spec.omega.is_atomic():
            continue
        parts = spec_discrepancy(spec, hamiltonian_to_string(string_to_hamiltonian(spec)))
        view = coefficient_view(spec)
        end = min(spec.length, max(10.0, float(view.bp[-1]) + 1.0))
        scale = max(1.0, view.sigma_integral(end))
        assert parts["length"] <= 2.0 * eps * spec.length, name
        assert parts["w_primitive"] <= 8.0 * eps * scale, (name, parts)
        assert parts["sigma_primitive"] <= 8.0 * eps * scale, (name, parts)


def test_meshed_density_roundtrips_at_second_order():
    # The mesh keeps int w at every cell edge, so the primitives differ only
    # inside the cells, by the square of their width.
    spec = catalog.uniform_string()
    parts = [spec_discrepancy(spec, hamiltonian_to_string(string_to_hamiltonian(spec, mesh=mesh)))
             for mesh in (64, 256, 1024)]
    for key in ("w_primitive", "sigma_primitive", "overall"):
        values = [p[key] for p in parts]
        assert values[0] / values[1] >= 12.0 and values[1] / values[2] >= 12.0, (key, values)
    assert parts[1]["overall"] <= 5e-6 and parts[2]["overall"] <= 3e-7
