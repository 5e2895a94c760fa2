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
            cut.add(lo + spec.upsilon.atom_at(bf))
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
