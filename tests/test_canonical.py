"""Tests for the string <-> Hamiltonian transforms and the canonical Weyl function."""

import json
import math
import time

import numpy as np
import pytest

from indefstring import canonical, catalog
from indefstring.canonical import (
    Hamiltonian,
    HamiltonianPiece,
    canonical_m_grid,
    hamiltonian_from_json,
    hamiltonian_to_json,
    hamiltonian_to_string,
    indivisible_prefix,
    string_to_hamiltonian,
    validate_hamiltonian,
)
from indefstring.coefficients import MeasureData, StringSpec, spec_discrepancy
from indefstring.errors import (
    DegenerateHamiltonian,
    NonPositiveLength,
    UnsupportedShape,
    ValidationError,
)
from indefstring.propagation import fundamental_system
from indefstring.weyl import standard_grid

import oracle

HALF = Hamiltonian(pieces=(HamiltonianPiece(length=math.inf, h11=0.5, h12=0.0),))
FREE = Hamiltonian(pieces=(HamiltonianPiece(length=math.inf, h11=0.0, h12=0.0),))
# A half-line with one omega point mass alpha = 1 at a = 0.5 and w = 1 beyond it.
FREE_TAIL_SPEC = StringSpec(length=math.inf, omega=MeasureData(atoms=((0.5, 1.0),)))
ORACLE_ZS = (1.3 + 0.7j, -2.0 + 1.0j, 0.5 + 2.0j, 0.4 - 1.1j)


def _pieces(ham):
    return [(p.length, p.h11, p.h12) for p in ham.pieces]


def test_empty_string_transform():
    ham = string_to_hamiltonian(catalog.empty_string())
    assert _pieces(ham) == [(1.0, 0.0, 0.0), (math.inf, 1.0, 0.0)]


def test_atom_at_origin_transform():
    ham = string_to_hamiltonian(catalog.omega_atom_origin())
    assert len(ham.pieces) == 2
    piece = ham.pieces[0]
    assert piece.length == pytest.approx(5.0, abs=1e-14)
    assert piece.h11 == pytest.approx(0.8, abs=1e-14)
    assert piece.h12 == pytest.approx(0.4, abs=1e-14)
    assert ham.pieces[1].is_blocked() and ham.pieces[1].length == math.inf


def test_upsilon_atom_transform_opens_blocked_prefix():
    ham = string_to_hamiltonian(catalog.upsilon_atom_origin())
    shapes = _pieces(ham)
    assert shapes[0] == (3.0, 1.0, 0.0)
    assert shapes[1] == (1.0, 0.0, 0.0)
    assert shapes[2] == (math.inf, 1.0, 0.0)


def test_mesh_recorded_only_when_used():
    assert string_to_hamiltonian(catalog.omega_atom_origin()).mesh is None
    assert string_to_hamiltonian(catalog.uniform_string(), mesh=128).mesh == 128


@pytest.mark.parametrize("mesh", [0, -3, 2.5, True, None, "4"])
@pytest.mark.parametrize("spec", [catalog.uniform_string(), catalog.omega_atom_origin()])
def test_mesh_must_be_a_positive_integer(spec, mesh):
    with pytest.raises(ValidationError, match="mesh must be an integer >= 1"):
        string_to_hamiltonian(spec, mesh=mesh)
    if mesh is None:  # a Hamiltonian without mesh has exact pieces
        return
    pieces = string_to_hamiltonian(spec, mesh=4).pieces
    with pytest.raises(ValidationError, match="mesh must be an integer >= 1"):
        Hamiltonian(pieces, mesh=mesh)
    doc = {"pieces": hamiltonian_to_json(Hamiltonian(pieces))["pieces"], "mesh": mesh}
    with pytest.raises(ValidationError, match="mesh must be an integer >= 1"):
        hamiltonian_from_json(doc)


def test_mesh_accepts_numpy_integers():
    ham = string_to_hamiltonian(catalog.uniform_string(), mesh=np.int64(8))
    assert ham == string_to_hamiltonian(catalog.uniform_string(), mesh=8)
    assert type(ham.mesh) is int
    for built in (Hamiltonian(ham.pieces, mesh=np.int64(8)),
                  hamiltonian_from_json({"pieces": hamiltonian_to_json(ham)["pieces"], "mesh": np.int64(8)})):
        assert built == ham and type(built.mesh) is int


def test_unbounded_omega_density_unsupported():
    with pytest.raises(UnsupportedShape):
        string_to_hamiltonian(catalog.uniform_halfline())


def test_inverse_constant_half_hamiltonian():
    spec = hamiltonian_to_string(HALF)
    assert spec.length == math.inf
    assert spec.omega.is_zero()
    assert spec.upsilon.atoms == ()
    assert spec.upsilon.density == ((0.0, math.inf, 1.0),)


def test_inverse_free_hamiltonian():
    spec = hamiltonian_to_string(FREE)
    assert spec.length == math.inf
    assert spec.omega.is_zero() and spec.upsilon.is_zero()


def test_inverse_atomic_hamiltonian():
    ham = validate_hamiltonian([(5.0, 0.8, 0.4), (math.inf, 1.0, 0.0)])
    spec = hamiltonian_to_string(ham)
    assert spec.length == pytest.approx(1.0, abs=1e-14)
    assert spec.upsilon.is_zero()
    assert spec.omega.atoms == ((0.0, pytest.approx(2.0, abs=1e-14)),)


def test_roundtrip_on_regression_specs():
    for name, spec in catalog.CANONICAL_SPECS:
        back = hamiltonian_to_string(string_to_hamiltonian(spec))
        parts = spec_discrepancy(spec, back)
        if spec.omega.is_atomic():
            assert parts["overall"] < 1e-9, name
        else:
            # a density cannot return through a piecewise-constant Hamiltonian;
            # only the meshed primitive survives
            assert parts["length"] < 1e-12, name


def test_indivisible_prefix_values():
    assert indivisible_prefix(HALF) == 0.0
    assert indivisible_prefix(string_to_hamiltonian(catalog.upsilon_atom_origin())) == 3.0
    direct = validate_hamiltonian([(7.0, 1.0, 0.0), (math.inf, 0.0, 0.0)])
    assert indivisible_prefix(direct) == 7.0


def test_prefix_equals_upsilon_mass_at_origin():
    for name, spec in catalog.CANONICAL_SPECS:
        ham = string_to_hamiltonian(spec)
        assert indivisible_prefix(ham) == pytest.approx(
            spec.upsilon.atom_at(0.0), abs=1e-12), name


def test_canonical_m_free():
    m = canonical_m_grid(FREE, 1j)
    assert m.shape == ()
    assert m == pytest.approx(0.0, abs=1e-9)


def test_canonical_m_constant_half():
    zs = np.array([[1j, 2.0 + 0.5j], [-1.0 + 0.3j, 0.2 - 4.0j]])
    m = canonical_m_grid(HALF, zs)
    assert m.shape == zs.shape
    assert m == pytest.approx(1j * np.sign(zs.imag), abs=1e-8)


def test_canonical_m_matches_atomic_string():
    ham = string_to_hamiltonian(catalog.omega_atom_origin())
    assert canonical_m_grid(ham, 1j) == pytest.approx(2.0 + 1j, abs=1e-12)
    ham3 = string_to_hamiltonian(catalog.upsilon_atom_origin())
    assert canonical_m_grid(ham3, [1j]) == pytest.approx([4.0j], abs=1e-12)


def _oracle_hamiltonians():
    rng = np.random.default_rng(11)
    hams = [(name, string_to_hamiltonian(spec)) for name, spec in catalog.CANONICAL_SPECS]
    hams += [(f"discrete-{k}", string_to_hamiltonian(catalog.random_discrete_string(rng)))
             for k in range(4)]
    hams += [(f"atomic-omega-{k}", string_to_hamiltonian(catalog.random_atomic_omega_string(rng)))
             for k in range(2)]
    hams += [("half", HALF), ("free", FREE), ("free-tail", string_to_hamiltonian(FREE_TAIL_SPEC))]
    return hams


def test_canonical_m_grid_matches_oracle():
    for name, ham in _oracle_hamiltonians():
        got = canonical_m_grid(ham, ORACLE_ZS)
        for z, m in zip(ORACLE_ZS, got):
            want = oracle.canonical_weyl_m(ham, z)
            assert abs(m - want) <= 1e-9 * max(1.0, abs(want)), (name, z, m, want)


def _travel_samples(ham):
    """Travel coordinates s with x = xi(s) and the start s0 of the blocked run
    holding s (s0 = s off blocked pieces): 0, the middle and the end of every
    finite piece, and two points on the infinite last piece.  x is accumulated
    as hamiltonian_to_string does, so it hits the string's breakpoints exactly."""
    out = [(0.0, 0.0, 0.0)]
    begin, x = 0.0, 0.0
    for p in ham.pieces:
        ends = (0.5, 2.0) if math.isinf(p.length) else (0.5 * p.length, p.length)
        for ds in ends:
            if p.is_blocked():
                out.append((begin + ds, x, begin))
            else:
                out.append((begin + ds, x + p.h22 * ds, begin + ds))
        begin += p.length
        x += p.h22 * p.length
    return out


def test_travel_gauge_matches_oracle_propagator():
    rng = np.random.default_rng(5)
    hams = [string_to_hamiltonian(spec, mesh=64) for _, spec in catalog.CANONICAL_SPECS]
    hams += [string_to_hamiltonian(catalog.random_discrete_string(rng)) for _ in range(4)]
    in_blocked = past_end = 0
    for ham in hams:
        spec = hamiltonian_to_string(ham)
        samples = _travel_samples(ham)
        in_blocked += sum(s > s0 and x < spec.length for s, x, s0 in samples)
        past_end += sum(s > s0 and x == spec.length for s, x, s0 in samples)
        for z in ORACLE_ZS[:3]:
            want = oracle.canonical_propagators(ham, z, [s for s, _, _ in samples])
            fs = fundamental_system(spec, z, [x for _, x, _ in samples])
            for (s, _, s0), th, ph in zip(samples, fs.theta, fs.phi):
                gauge = np.array([[th.f, -z * ph.f], [-th.quasi / z, ph.quasi]])
                gauge[1] += z * (s - s0) * gauge[0]
                u = np.array(want[s].tolist(), dtype=complex)
                assert np.max(np.abs(gauge - u)) <= 1e-12 * max(1.0, np.max(np.abs(u))), (s, z)
    assert in_blocked >= 10 and past_end >= 10


def test_canonical_m_grid_returns_on_a_grid_of_mixed_magnitudes():
    ham = string_to_hamiltonian(catalog.upsilon_lebesgue_halfline())
    for zs in ([1e-6j, 100.0 + 1j], [0.01 + 0.01j, 3000.0 + 1j]):
        start = time.perf_counter()
        got = canonical_m_grid(ham, zs)
        elapsed = time.perf_counter() - start
        assert got == pytest.approx([1j, 1j], abs=1e-9)
        assert elapsed < 2.0, (zs, elapsed)


def test_canonical_m_grid_on_a_free_tail():
    alpha, a = 1.0, 0.5
    zs = np.array([1.0 + 1j, -3.0 + 0.2j])
    got = canonical_m_grid(string_to_hamiltonian(FREE_TAIL_SPEC), zs)
    want = alpha / (1.0 - zs * alpha * a)
    assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))
    assert want[1] == pytest.approx(0.39936 + 0.01597j, abs=1e-5)


def test_validate_rejects_finite_tail():
    with pytest.raises(ValidationError):
        validate_hamiltonian([(1.0, 0.5, 0.0)])


def test_validate_rejects_entry_range():
    with pytest.raises(ValidationError):
        validate_hamiltonian([(1.0, 1.5, 0.0), (math.inf, 0.5, 0.0)])
    with pytest.raises(ValidationError):
        # det = 0.25 - 0.36 < 0
        validate_hamiltonian([(1.0, 0.5, 0.6), (math.inf, 0.5, 0.0)])


def test_validate_rejects_all_blocked():
    with pytest.raises(DegenerateHamiltonian):
        validate_hamiltonian([(math.inf, 1.0, 0.0)])


@pytest.mark.parametrize("pieces, error", [
    ([(1.0, 1.5, 0.0), (math.inf, 0.5, 0.0)], ValidationError),          # h11 > 1
    ([(1.0, 0.5, 0.0)], ValidationError),                                 # no infinite tail
    ([(math.inf, 0.5, 0.0), (1.0, 0.5, 0.0)], ValidationError),          # infinite piece first
    ([(0.0, 0.5, 0.0), (math.inf, 0.5, 0.0)], NonPositiveLength),
    ([(2.0, 1.0, 0.0), (math.inf, 1.0, 0.0)], DegenerateHamiltonian),
])
def test_building_an_invalid_hamiltonian_raises_like_validate_hamiltonian(pieces, error):
    with pytest.raises(error) as direct:
        Hamiltonian(pieces=tuple(HamiltonianPiece(*p) for p in pieces))
    with pytest.raises(error) as parsed:
        validate_hamiltonian(pieces)
    assert type(direct.value) is type(parsed.value)


def test_built_hamiltonian_is_fused_and_rebuilding_is_a_no_op():
    ham = Hamiltonian(pieces=[(1.0, 0.5, 0.25), {"len": 2.0, "h11": 0.5, "h12": 0.25},
                              HamiltonianPiece(1.0, 1.0, 0.0), ("inf", 1.0, 0.0)], mesh=8)
    assert _pieces(ham) == [(3.0, 0.5, 0.25), (math.inf, 1.0, 0.0)]
    assert ham == validate_hamiltonian(hamiltonian_to_json(ham))
    assert Hamiltonian(ham.pieces, ham.mesh) == ham
    for _, spec in catalog.CANONICAL_SPECS:
        built = string_to_hamiltonian(spec)
        assert Hamiltonian(built.pieces, built.mesh) == built


def test_canonical_evaluators_do_not_recheck_a_built_hamiltonian(monkeypatch):
    ham = string_to_hamiltonian(catalog.mixed_example())
    calls = []
    normalize = canonical._normalize_pieces

    def counting(raw):
        calls.append(raw)
        return normalize(raw)

    monkeypatch.setattr(canonical, "_normalize_pieces", counting)
    canonical_m_grid(ham, standard_grid())
    indivisible_prefix(ham)
    hamiltonian_to_string(ham)
    assert calls == []
    Hamiltonian(ham.pieces)
    assert len(calls) == 1


def test_hamiltonian_json_roundtrip():
    ham = string_to_hamiltonian(catalog.mixed_example())
    doc = hamiltonian_to_json(ham)
    text = json.dumps(doc)
    again = hamiltonian_from_json(json.loads(text))
    assert _pieces(again) == _pieces(ham)
    assert doc["pieces"][-1]["len"] == "inf"


def test_trace_normed_and_nonnegative_pieces():
    for name, spec in catalog.CANONICAL_SPECS:
        for piece in string_to_hamiltonian(spec).pieces:
            assert piece.h11 + piece.h22 == 1.0, name
            assert piece.det >= -1e-12, name
