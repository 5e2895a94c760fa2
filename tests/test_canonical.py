"""Tests for the string <-> Hamiltonian transforms and the canonical solver."""

import json
import math

import numpy as np
import pytest

from indefstring import canonical, catalog
from indefstring.canonical import (
    Hamiltonian,
    HamiltonianPiece,
    canonical_m,
    canonical_m_grid,
    canonical_solution,
    hamiltonian_from_json,
    hamiltonian_to_json,
    hamiltonian_to_string,
    indivisible_prefix,
    string_to_hamiltonian,
    validate_hamiltonian,
)
from indefstring.coefficients import spec_discrepancy
from indefstring.errors import (
    DegenerateHamiltonian,
    NonPositiveLength,
    UnsupportedShape,
    ValidationError,
)
from indefstring.weyl import standard_grid, weyl_m

HALF = Hamiltonian(pieces=(HamiltonianPiece(length=math.inf, h11=0.5, h12=0.0),))
FREE = Hamiltonian(pieces=(HamiltonianPiece(length=math.inf, h11=0.0, h12=0.0),))


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
    assert canonical_m(FREE, 1j) == pytest.approx(0.0, abs=1e-9)


def test_canonical_m_constant_half():
    for z in (1j, 2.0 + 0.5j, -1.0 + 0.3j):
        assert canonical_m(HALF, z) == pytest.approx(1j, abs=1e-8)


def test_canonical_m_matches_atomic_string():
    ham = string_to_hamiltonian(catalog.omega_atom_origin())
    assert canonical_m(ham, 1j) == pytest.approx(2.0 + 1j, abs=1e-12)
    ham3 = string_to_hamiltonian(catalog.upsilon_atom_origin())
    assert canonical_m(ham3, 1j) == pytest.approx(4.0j, abs=1e-12)


def test_canonical_m_grid_matches_weyl_spotwise():
    spec = catalog.mixed_example()
    ham = string_to_hamiltonian(spec)
    zs = np.array([1j, 1.5 + 0.5j, -2.0 + 2.0j])
    from_ham = canonical_m_grid(ham, zs)
    for z, mh in zip(zs, from_ham):
        assert mh == pytest.approx(weyl_m(spec, complex(z)).m, abs=1e-8)


def test_canonical_solution_unimodular():
    ham = string_to_hamiltonian(catalog.mixed_example())
    sol = canonical_solution(ham, 1.3 + 0.7j, [0.5, 2.0, 4.0])
    assert sol.samples[0][0] == 0.5
    for _, mat in sol.samples:
        assert abs(np.linalg.det(mat) - 1.0) < 1e-10


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
    canonical_solution(ham, 1j, [0.5, 2.0])
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
