"""Tests for the string <-> Hamiltonian transforms and the canonical Weyl function."""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from indefstring import canonical, catalog
from indefstring.canonical import (
    Hamiltonian,
    canonical_m_grid,
    hamiltonian_from_json,
    hamiltonian_to_json,
    hamiltonian_to_string,
    string_to_hamiltonian,
)
from indefstring.coefficients import MeasureData, StringSpec, spec_discrepancy, spec_to_json
from indefstring.errors import (
    DegenerateHamiltonian,
    NonPositiveLength,
    UnsupportedShape,
    ValidationError,
)
from indefstring.propagation import fundamental_system
from indefstring.spectral import spectral_measure_discrete
from indefstring.weyl import standard_grid

import oracle

HALF = Hamiltonian(pieces=((math.inf, 0.5, 0.0),))
FREE = Hamiltonian(pieces=((math.inf, 0.0, 0.0),))
# A half-line with one omega point mass alpha = 1 at a = 0.5 and w = 1 beyond it.
FREE_TAIL_SPEC = StringSpec(length=math.inf, omega=MeasureData(atoms=((0.5, 1.0),)))
ORACLE_ZS = (1.3 + 0.7j, -2.0 + 1.0j, 0.5 + 2.0j, 0.4 - 1.1j)


def _pieces(ham):
    return [tuple(row) for row in ham.pieces.tolist()]


def test_empty_string_transform():
    ham = string_to_hamiltonian(catalog.empty_string())
    assert _pieces(ham) == [(1.0, 0.0, 0.0), (math.inf, 1.0, 0.0)]


def test_atom_at_origin_transform():
    ham = string_to_hamiltonian(catalog.omega_atom_origin())
    assert ham.pieces.shape == (2, 3)
    assert ham.pieces[0] == pytest.approx([5.0, 0.8, 0.4], abs=1e-14)
    assert _pieces(ham)[1] == (math.inf, 1.0, 0.0)


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
    ham = Hamiltonian(pieces=[(5.0, 0.8, 0.4), (math.inf, 1.0, 0.0)])
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


def test_atomic_roundtrips_stay_atomic():
    # det H of an atomic Hamiltonian comes out a few ulps above 0 on some
    # pieces; that rounding must not return as upsilon densities, so the
    # exact discrete measure applies to the string that comes back.
    for k in range(20):
        spec = catalog.random_discrete_string(np.random.default_rng(k))
        back = hamiltonian_to_string(string_to_hamiltonian(spec))
        assert back.omega.density == () and back.upsilon.density == (), k
        assert len(back.omega.atoms) == len(spec.omega.atoms), k
        atoms = spectral_measure_discrete(back).atoms
        assert len(atoms) == len(spectral_measure_discrete(spec).atoms), k


def _blocked_prefix(ham: Hamiltonian) -> float:
    """Extent of the initial blocked run [[1, 0], [0, 0]]: adjacent equal
    pieces are fused, so it is the first piece or nothing."""
    length, h11, h12 = ham.pieces[0]
    return length if (h11, h12) == (1.0, 0.0) else 0.0


def test_indivisible_prefix_values():
    assert _blocked_prefix(HALF) == 0.0
    assert _blocked_prefix(string_to_hamiltonian(catalog.upsilon_atom_origin())) == 3.0
    direct = Hamiltonian(pieces=[(7.0, 1.0, 0.0), (math.inf, 0.0, 0.0)])
    assert _blocked_prefix(direct) == 7.0


def test_prefix_equals_upsilon_mass_at_origin():
    for name, spec in catalog.CANONICAL_SPECS:
        ham = string_to_hamiltonian(spec)
        assert _blocked_prefix(ham) == pytest.approx(
            dict(spec.upsilon.atoms).get(0.0, 0.0), abs=1e-12), name


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
    for length, h11, _ in ham.pieces.tolist():
        h22 = 1.0 - h11
        ends = (0.5, 2.0) if math.isinf(length) else (0.5 * length, length)
        for ds in ends:
            if h22 == 0.0:
                out.append((begin + ds, x, begin))
            else:
                out.append((begin + ds, x + h22 * ds, begin + ds))
        begin += length
        x += h22 * length
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
        Hamiltonian(pieces=[(1.0, 0.5, 0.0)])


def test_validate_rejects_entry_range():
    with pytest.raises(ValidationError):
        Hamiltonian(pieces=[(1.0, 1.5, 0.0), (math.inf, 0.5, 0.0)])
    with pytest.raises(ValidationError):
        # det = 0.25 - 0.36 < 0
        Hamiltonian(pieces=[(1.0, 0.5, 0.6), (math.inf, 0.5, 0.0)])


def test_validate_rejects_all_blocked():
    with pytest.raises(DegenerateHamiltonian):
        Hamiltonian(pieces=[(math.inf, 1.0, 0.0)])


@pytest.mark.parametrize("pieces, error", [
    ([(1.0, 1.5, 0.0), (math.inf, 0.5, 0.0)], ValidationError),          # h11 > 1
    ([(1.0, 0.5, 0.0)], ValidationError),                                 # no infinite tail
    ([(math.inf, 0.5, 0.0), (1.0, 0.5, 0.0)], ValidationError),          # infinite piece first
    ([(0.0, 0.5, 0.0), (math.inf, 0.5, 0.0)], NonPositiveLength),
    ([(2.0, 1.0, 0.0), (math.inf, 1.0, 0.0)], DegenerateHamiltonian),
])
def test_building_an_invalid_hamiltonian_raises_like_validate_hamiltonian(pieces, error):
    with pytest.raises(error) as direct:
        Hamiltonian(pieces=np.array(pieces))
    with pytest.raises(error) as parsed:
        hamiltonian_from_json({"pieces": pieces})
    assert type(direct.value) is type(parsed.value)


def test_built_hamiltonian_is_fused_and_rebuilding_is_a_no_op():
    ham = Hamiltonian(pieces=[(1.0, 0.5, 0.25), {"len": 2.0, "h11": 0.5, "h12": 0.25},
                              [1.0, 1.0, 0.0], ("inf", 1.0, 0.0)], mesh=8)
    assert _pieces(ham) == [(3.0, 0.5, 0.25), (math.inf, 1.0, 0.0)]
    assert ham == hamiltonian_from_json(hamiltonian_to_json(ham))
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
        _, h11, h12 = string_to_hamiltonian(spec).pieces.T
        h22 = 1.0 - h11
        assert np.all(h11 + h22 == 1.0), name
        assert np.all(h11 * h22 - h12 * h12 >= -1e-12), name


def test_rows_mappings_and_an_array_build_equal_hamiltonians():
    rows = [(2.0, 0.5, 0.25), (1.0, 1.0, 0.0), ("inf", 0.2, -0.1)]
    by_rows = Hamiltonian(rows)
    by_mappings = Hamiltonian([{"len": n, "h11": a, "h12": b} for n, a, b in rows])
    by_array = Hamiltonian(np.array([[2.0, 0.5, 0.25], [1.0, 1.0, 0.0], [math.inf, 0.2, -0.1]]))
    assert by_rows == by_mappings == by_array
    assert by_array.pieces.shape == (3, 3) and by_array.pieces.dtype == float
    assert Hamiltonian([(2.0, 0.5, 0.25), (None, 0.2, -0.1)]) == Hamiltonian(by_rows.pieces[[0, 2]])
    assert by_rows != Hamiltonian(rows, mesh=4)
    assert (by_rows == 3) is False and by_rows != rows


def test_pieces_are_read_only_and_the_input_array_is_not():
    raw = np.array([[1.0, 0.5, 0.0], [math.inf, 0.0, 0.0]])
    ham = Hamiltonian(raw)
    with pytest.raises(ValueError):
        ham.pieces[0, 0] = 2.0
    raw[0, 0] = 2.0
    assert ham.pieces[0, 0] == 1.0


@pytest.mark.parametrize("extent", [math.nan, 0.0, -1.0])
def test_a_bad_extent_raises_non_positive_length_naming_the_piece(extent):
    for pieces in ([(1.0, 0.5, 0.0), (extent, 0.5, 0.0), (math.inf, 0.5, 0.0)],
                   np.array([[1.0, 0.5, 0.0], [extent, 0.5, 0.0], [math.inf, 0.5, 0.0]])):
        with pytest.raises(NonPositiveLength, match="piece 1 has non-positive extent"):
            Hamiltonian(pieces)


def test_the_error_names_the_first_failing_piece_and_its_first_failing_check():
    # piece 1 fails the h11 range, piece 2 the extent: piece 1 is named.
    with pytest.raises(ValidationError, match=r"piece 1 has h11=1.5 outside \[0, 1\]") as err:
        Hamiltonian([(1.0, 0.5, 0.0), (1.0, 1.5, 0.0), (0.0, 0.5, 0.0), (math.inf, 0.5, 0.0)])
    assert type(err.value) is ValidationError
    # piece 0 fails both the extent and the h11 range: the extent is checked first.
    with pytest.raises(NonPositiveLength, match="piece 0"):
        Hamiltonian([(0.0, 1.5, 0.0), (math.inf, 0.5, 0.0)])
    with pytest.raises(ValidationError, match="piece 0 has h22=0 but h12=1e-07"):
        Hamiltonian([(1.0, 1.0, 1e-7), (math.inf, 0.5, 0.0)])
    with pytest.raises(ValidationError, match="at least one piece"):
        Hamiltonian(np.empty((0, 3)))
    with pytest.raises(ValidationError, match="at least one piece"):
        Hamiltonian(np.ones((2, 4)))


def _density_string(seed: int, n: int) -> StringSpec:
    """About n breakpoints on [0, 1): n/2 omega atoms and n/4 pieces that
    carry an omega and a upsilon density each."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.uniform(0.0, 1.0, n // 2))
    pieces = list(zip(cuts[0::2].tolist(), cuts[1::2].tolist()))
    omega = tuple((a, b, v) for (a, b), v in zip(pieces, rng.uniform(-1.0, 3.0, len(pieces)).tolist()))
    upsilon = tuple((a, b, v) for (a, b), v in zip(pieces, rng.uniform(0.0, 2.0, len(pieces)).tolist()))
    atoms = tuple(zip(rng.uniform(0.0, 1.0, n // 2).tolist(),
                      (rng.uniform(0.5, 1.5, n // 2) * (2.0 / (n // 2))).tolist()))
    return StringSpec(length=1.0, omega=MeasureData(atoms=atoms, density=omega),
                      upsilon=MeasureData(density=upsilon))


# sha256 of the sorted-key JSON of string_to_hamiltonian, computed when
# Hamiltonians were built and checked one piece at a time.
_HAMILTONIAN_DIGESTS = (
    ("mixed", catalog.mixed_example(), 256, "a680b6f3ae2806e81cec87eacca0abaa395cf83690c0619aed09e52c0925cdb2"),
    ("upsilon-atom-origin", catalog.upsilon_atom_origin(), 256,
     "96c7f7728823098511ec2ef5a7b437defc1672149bd068c2370449fe302dfdef"),
    ("uniform", catalog.uniform_string(), 64, "fe002c1c9beb22c54ed9ef29b588fa2876c2535fe21c5ea8bd2be8d95ef24ab6"),
    ("density-100", _density_string(1, 100), 256,
     "f661e85f584d8de5e8149f850b9d83bd74c00a8eb3602d570df364b13551c655"),
)


@pytest.mark.parametrize("name, spec, mesh, digest", _HAMILTONIAN_DIGESTS, ids=[d[0] for d in _HAMILTONIAN_DIGESTS])
def test_hamiltonian_json_keeps_its_bytes(name, spec, mesh, digest):
    doc = hamiltonian_to_json(string_to_hamiltonian(spec, mesh=mesh))
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest, name


def _string_piece_by_piece(ham: Hamiltonian) -> StringSpec:
    """hamiltonian_to_string as a loop over the pieces, in Python floats: the
    reference whose bits the column operations must keep."""
    x, w_prev = 0.0, 0.0
    om_atoms, ups_atoms, ups_dens = [], [], []
    length = math.inf
    for extent, h11, h12 in ham.pieces.tolist():
        h22 = 1.0 - h11
        if h22 == 0.0:
            if math.isinf(extent):
                length = x
                break
            ups_atoms.append((x, extent))
            continue
        w_here = h12 / h22
        if abs(w_here - w_prev) > 4.0 * math.ulp(1.0) * max(1.0, abs(w_here), abs(w_prev)):
            om_atoms.append((x, w_here - w_prev))
            w_prev = w_here
        det = h11 * h22 - h12 * h12
        dx = h22 * extent
        if det > 4.0 * math.ulp(1.0):
            ups_dens.append((x, x + dx, det / (h22 * h22)))
        x += dx
    return StringSpec(length=length, omega=MeasureData(atoms=tuple(om_atoms)),
                      upsilon=MeasureData(atoms=tuple(ups_atoms), density=tuple(ups_dens)))


def test_hamiltonian_to_string_keeps_the_bits_of_the_piece_by_piece_walk():
    rng = np.random.default_rng(7)
    specs = [spec for _, spec in catalog.CANONICAL_SPECS] + [_density_string(1, 100)]
    specs += [catalog.random_discrete_string(rng) for _ in range(4)]
    specs += [catalog.random_atomic_omega_string(rng) for _ in range(4)]
    hams = [string_to_hamiltonian(spec, mesh=64) for spec in specs] + [HALF, FREE]
    hams.append(string_to_hamiltonian(FREE_TAIL_SPEC))
    for ham in hams:
        got, want = hamiltonian_to_string(ham), _string_piece_by_piece(ham)
        assert got == want
        assert json.dumps(spec_to_json(got)) == json.dumps(spec_to_json(want))
