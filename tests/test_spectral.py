"""Tests for eigenvalues, spectral measures, Green kernel, and the transform."""

import math

import mpmath
import numpy as np
import pytest

import oracle
from indefstring import catalog, propagation, spectral
from indefstring.coefficients import MeasureData, StringSpec, validate_spec
from indefstring.errors import (
    ComputationError,
    NotAtomic,
    NotFiniteLength,
    PositionOutOfRange,
    UnsupportedShape,
    ValidationError,
    WindowTouchesAtomZero,
)
from indefstring.spectral import (
    HilbertElement,
    _SECTION_POINTS,
    _phi_recurrence,
    _section_peaks,
    discrete_eigenvalues,
    green_kernel,
    hilbert_inner,
    hilbert_norm_squared,
    measure_from_json,
    measure_to_json,
    norm_squared_in_measure,
    point_evaluator,
    projection_energy,
    spectral_measure_discrete,
    stieltjes_inversion,
    transform_hat,
)
from indefstring.weyl import classify, m_truncated

OMEGA_MID = catalog.omega_atom_middle()            # omega = 1*delta at 1/2
OMEGA_MID_NEG = catalog.omega_atom_middle(-1.0)
UPS_MID = catalog.upsilon_atom_middle()            # upsilon = 1*delta at 1/2


def test_eigenvalues_single_atom():
    assert discrete_eigenvalues(OMEGA_MID) == pytest.approx([4.0], abs=1e-12)
    assert discrete_eigenvalues(OMEGA_MID_NEG) == pytest.approx([-4.0], abs=1e-12)


def test_eigenvalues_upsilon_atom():
    assert discrete_eigenvalues(UPS_MID) == pytest.approx([-2.0, 2.0], abs=1e-12)


def test_eigenvalue_window_filter():
    assert discrete_eigenvalues(UPS_MID, window=(0.0, 3.0)) == pytest.approx([2.0], abs=1e-12)


@pytest.mark.parametrize("window", [(np.nan, 5.0), (-5.0, np.nan), (5.0, -5.0)])
def test_exact_routes_reject_nan_and_reversed_windows(window):
    # Such a window selects no eigenvalue, so an empty answer would hide the
    # mistake.
    with pytest.raises(ValidationError, match="lo <= hi"):
        discrete_eigenvalues(UPS_MID, window)
    with pytest.raises(ValidationError, match="lo <= hi"):
        spectral_measure_discrete(UPS_MID, window)


def test_exact_routes_keep_infinite_window_edges():
    assert discrete_eigenvalues(UPS_MID, (-np.inf, 0.0)) == pytest.approx([-2.0], abs=1e-12)
    assert spectral_measure_discrete(UPS_MID, (0.0, np.inf)).atoms == (
        pytest.approx((2.0, 0.5), abs=1e-12),)


def test_empty_string_has_no_eigenvalues():
    assert discrete_eigenvalues(catalog.empty_string()) == []


def test_eigenvalues_require_discrete_string():
    with pytest.raises(NotAtomic):
        discrete_eigenvalues(catalog.uniform_string())
    with pytest.raises(NotFiniteLength):
        discrete_eigenvalues(catalog.empty_halfline())


def test_eigenvalues_closer_than_resolved_are_refused():
    # A heavy atom in the middle all but splits the string into two equal
    # halves, whose eigenvalues pair up 4e-12 apart near 8.
    heavy = StringSpec(length=1.0, omega=MeasureData(atoms=((0.25, 1.0), (0.5, 1e12), (0.75, 1.0))))
    with pytest.raises(ComputationError, match="not resolved as simple"):
        discrete_eigenvalues(heavy)


def test_eigenvalues_nonzero_and_simple_on_random_strings():
    rng = np.random.default_rng(31)
    for _ in range(10):
        spec = catalog.random_discrete_string(rng)
        eigs = discrete_eigenvalues(spec)
        assert all(abs(l) > 1e-10 for l in eigs)
        assert all(b - a > 1e-8 for a, b in zip(eigs, eigs[1:]))


def _jittered_string(seed: int, n_omega: int, n_upsilon: int) -> StringSpec:
    """L = 1; positive omega masses of total 2 and upsilon masses of total 0.05
    at one jittered position per cell of [0.05, 0.95]."""
    rng = np.random.default_rng([seed, 7])
    n = n_omega + n_upsilon
    xs = 0.05 + 0.9 * (np.arange(n) + rng.uniform(0.1, 0.9, size=n)) / n
    ups = rng.permutation(n) < n_upsilon
    masses = rng.uniform(0.5, 1.5, size=n)
    masses[~ups] *= 2.0 / masses[~ups].sum()
    if n_upsilon:
        masses[ups] *= 0.05 / masses[ups].sum()
    atoms = lambda sel: [{"x": float(x), "mass": float(m)} for x, m in zip(xs[sel], masses[sel])]
    return validate_spec({"L": 1.0, "omega": {"atoms": atoms(~ups)}, "upsilon": {"atoms": atoms(ups)}})


def _phi_degree(spec: StringSpec) -> int:
    """deg phi(., L): one per positive atom position, two where upsilon sits."""
    nodes = {x for x, _ in spec.omega.atoms + spec.upsilon.atoms if x > 0.0}
    return len(nodes) + sum(1 for x, _ in spec.upsilon.atoms if x > 0.0)


def _oracle_phi(spec: StringSpec, lam) -> mpmath.mpf:
    """phi(lam, L) from the 50-digit mpmath walk of tests/oracle.py."""
    return oracle.propagators(spec, lam, [spec.length])[spec.length][0, 1].real


LARGE_STRINGS = [(24, 0), (32, 0), (48, 0), (64, 0), (16, 8), (24, 8)]


@pytest.mark.parametrize("n_omega,n_upsilon", LARGE_STRINGS)
def test_eigenvalues_count_and_separate_sign_changes_of_phi(n_omega, n_upsilon):
    # deg phi roots in total; phi alternating in sign across points that
    # separate the returned eigenvalues puts exactly one root between each.
    for seed in range(2):
        spec = _jittered_string(seed, n_omega, n_upsilon)
        eigs = discrete_eigenvalues(spec)
        assert len(eigs) == _phi_degree(spec) == n_omega + 2 * n_upsilon
        cuts = [eigs[0] - 1.0] + [0.5 * (a + b) for a, b in zip(eigs, eigs[1:])] + [eigs[-1] + 1.0]
        signs = [mpmath.sign(_oracle_phi(spec, c)) for c in cuts]
        assert all(s * t < 0 for s, t in zip(signs, signs[1:]))


def test_eigenvalue_count_on_random_signed_strings():
    rng = np.random.default_rng(34)
    for _ in range(200):
        spec = catalog.random_discrete_string(rng)
        assert len(discrete_eigenvalues(spec)) == _phi_degree(spec)


@pytest.mark.parametrize("seed,n_omega,n_upsilon", [(0, 8, 2), (1, 24, 0), (0, 16, 8)])
def test_eigenvalues_match_mpmath_roots_of_phi(seed, n_omega, n_upsilon):
    spec = _jittered_string(seed, n_omega, n_upsilon)
    eigs = discrete_eigenvalues(spec)
    assert len(eigs) == _phi_degree(spec)
    phi = lambda l: _oracle_phi(spec, l)
    with mpmath.workdps(oracle.DPS):
        for lam in eigs:
            # Secant steps on the oracle's phi, started 1e-6 apart at lam.
            root = float(mpmath.findroot(phi, (lam, lam * (1.0 + 1e-6)), verify=False))
            assert abs(lam - root) <= 1e-12 * abs(root)


def test_recurrence_on_an_array_matches_one_lambda_calls():
    spec = _jittered_string(0, 16, 8)
    lams = np.concatenate([discrete_eigenvalues(spec), np.linspace(-300.0, 300.0, 7)])
    batched = _phi_recurrence(spec, lams)
    for k, lam in enumerate(lams):
        single = _phi_recurrence(spec, [lam])
        assert all(part[k] == one[0] for part, one in zip(batched, single))


def test_discrete_measure_masses():
    mu = spectral_measure_discrete(OMEGA_MID)
    assert mu.atoms == (pytest.approx((4.0, 1.0), abs=1e-12),)
    mu_neg = spectral_measure_discrete(OMEGA_MID_NEG)
    assert mu_neg.atoms == (pytest.approx((-4.0, 1.0), abs=1e-12),)
    mu_ups = spectral_measure_discrete(UPS_MID)
    assert mu_ups.atoms == (pytest.approx((-2.0, 0.5), abs=1e-12),
                            pytest.approx((2.0, 0.5), abs=1e-12))
    assert spectral_measure_discrete(catalog.empty_string()).atoms == ()


def _benchmark_discrete_string(seed: int, name: str) -> StringSpec:
    """perfbench's make_inputs("inverse-spectral", seed)["specs"][name]: its
    seven discrete_string draws in order, each with n positions jittered in
    cells of [0.05, 0.95), omega masses of total 2 n_omega/n and upsilon
    masses of total n_upsilon/(2n) at a random n_upsilon of them."""
    rng = np.random.default_rng([seed, 2])
    shapes = (("s8", 8, 0), ("s12", 12, 0), ("s16", 16, 0), ("s8u", 6, 2), ("s10u", 8, 2),
              ("s32u", 24, 8), ("s64", 64, 0))
    for shape, n_omega, n_upsilon in shapes:
        n = n_omega + n_upsilon
        xs = 0.05 + (0.95 - 0.05) / n * (np.arange(n) + rng.uniform(0.1, 0.9, n))
        ups = rng.permutation(n) < n_upsilon
        omega = rng.uniform(0.5, 1.5, n_omega)
        omega *= 2.0 * n_omega / n / omega.sum()
        upsilon = np.zeros(0)
        if n_upsilon:
            upsilon = rng.uniform(0.5, 1.5, n_upsilon)
            upsilon *= 0.5 * n_upsilon / n / upsilon.sum()
        if shape == name:
            atoms = lambda sel, masses: {"atoms": [{"x": float(x), "mass": float(m)}
                                                   for x, m in zip(xs[sel], masses)]}
            return validate_spec({"L": 1.0, "omega": atoms(~ups, omega), "upsilon": atoms(ups, upsilon)})
    raise KeyError(name)


@pytest.mark.parametrize("seed,name", [(1, "s32u"), (1, "s64"), (302, "s32u"), (302, "s64")])
def test_discrete_masses_match_a_300_digit_reference(seed, name):
    # The extended-precision norming sum loses every digit of some masses on
    # these strings (a third of the total on seed 1's s32u); each such mass
    # is replaced by the residue of m.
    spec = _benchmark_discrete_string(seed, name)
    lams, masses = np.array(spectral_measure_discrete(spec).atoms).T
    ref_lams, ref_masses = oracle.discrete_measure(spec, lams)
    assert np.all(np.abs(lams - ref_lams) <= 1e-12 * np.abs(ref_lams))
    total = sum(ref_masses)
    assert np.max(np.abs(masses - ref_masses)) <= 1e-12 * total


def _upsilon_origin_string(n: int, upsilon0: float) -> StringSpec:
    """n omega masses of 0.01 and a upsilon mass ``upsilon0`` at 0: eigenvalues
    up to about 1e4 |l|, where the residue must leave out c1 e^2."""
    xs = np.sort(np.random.default_rng(n).uniform(0.05, 0.95, n))
    return validate_spec({"L": 1.0, "omega": {"atoms": [{"x": float(x), "mass": 0.01} for x in xs]},
                          "upsilon": {"atoms": [{"x": 0.0, "mass": upsilon0}]}})


def test_discrete_masses_keep_the_norming_sum_where_it_holds():
    # Masses that the norming sum gets right come out bit for bit as
    # 1/(norming constant): on the strings of the Parseval test, on strings
    # of a few atoms, and on strings with a upsilon mass at 0.
    rng = np.random.default_rng(32)
    specs = [catalog.random_discrete_string(rng) for _ in range(12)]
    specs += [OMEGA_MID, OMEGA_MID_NEG, UPS_MID, catalog.omega_atom_origin(), catalog.upsilon_atom_origin()]
    specs += [_jittered_string(seed, 2, 1) for seed in range(3)] + [_jittered_string(0, 6, 3)]
    specs += [_upsilon_origin_string(n, upsilon0) for n in (4, 8, 16) for upsilon0 in (0.5, 100.0)]
    for spec in specs:
        lams, masses = np.array(spectral_measure_discrete(spec).atoms).reshape(-1, 2).T
        assert masses.tolist() == (1.0 / _phi_recurrence(spec, lams)[2]).tolist(), spec


def test_measure_json_roundtrip():
    mu = spectral_measure_discrete(UPS_MID)
    again = measure_from_json(measure_to_json(mu))
    assert again.atoms == mu.atoms
    mu = stieltjes_inversion(catalog.upsilon_lebesgue_halfline(), (1.0, 1.1), eps=(1e-2, 1e-3))
    assert mu.continuous_samples and measure_from_json(measure_to_json(mu)) == mu


def test_inversion_uniform_string():
    mu = stieltjes_inversion(catalog.uniform_string(), (5.0, 45.0))
    assert len(mu.atoms) == 2
    for (lam, mass), n in zip(mu.atoms, (1, 2)):
        assert lam == pytest.approx((n * np.pi) ** 2, rel=1e-12)
        assert mass == pytest.approx(2.0, rel=1e-12)


def test_inversion_matches_discrete_residues():
    mu = stieltjes_inversion(OMEGA_MID, (2.0, 6.0))
    assert len(mu.atoms) == 1
    lam, mass = mu.atoms[0]
    assert lam == pytest.approx(4.0, abs=1e-3)
    assert mass == pytest.approx(1.0, abs=1e-3)


def _past_the_atom_cap():
    """65 omega atoms on [0, 1]: one more than the exact route takes."""
    rng = np.random.default_rng(65)
    xs = np.sort(rng.uniform(0.0, 1.0, 65))
    masses = rng.uniform(0.5, 1.5, 65) / 65
    return StringSpec(length=1.0, omega=MeasureData(atoms=tuple(zip(xs.tolist(), masses.tolist()))))


def test_strings_past_the_atom_cap_take_the_boundary_value_route(monkeypatch):
    spec, window = _past_the_atom_cap(), (5.6, 126.0)
    for call in (lambda: spectral_measure_discrete(spec, window), lambda: discrete_eigenvalues(spec),
                 lambda: projection_energy(spec, point_evaluator(spec, 0.5))):
        with pytest.raises(UnsupportedShape, match="more than 64 point masses"):
            call()
    mu = stieltjes_inversion(spec, window)
    assert mu.epsilon_used is not None
    # With the cap raised, the exact route gives the same atoms.
    monkeypatch.setattr(spectral, "_MAX_ATOMS", 65)
    exact = spectral_measure_discrete(spec, window)
    assert [round(lam, 4) for lam, _ in exact.atoms] == [11.3486, 44.1790, 82.2035]
    assert len(mu.atoms) == len(exact.atoms)
    for (lam, mass), (want_lam, want_mass) in zip(mu.atoms, exact.atoms):
        assert lam == pytest.approx(want_lam, rel=1e-13)
        assert mass == pytest.approx(want_mass, rel=1e-13)


def test_inversion_empty_string_measure_vanishes():
    mu = stieltjes_inversion(catalog.empty_string(), (2.0, 6.0))
    assert mu.atoms == ()


def test_inversion_needs_two_eps():
    # With one eps there is no mass stability test, and rounding peaks of
    # Im m = 1 on this half-line would come back as atoms.
    with pytest.raises(ValidationError, match="two eps"):
        stieltjes_inversion(catalog.upsilon_lebesgue_halfline(), (0.5, 3.0), eps=(1e-2,))
    with pytest.raises(ValidationError, match="positive"):
        stieltjes_inversion(OMEGA_MID, (2.0, 6.0), eps=(1e-2, -1e-3))


@pytest.mark.parametrize("window", [(1.0, np.inf), (-np.inf, -1.0), (np.nan, 2.0)])
def test_inversion_window_edges_must_be_finite(window):
    with pytest.raises(ValidationError, match="finite edges"):
        stieltjes_inversion(catalog.upsilon_lebesgue_halfline(), window)


@pytest.mark.parametrize("eps", [(np.inf, 1e-3), (1e-2, np.inf), (np.nan, 1e-3), (1e-2, np.nan)])
def test_inversion_eps_must_be_finite(eps):
    with pytest.raises(ValidationError, match="positive and finite"):
        stieltjes_inversion(catalog.upsilon_lebesgue_halfline(), (1.0, 2.0), eps=eps)


def test_inversion_eps_must_be_distinct():
    # With a repeated eps the stability test compares a mass with itself, and
    # rounding peaks of Im m = 1 came back as atoms of mass eps.
    with pytest.raises(ValidationError, match="distinct"):
        stieltjes_inversion(catalog.upsilon_lebesgue_halfline(), (1.0, 1.1), eps=(1e-2, 1e-2))
    with pytest.raises(ValidationError, match="distinct"):
        stieltjes_inversion(OMEGA_MID, (2.0, 6.0), eps=(1e-2, 1e-3, 1e-2))


def test_inversion_window_must_avoid_origin():
    with pytest.raises(WindowTouchesAtomZero):
        stieltjes_inversion(OMEGA_MID, (-1.0, 6.0))


def test_inversion_batching_does_not_change_numbers():
    # The peak search evaluates all candidates in one call per step; a source
    # that evaluates one z at a time must give the same bits.
    def one_at_a_time(zs):
        return np.array([m_truncated(OMEGA_MID, z, OMEGA_MID.length) for z in zs])

    batched = stieltjes_inversion(OMEGA_MID, (2.0, 6.0), eps=(1e-1, 1e-2))
    single = stieltjes_inversion(one_at_a_time, (2.0, 6.0), eps=(1e-1, 1e-2))
    assert batched.atoms
    assert batched == single


def _counting_poles(poles):
    calls = [0]

    def m(zs):
        calls[0] += 1
        zs = np.asarray(zs)
        return 0.3 + sum(gamma / (lam - zs) for lam, gamma in poles)

    return m, calls


FIVE_POLES = [(1.5, 0.7), (2.5, 1.3), (3.5, 0.4), (4.5, 2.0), (5.5, 0.9)]


def test_inversion_calls_do_not_grow_with_candidates():
    eps = (1e-2, 1e-3, 1e-4)
    counts = []
    for poles in ([(2.0, 0.7)], FIVE_POLES):
        m, calls = _counting_poles(poles)
        mu = stieltjes_inversion(m, (1.0, 6.0), eps=eps)
        assert len(mu.atoms) == len(poles)
        for (lam, mass), (want_lam, want_mass) in zip(mu.atoms, poles):
            assert abs(lam - want_lam) <= 1e-12 * want_lam
            assert abs(mass - want_mass) <= 1e-10
        counts.append(calls[0])
        # The scan, about 8 search calls and one mass call for all eps, and
        # the density samples; a search with one call per step needs over 100.
        assert calls[0] <= 30
    assert counts[1] <= counts[0] + len(eps)


@pytest.mark.parametrize("eps", [(3e-2, 1e-2, 3e-3), (2e-2, 5e-3, 1e-3), (1e-2, 2e-3)])
def test_inversion_extrapolates_with_the_eps_ratios(eps):
    # The masses are extrapolated in eps^2 with the actual ratios; assuming
    # decades would leave errors of 3e-5 at eps (3e-2, 1e-2, 3e-3).
    m, _ = _counting_poles(FIVE_POLES)
    mu = stieltjes_inversion(m, (1.0, 6.0), eps=eps)
    assert len(mu.atoms) == len(FIVE_POLES)
    for (lam, mass), (want_lam, want_mass) in zip(mu.atoms, FIVE_POLES):
        assert abs(lam - want_lam) <= 1e-9 * want_lam
        assert abs(mass - want_mass) <= 1e-7 * want_mass


def test_inversion_calls_do_not_grow_with_eps():
    # Every eps is searched from the scan's candidates in the same lockstep
    # calls, so more eps make the calls longer, not more numerous.
    counts = []
    for eps in [(1e-2, 1e-3), (1e-2, 1e-3, 1e-4), (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)]:
        m, calls = _counting_poles(FIVE_POLES)
        mu = stieltjes_inversion(m, (1.0, 6.0), eps=eps)
        assert len(mu.atoms) == len(FIVE_POLES)
        counts.append(calls[0])
    assert len(set(counts)) == 1
    assert counts[0] <= 12


@pytest.mark.parametrize("eps", [(3e-2, 1e-2, 3e-3), (1e-2, 2e-3), (2e-2, 5e-3, 1e-3)])
def test_inversion_extrapolates_positions_in_eps(eps):
    # The other poles shift each maximum by a term in eps^4, which the
    # extrapolation removes: unextrapolated, the worst of these is 1.1e-10.
    m, _ = _counting_poles(FIVE_POLES)
    mu = stieltjes_inversion(m, (1.0, 6.0), eps=eps)
    assert len(mu.atoms) == len(FIVE_POLES)
    for (lam, _), (want_lam, _) in zip(mu.atoms, FIVE_POLES):
        assert abs(lam - want_lam) <= 2e-12 * want_lam


def test_peak_search_batches_over_eps_bit_for_bit():
    # One height per bracket: no bracket looks at another, so each eps's
    # brackets give the bits of a search at that eps alone.
    eps, half = (1e-2, 1e-3, 1e-4), 2e-2
    m, _ = _counting_poles(FIVE_POLES)
    centers = np.array([lam for lam, _ in FIVE_POLES]) + np.array([3e-3, -5e-3, 1e-3, 8e-3, -2e-3])
    pos, mass = _section_peaks(m, np.repeat(eps, centers.size), np.tile(centers, len(eps)), half)
    for k, e in enumerate(eps):
        alone_pos, alone_mass = _section_peaks(m, e, centers, half)
        rows = slice(k * centers.size, (k + 1) * centers.size)
        assert pos[rows].tobytes() == alone_pos.tobytes()
        assert mass[rows].tobytes() == alone_mass.tobytes()


@pytest.mark.parametrize("sample", [1, _SECTION_POINTS, _SECTION_POINTS + 1])
def test_peak_search_finds_peaks_at_the_edges_of_a_bracket(sample):
    # On the first or last sample the best sample's outer neighbour is a
    # bracket end, which is never evaluated; at the end itself (sample k + 1)
    # every call picks its last sample.  The search must still close in.
    e, center, half, gamma = 1e-4, 2.0, 2e-3, 0.7
    lo, hi = center - half, center + half
    peak = lo + (hi - lo) * (sample / (_SECTION_POINTS + 1))
    m, _ = _counting_poles([(peak, gamma)])
    pos, mass = _section_peaks(m, e, np.array([center]), half)
    if sample <= _SECTION_POINTS:
        assert abs(pos[0] - peak) <= 1e-12 * peak
        assert abs(mass[0] - gamma) <= 1e-12
    else:
        assert abs(pos[0] - peak) <= 1e-9 * (1.0 + center)
        assert abs(mass[0] - gamma) <= 1e-8 * gamma


def test_inversion_halfline_default_eps_is_continuous():
    # m = i on the whole upper half-plane: no atoms, density 1/pi everywhere.
    mu = stieltjes_inversion(catalog.upsilon_lebesgue_halfline(), (0.5, 3.0))
    assert mu.atoms == ()
    assert mu.continuous_samples
    for _, density in mu.continuous_samples:
        assert abs(density - 1.0 / np.pi) <= 1e-8


@pytest.mark.parametrize("window, eps", [((1.0, 1.1), (1e-2, 1e-3)), ((0.5, 3.0), None)])
def test_flat_density_inversion_makes_two_calls(monkeypatch, window, eps):
    # Im m = 1 up to rounding: no maximum of the scan bends above its noise,
    # so nothing is refined; the scan and the density samples are the calls.
    calls = []
    values = spectral._m_values

    def counting(spec, zs, *args, **kwargs):
        calls.append(len(zs))
        return values(spec, zs, *args, **kwargs)

    monkeypatch.setattr(spectral, "_m_values", counting)
    kwargs = {} if eps is None else {"eps": eps}
    mu = stieltjes_inversion(catalog.upsilon_lebesgue_halfline(), window, **kwargs)
    assert len(calls) == 2
    assert mu.atoms == ()
    for _, density in mu.continuous_samples:
        assert abs(density - 1.0 / np.pi) <= 1e-8


def test_density_samples_are_the_floats_of_each_sample():
    # The density samples are the last evaluator call: each pair must be
    # (float(l), float(Im m / pi)) of that call's values, one at a time, as
    # Python floats, on a strided scan (window (1, 5)) and on one that is not.
    for window in ((1.0, 5.0), (2.5, 3.5)):
        calls = []

        def m(zs):
            values = 1j * (1.0 + 0.1 * np.sin(zs)) + 0.5 / (3.0 - zs)
            calls.append((zs, values))
            return values

        mu = stieltjes_inversion(m, window)
        zs, values = calls[-1]
        want = tuple((float(l), float(v / math.pi)) for l, v in zip(zs.real, values.imag))
        assert mu.continuous_samples == want
        assert len(want) == zs.size > 1
        assert all(type(l) is float and type(d) is float for l, d in mu.continuous_samples)


def _atom_on_flat_density(noise, counts):
    rng = np.random.default_rng(7)

    def m(zs):
        counts.append(zs.size)
        return 1j * (1.0 + noise * rng.standard_normal(zs.shape)) + 0.5 / (3.0 - zs)

    return m


def test_noise_on_a_flat_density_leaves_its_atom_alone():
    # Relative noise of 1e-12 on Im m = 1 raises the scan's noise level; the
    # atom of mass 1/2 at 3 still stands far above it, and the noise maxima
    # stay below it, so no extra candidate is refined.
    clean_counts, noisy_counts = [], []
    clean = stieltjes_inversion(_atom_on_flat_density(0.0, clean_counts), (1.0, 5.0))
    noisy = stieltjes_inversion(_atom_on_flat_density(1e-12, noisy_counts), (1.0, 5.0))
    assert len(clean.atoms) == len(noisy.atoms) == 1
    (lam, mass), (clean_lam, clean_mass) = noisy.atoms[0], clean.atoms[0]
    assert abs(clean_lam - 3.0) <= 1e-12
    assert abs(lam - 3.0) <= 1e-9
    assert abs(mass - clean_mass) <= 1e-9 * clean_mass
    assert len(noisy_counts) <= len(clean_counts)
    assert sum(noisy_counts) <= sum(clean_counts)


@pytest.mark.parametrize("noise", [1e-12, 1e-9])
def test_noise_on_a_flat_density_is_not_refined(noise):
    # Every sample of Im m = 1 + noise stands above the absolute floor, and
    # about a third of them are maxima; none bends above the scan's noise.
    rng = np.random.default_rng(7)
    counts = []

    def m(zs):
        counts.append(zs.size)
        return 1j * (1.0 + noise * rng.standard_normal(zs.shape))

    mu = stieltjes_inversion(m, (1.0, 5.0))
    assert mu.atoms == ()
    assert len(counts) == 2


@pytest.mark.parametrize("window", [(3.99, 4.01), (3.98, 4.02), (3.999, 4.001)])
def test_inversion_finds_an_atom_that_fills_a_narrow_window(window):
    # The peak at 4 is wider than the window, so most bends of the scan are
    # the peak's own curvature; the noise level must not count them as noise.
    mu = stieltjes_inversion(OMEGA_MID, window)
    assert len(mu.atoms) == 1
    lam, mass = mu.atoms[0]
    assert lam == pytest.approx(4.0, rel=1e-12)
    assert mass == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("gap", [0.05, 0.1, 0.2])
def test_inversion_finds_a_small_atom_among_large_ones(gap):
    # Poles every gap (5, 10 and 20 eps0), mass 1 but one of 0.05.  Nearly
    # every bend of the scan is the curvature of some atom's tail; counted as
    # noise, it would hide the small atom, which has a maximum of its own.
    poles = [(1.0 + gap * k, 0.05 if k == 4 else 1.0) for k in range(11)]

    def m(zs):
        return sum(gamma / (lam - zs) for lam, gamma in poles)

    mu = stieltjes_inversion(m, (0.95, 1.05 + 10 * gap))
    assert len(mu.atoms) == len(poles)
    for (lam, mass), (want_lam, want_mass) in zip(mu.atoms, poles):
        assert abs(lam - want_lam) <= 1e-6
        assert abs(mass - want_mass) <= 1e-3 * want_mass


def test_inversion_keeps_packed_atoms_on_a_capped_scan():
    # A window of 2000 is scanned at the 200,001-point cap, a spacing of
    # eps0: there each sampled peak flips the sign of the bend by itself, and
    # the extra atom of 0.3 (2 * eps0 from one of mass 1, so merged with it)
    # makes three flips in a row.  Read as noise, they would hide every atom.
    unit = [1000.0 + 0.05 * k for k in range(5)]
    poles = [(lam, 1.0) for lam in unit] + [(1000.12, 0.3)]

    def m(zs):
        return sum(gamma / (lam - zs) for lam, gamma in poles)

    mu = stieltjes_inversion(m, (0.5, 2000.5))
    for want in unit:
        assert any(abs(lam - want) <= 1e-9 * want and abs(mass - 1.0) <= 1e-6
                   for lam, mass in mu.atoms)


@pytest.mark.parametrize("wrong", [
    lambda zs: 1j,
    lambda zs: np.full(zs.size - 1, 1j),
    lambda zs: np.full((zs.size, 1), 1j),
], ids=["scalar", "short", "column"])
def test_inversion_refuses_values_of_the_wrong_shape(wrong):
    with pytest.raises(ValidationError, match="shape"):
        stieltjes_inversion(wrong, (1.0, 5.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_inversion_refuses_non_finite_values(bad):
    # A NaN around the atom is never a local maximum of the scan, so unless
    # it is refused the atom silently drops out of the result.
    def m(zs):
        values = 1j + 0.5 / (3.0 - zs)
        return np.where(np.abs(zs.real - 3.0) < 0.01, bad, values)

    with pytest.raises(ComputationError, match=r"not finite at l = 2\.99"):
        stieltjes_inversion(m, (1.0, 5.0))


def test_green_kernel_empty_string():
    g = green_kernel(catalog.empty_string(), 2j, 0.5, 0.25)
    assert g[0] == pytest.approx(0.125, abs=1e-12)
    assert g[1] == pytest.approx(2j * 0.125, abs=1e-12)


def test_green_kernel_symmetry():
    spec = catalog.mixed_example()
    a = green_kernel(spec, 1.5 + 0.5j, 0.4, 1.2)
    b = green_kernel(spec, 1.5 + 0.5j, 1.2, 0.4)
    assert np.allclose(a, b, atol=1e-12)


def test_green_kernel_takes_two_sweeps(monkeypatch):
    # One sweep for m and one for theta and phi at both points.  On a short
    # string without densities m comes from the row sweep; theta and phi
    # always from the fold.
    calls = []
    for name in ("_sweep_closed", "_row_sweep"):
        monkeypatch.setattr(propagation, name,
                            lambda *args, _name=name, _sweep=getattr(propagation, name), **kw:
                            calls.append(_name) or _sweep(*args, **kw))
    green_kernel(catalog.mixed_example(), 1.5 + 0.5j, 0.4, 1.2)
    assert calls == ["_sweep_closed", "_sweep_closed"]
    calls.clear()
    green_kernel(catalog.omega_atom_middle(), 1.5 + 0.5j, 0.4, 0.7)
    assert calls == ["_row_sweep", "_sweep_closed"]


def test_green_kernel_atomic_diagonal():
    g = green_kernel(catalog.omega_atom_origin(), 1j, 0.5, 0.5)
    assert g[0] == pytest.approx(0.25, abs=1e-12)


def test_point_evaluator_shape():
    delta = point_evaluator(catalog.empty_string(), 0.5)
    assert delta.nodes == (0.0, 0.5, 1.0)
    assert delta.values == (0.0, 0.25, 0.0)
    ray = point_evaluator(catalog.empty_halfline(), 2.0)
    assert ray.nodes == (0.0, 2.0)
    assert ray.f1(5.0) == 2.0


@pytest.mark.parametrize("x", [0.0, 1.0])
def test_point_evaluator_refuses_the_ends(x):
    with pytest.raises(PositionOutOfRange, match="outside"):
        point_evaluator(catalog.empty_string(), x)


def test_reproducing_identity():
    spec = OMEGA_MID
    f = HilbertElement(nodes=(0.0, 0.3, 0.7, 1.0), values=(0.0, 0.5, 0.2, 0.0))
    for x in (0.2, 0.5, 0.85):
        delta = point_evaluator(spec, x)
        assert hilbert_inner(spec, f, delta) == pytest.approx(f.f1(x), abs=1e-12)


def test_pointwise_bound_from_energy():
    spec = catalog.empty_string()
    f = HilbertElement(nodes=(0.0, 0.3, 0.7, 1.0), values=(0.0, 0.5, 0.2, 0.0))
    energy = hilbert_norm_squared(spec, f)
    for x in np.linspace(0.05, 0.95, 19):
        bound = x * (1.0 - x / spec.length) * energy
        assert f.f1(float(x)) ** 2 <= bound + 1e-12


def test_transform_point_evaluator():
    f = point_evaluator(OMEGA_MID, 0.5)
    assert transform_hat(OMEGA_MID, f, 4.0) == pytest.approx(0.5, abs=1e-12)
    assert transform_hat(OMEGA_MID, f, 0.0) == 0.0


def test_transform_vectorized_and_zero_at_origin():
    f = point_evaluator(OMEGA_MID, 0.5)
    vals = transform_hat(OMEGA_MID, f, np.array([0.0, 4.0]))
    assert vals.shape == (2,)
    assert vals[0] == 0.0


def test_parseval_point_evaluator():
    f = point_evaluator(OMEGA_MID, 0.5)
    mu = spectral_measure_discrete(OMEGA_MID)
    lhs = norm_squared_in_measure(mu, lambda l: transform_hat(OMEGA_MID, f, l))
    rhs = hilbert_norm_squared(OMEGA_MID, f)
    assert lhs == pytest.approx(0.25, abs=1e-12)
    assert rhs == pytest.approx(0.25, abs=1e-12)


def test_parseval_second_component():
    f = HilbertElement(nodes=(0.0,), values=(0.0,), f2_atoms=((0.5, 0.7),))
    mu = spectral_measure_discrete(UPS_MID)
    lhs = norm_squared_in_measure(mu, lambda l: transform_hat(UPS_MID, f, l))
    rhs = hilbert_norm_squared(UPS_MID, f)
    assert lhs == pytest.approx(0.49, abs=1e-12)
    assert rhs == pytest.approx(0.49, abs=1e-12)


def test_parseval_projection_on_random_discrete_strings():
    rng = np.random.default_rng(32)
    done = 0
    while done < 5:
        spec = catalog.random_discrete_string(rng)
        interior = [x for x, _ in spec.omega.atoms if x > 0.0]
        if not interior:
            continue
        done += 1
        nodes = tuple([0.0] + interior + [spec.length])
        values = tuple([0.0] + list(rng.uniform(-1.0, 1.0, size=len(interior))) + [0.0])
        f2 = tuple((x, float(rng.uniform(-1.0, 1.0))) for x, _ in spec.upsilon.atoms if x > 0.0)
        f = HilbertElement(nodes=nodes, values=values, f2_atoms=f2)
        mu = spectral_measure_discrete(spec)
        lhs = norm_squared_in_measure(mu, lambda l: transform_hat(spec, f, l))
        rhs = projection_energy(spec, f)
        assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, rhs))


def _element_on(spec: StringSpec, seed: int) -> HilbertElement:
    """First component on every other omega atom in (0, L), second on every
    upsilon atom."""
    rng = np.random.default_rng(seed)
    interior = [x for x, _ in spec.omega.atoms if x > 0.0][::2]
    values = [0.0] + rng.uniform(-1.0, 1.0, len(interior)).tolist() + [0.0]
    f2 = tuple((x, float(rng.uniform(-1.0, 1.0))) for x, _ in spec.upsilon.atoms)
    return HilbertElement(nodes=(0.0, *interior, spec.length), values=tuple(values), f2_atoms=f2)


def test_transform_on_an_array_matches_scalar_calls():
    for spec in (_jittered_string(1, 8, 4), catalog.mixed_example()):
        f = _element_on(spec, 3)
        lams = np.linspace(-40.0, 40.0, 9)
        batched = transform_hat(spec, f, lams)
        assert batched.tolist() == [transform_hat(spec, f, float(lam)) for lam in lams]


@pytest.mark.parametrize("seed,n_omega,n_upsilon", [(0, 6, 3), (1, 8, 4), (2, 12, 4)])
def test_atomic_transform_matches_mpmath_oracle(seed, n_omega, n_upsilon):
    # The transform reads phi from the double-precision sweep; against the
    # 50-digit walk its error stays at rounding level relative to the sum of
    # the magnitudes of its terms (measured: at most 1.3e-15 on these inputs),
    # also where that sum reaches 1e23 at l = -1e3.
    spec = _jittered_string(seed, n_omega, n_upsilon)
    f = _element_on(spec, seed)
    ups = dict(spec.upsilon.atoms)
    pts = sorted(set(f.nodes[1:]) | {p for p, _ in f.f2_atoms})
    lams = np.concatenate([-np.logspace(0.0, 3.0, 7), np.logspace(0.0, 3.0, 7)])
    for lam, got in zip(lams, transform_hat(spec, f, lams)):
        with mpmath.workdps(oracle.DPS):
            walk = oracle.propagators(spec, lam, pts)
            phi = {0.0: mpmath.mpf(0), **{x: walk[x][0, 1].real for x in pts}}
            terms = [(mpmath.mpf(vb) - va) / (mpmath.mpf(b) - a) * (phi[b] - phi[a])
                     for a, b, va, vb in zip(f.nodes, f.nodes[1:], f.values, f.values[1:])]
            terms += [mpmath.mpf(lam) * ups[p] * v * phi[p] for p, v in f.f2_atoms]
            want, scale = mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)
            assert abs(got - want) <= 1e-13 * scale


@pytest.mark.parametrize("nodes, values, f2", [
    ((0.0, math.nan, 1.0), (0.0, 1.0, 0.0), ()),
    ((0.0, 0.5, 1.0), (0.0, math.nan, 0.0), ()),
    ((0.0, 0.5, math.inf), (0.0, 1.0, 0.0), ()),
    ((0.0, 0.5), (0.0, -math.inf), ()),
    ((0.0, 0.5), (0.0, 1.0), ((0.25, math.nan),)),
    ((0.0, 0.5), (0.0, 1.0), ((math.inf, 1.0),)),
])
def test_element_rejects_non_finite_data(nodes, values, f2):
    with pytest.raises(ValidationError, match="finite"):
        HilbertElement(nodes=nodes, values=values, f2_atoms=f2)


@pytest.mark.parametrize("nodes, values, message", [
    ((0.0, 0.5), (0.0,), "align"),
    ((), (), "non-empty"),
    ((0.0, 0.5), (0.1, 0.0), r"f1\(0\) = 0"),
    ((0.1, 0.5), (0.0, 0.0), r"f1\(0\) = 0"),
    ((0.0, 0.5, 0.5), (0.0, 1.0, 0.0), "strictly increasing"),
    ((0.0, 0.6, 0.3), (0.0, 1.0, 0.0), "strictly increasing"),
])
def test_element_rejects_misshapen_data(nodes, values, message):
    with pytest.raises(ValidationError, match=message):
        HilbertElement(nodes=nodes, values=values)


def test_transform_refuses_an_element_beyond_the_string():
    f = HilbertElement(nodes=(0.0, 0.5, 1.5), values=(0.0, 0.3, 0.0))
    with pytest.raises(PositionOutOfRange, match="beyond"):
        transform_hat(OMEGA_MID, f, 4.0)


def test_transform_requires_compact_support():
    f = HilbertElement(nodes=(0.0, 0.5), values=(0.0, 0.3))
    with pytest.raises(UnsupportedShape):
        transform_hat(OMEGA_MID, f, 4.0)


def test_transform_rejects_f2_off_upsilon_atoms():
    f = HilbertElement(nodes=(0.0,), values=(0.0,), f2_atoms=((0.25, 1.0),))
    with pytest.raises(UnsupportedShape):
        transform_hat(UPS_MID, f, 2.0)


def test_sign_law_on_random_strings():
    rng = np.random.default_rng(33)
    for _ in range(8):
        spec = catalog.random_discrete_string(rng)
        eigs = discrete_eigenvalues(spec)
        predicted = classify(spec).nonneg_spectrum_predicted
        assert (all(l >= 0.0 for l in eigs)) == predicted
