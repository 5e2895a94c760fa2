"""Acceptance checks: ten headline guarantees at their stated tolerances.

Each test prints one [PASS]/[FAIL] line with its measured margin, so a full
run reads as a checklist; the assertion enforces the same condition.
"""

import numpy as np

from indefstring import catalog
from indefstring.canonical import canonical_m_grid, hamiltonian_to_string, string_to_hamiltonian
from indefstring.coefficients import spec_discrepancy
from indefstring.convergence import (
    StringSequence,
    m_convergence_check,
    mollified_family,
    string_convergence_check,
)
from indefstring.propagation import fundamental_system
from indefstring.spectral import (
    _richardson,
    discrete_eigenvalues,
    hilbert_norm_squared,
    norm_squared_in_measure,
    point_evaluator,
    spectral_measure_discrete,
    stieltjes_inversion,
    transform_hat,
)
from indefstring.weyl import (
    classify,
    integral_rep_constants,
    standard_grid,
    weyl_m,
)

MODERATE_ZS = (1.3 + 0.7j, -2.0 + 1.0j, 0.5 + 2.0j)
COMPACT_ZS = (3 + 0.3j, 2.5 + 0.6j)


def _report(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_01_closed_form_weyl_functions(capsys):
    zs = standard_grid()
    cases = (
        (catalog.uniform_string(),
         lambda z: -1.0 / (np.tan(np.sqrt(z)) * np.sqrt(z)), 1e-8),
        (catalog.uniform_halfline(), lambda z: 1j / np.sqrt(z), 1e-7),
        (catalog.negative_uniform_string(),
         lambda z: -1.0 / (np.tanh(np.sqrt(z)) * np.sqrt(z)), 1e-8),
    )
    ok, worst = True, 0.0
    for spec, ref, tol in cases:
        err = max(abs(weyl_m(spec, complex(z)).m - ref(complex(z))) for z in zs)
        ok = ok and err < tol
        worst = max(worst, err)
    _report(capsys, ok, "closed-form Weyl agreement on the 7x7 grid",
            f"max error {worst:.2e}")


def test_02_atomic_strings_match_rational_forms(capsys):
    zs = standard_grid()
    cases = (
        (catalog.omega_atom_origin(), lambda z: 2.0 - 1.0 / z),
        (catalog.omega_atom_middle(), lambda z: -1.0 / z + 1.0 / (4.0 - z)),
        (catalog.omega_atom_middle(mass=-1.0), lambda z: -1.0 / z - 1.0 / (4.0 + z)),
        (catalog.upsilon_atom_origin(), lambda z: 3.0 * z - 1.0 / z),
        (catalog.upsilon_atom_middle(),
         lambda z: -1.0 / z + 0.5 / (2.0 - z) - 0.5 / (2.0 + z)),
    )
    worst = max(
        abs(weyl_m(spec, complex(z)).m - ref(complex(z)))
        for spec, ref in cases
        for z in zs
    )
    _report(capsys, worst < 1e-12, "atomic Weyl functions are exact",
            f"max error {worst:.2e} (tol 1e-12)")


def test_03_randomized_transform_roundtrips(capsys):
    rng = np.random.default_rng(1234)
    worst_len = worst_shape = 0.0
    for _ in range(10):
        spec = catalog.random_atomic_omega_string(rng)
        back = hamiltonian_to_string(string_to_hamiltonian(spec))
        parts = spec_discrepancy(spec, back)
        worst_len = max(worst_len, parts["length"])
        worst_shape = max(worst_shape, parts["w_primitive"], parts["sigma_primitive"])
    ok = worst_len <= 1e-12 and worst_shape < 1e-9
    _report(capsys, ok, "string -> Hamiltonian -> string roundtrips",
            f"max length defect {worst_len:.2e}, max shape defect {worst_shape:.2e}")


def test_04_canonical_route_matches_direct_route(capsys):
    zs = standard_grid()
    worst = 0.0
    for _, spec in catalog.CANONICAL_SPECS:
        ham = string_to_hamiltonian(spec, mesh=1024)
        mc = canonical_m_grid(ham, zs)
        mw = np.array([weyl_m(spec, complex(z)).m for z in zs])
        worst = max(worst, float(np.max(np.abs(mc - mw))))
    ref = np.array([-1.0 / (np.tan(np.sqrt(complex(z))) * np.sqrt(complex(z))) for z in zs])
    errs = []
    for mesh in (64, 256, 1024):
        ham = string_to_hamiltonian(catalog.uniform_string(), mesh=mesh)
        errs.append(float(np.max(np.abs(canonical_m_grid(ham, zs) - ref))))
    order = np.log(errs[0] / errs[2]) / np.log(16.0)
    ok = worst < 1e-6 and errs[0] > errs[1] > errs[2] and order >= 1.95
    _report(capsys, ok, "canonical-system route agrees with the string route",
            f"max gap {worst:.2e} (tol 1e-6); mesh convergence order {order:.3f}")


def _fitted_constant(spec, name: str) -> float:
    """c1, inv_L or c2 fitted to m as the representation predicts: c1 from
    Im m(i eta)/eta and c2 from Re m(i eta), eta = 1e2..1e6, and 1/L from
    Re(-i e m(i e)), e = 1e-2..1e-6, each extrapolated by _richardson."""
    if name == "inv_L":
        eps = [10.0 ** (-k) for k in range(2, 7)]
        return _richardson([(-1j * e * weyl_m(spec, 1j * e).m).real for e in eps], 10.0, (1, 2))
    etas = [10.0 ** k for k in range(2, 7)]
    ms = [weyl_m(spec, 1j * eta).m for eta in etas]
    if name == "c1":
        return _richardson([m.imag / eta for m, eta in zip(ms, etas)], 10.0, (2, 4))
    return _richardson([m.real for m in ms], 10.0, (1, 2))


def test_05_small_z_and_large_z_constants(capsys):
    # integral_rep_constants reads the constants off the string; m fitted at
    # large and small i eta must agree with that reading.
    cases = (
        (catalog.upsilon_atom_origin(), "c1", 3.0),
        (catalog.empty_string(1.0), "inv_L", 1.0),
        (catalog.empty_string(2.0), "inv_L", 0.5),
        (catalog.upsilon_lebesgue_halfline(), "inv_L", 0.0),
        (catalog.omega_atom_origin(), "c2", 2.0),
    )
    read = [getattr(integral_rep_constants(spec), name) for spec, name, _ in cases]
    worst = max(abs(_fitted_constant(spec, name) - value)
                for (spec, name, _), value in zip(cases, read))
    exact = read == [value for _, _, value in cases]
    _report(capsys, exact and worst < 1e-6, "representation constants (c1, 1/L, origin mass)",
            f"max defect of the m fit {worst:.2e} (tol 1e-6)")


def test_06_herglotz_symmetry_and_sign_laws(capsys):
    zs = standard_grid()
    min_im, worst_sym, mismatches = np.inf, 0.0, 0
    for _, spec in catalog.REGRESSION_SPECS:
        ms = np.array([weyl_m(spec, complex(z)).m for z in zs])
        min_im = min(min_im, float(np.min(ms.imag)))
        conj = np.array([weyl_m(spec, complex(np.conj(z))).m for z in zs])
        worst_sym = max(worst_sym, float(np.max(np.abs(conj - np.conj(ms)))))
        flags = classify(spec)
        if flags.stieltjes != flags.stieltjes_structural:
            mismatches += 1
    rng = np.random.default_rng(77)
    for _ in range(20):
        spec = catalog.random_discrete_string(rng)
        nonneg = all(lam >= 0.0 for lam in discrete_eigenvalues(spec))
        if nonneg != classify(spec).nonneg_spectrum_predicted:
            mismatches += 1
    ok = min_im >= -1e-8 and worst_sym <= 1e-12 and mismatches == 0
    _report(capsys, ok, "Herglotz positivity, conjugation symmetry, sign laws",
            f"min Im m {min_im:.2e}, symmetry defect {worst_sym:.2e}, "
            f"mismatches {mismatches}")


def test_07_measure_recovery_by_boundary_values(capsys):
    mu = stieltjes_inversion(catalog.uniform_string(), (5.0, 45.0))
    targets = (np.pi ** 2, 4.0 * np.pi ** 2)
    ok = len(mu.atoms) == 2
    worst_pos = worst_mass = np.inf
    if ok:
        worst_pos = max(abs(lam - t) / t for (lam, _), t in zip(mu.atoms, targets))
        worst_mass = max(abs(m - 2.0) for _, m in mu.atoms)
        ok = worst_pos < 0.01 and worst_mass < 0.02
    spec = catalog.omega_atom_middle()
    found = stieltjes_inversion(spec, (1.0, 6.0))
    exact = spectral_measure_discrete(spec)
    gap = max(
        abs(found.atoms[0][0] - exact.atoms[0][0]),
        abs(found.atoms[0][1] - exact.atoms[0][1]),
    )
    ok = ok and len(found.atoms) == 1 and gap < 1e-3
    _report(capsys, ok, "spectral measure recovered from boundary values",
            f"uniform-string atom defect {worst_pos:.2e} rel / {worst_mass:.2e} mass; "
            f"atomic cross-check gap {gap:.2e}")


def test_08_parseval_identity_for_a_point_evaluator(capsys):
    spec = catalog.omega_atom_middle()
    f = point_evaluator(spec, 0.5)
    mu = spectral_measure_discrete(spec)
    lhs = norm_squared_in_measure(mu, lambda lam: transform_hat(spec, f, lam))
    rhs = hilbert_norm_squared(spec, f)
    gap = max(abs(lhs - 0.25), abs(rhs - 0.25))
    _report(capsys, gap <= 1e-12, "Parseval identity for the midpoint evaluator",
            f"both sides equal 1/4 within {gap:.2e} (tol 1e-12)")


def test_09_propagation_and_hamiltonian_invariants(capsys):
    worst_wron = 0.0
    for _, spec in catalog.REGRESSION_SPECS:
        length = spec.length
        xs = ([length * f for f in (0.25, 0.6, 0.95)]
              if np.isfinite(length) else [0.5, 1.5, 2.5])
        for z in MODERATE_ZS:
            fs = fundamental_system(spec, z, xs)
            worst_wron = max(worst_wron, abs(fs.wronskian - 1.0))
    # The canonical U(s) is the fundamental system in travel gauge, so its
    # determinant is the Wronskian above.
    worst_trace = 0.0
    min_det = np.inf
    rng = np.random.default_rng(5)
    hams = [string_to_hamiltonian(spec, mesh=256) for _, spec in catalog.CANONICAL_SPECS]
    hams += [string_to_hamiltonian(catalog.random_discrete_string(rng)) for _ in range(5)]
    for ham in hams:
        _, h11, h12 = ham.pieces.T
        h22 = 1.0 - h11
        worst_trace = max(worst_trace, float(np.max(np.abs(h11 + h22 - 1.0))))
        min_det = min(min_det, float(np.min(h11 * h22 - h12 * h12)))
    ok = worst_wron < 1e-10 and worst_trace == 0.0 and min_det >= -1e-12
    _report(capsys, ok, "Wronskian (= det U), trace, and det H invariants",
            f"wronskian drift {worst_wron:.2e}, "
            f"trace defect {worst_trace:.1e}, min det {min_det:.2e}")


def test_10_mollified_families_converge_and_diverge_as_predicted(capsys):
    fam = mollified_family(catalog.omega_atom_origin(mass=1.0))
    recorded = [complex(a, b)
                for a in np.linspace(2.0, 4.0, 5) for b in np.linspace(0.1, 1.0, 5)]
    sups = {}
    for label, grid in (("standard", standard_grid()), ("recorded", recorded)):
        m_lim = np.array([weyl_m(fam.limit, complex(z)).m for z in grid])
        sups[label] = [
            float(np.max(np.abs(np.array([weyl_m(s, complex(z)).m for z in grid]) - m_lim)))
            for s in fam.specs
        ]
    monotone = all(a > b for seq in sups.values() for a, b in zip(seq, seq[1:]))
    ok = monotone and sups["recorded"][-1] < 1e-2
    constant = StringSequence(specs=(catalog.mixed_example(),) * 3,
                              limit=catalog.mixed_example())
    diverging = StringSequence(
        specs=tuple(catalog.omega_atom_origin(mass=float(n)) for n in (4, 16, 64))
    )
    verdicts = []
    for family in (fam, constant, diverging):
        via_string = string_convergence_check(family).verdict
        via_m = m_convergence_check(family, zs=COMPACT_ZS).verdict
        verdicts.append((via_string, via_m))
        ok = ok and via_string == via_m
    ok = ok and verdicts[-1][0] == "diverges-to-inf"
    _report(capsys, ok, "family convergence and verdict agreement",
            f"sup errors {['%.3g' % v for v in sups['recorded']]} on the recorded grid; "
            f"verdicts {verdicts}")
