"""Spectral measures, eigenvalues, Green kernel, and the eigenfunction transform.

For strings with finite length and purely atomic data the eigenproblem is the
quadratic pencil T u = (l A + l^2 M) u on the atom nodes (T the Dirichlet
stiffness matrix of the gaps, A and M the omega and upsilon masses).  Its
linearization in 1/l gives the start values, each polished by Newton steps on
phi(l, L) from the extended-precision node recurrence; spectral-measure masses
are the exact residues 1/(norming constant) from the same recurrence.

For general strings the measure is recovered from boundary values of the Weyl
function: (1/pi) Im m(l + i*eps) concentrates as Lorentzians of width eps at
point masses, so atoms are located by peak search, refined per eps by one
golden-section search over all candidates together (one evaluator call per
step), and their masses extrapolated from eps * Im m at the peak.  The
representation term -1/(L z) would masquerade as a point mass at 0; windows
must therefore stay away from 0.

The model Hilbert space pairs a first component with finite Dirichlet energy
and f1(0) = 0 against a second component square-summable over the upsilon
point masses; norms, point evaluators, the Green kernel, the transform
f_hat(l) = int phi'(l,x) f1'(x) dx + l * sum mu_q f2(q) phi(l,q), and the
projection energy used by the Parseval identity are all closed-form for
piecewise-linear data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import StringSpec, coefficient_view
from .errors import (
    ComputationError,
    NotAtomic,
    NotFiniteLength,
    PositionOutOfRange,
    UnsupportedShape,
    ValidationError,
    WindowTouchesAtomZero,
)
from .weyl import _richardson, m_truncated, weyl_m_grid, weyl_solution_psi
from .propagation import fundamental_system

_MAX_ATOMS = 64


@dataclass(frozen=True)
class SpectralMeasure:
    """Point part of a spectral measure plus an optional continuous proxy.

    ``continuous_samples`` holds (l, (1/pi) Im m(l + i*eps)) pairs at the
    smallest eps used; ``epsilon_used`` records that eps (None for exact
    residue-based measures).
    """

    atoms: tuple[tuple[float, float], ...]
    continuous_samples: tuple[tuple[float, float], ...] | None = None
    epsilon_used: float | None = None

    def total_mass(self) -> float:
        return sum(m for _, m in self.atoms)


def measure_to_json(mu: SpectralMeasure) -> dict:
    doc = {"atoms": [{"lambda": l, "mass": m} for l, m in mu.atoms]}
    if mu.epsilon_used is not None:
        doc["epsilon_used"] = mu.epsilon_used
    if mu.continuous_samples is not None:
        doc["continuous_samples"] = [
            {"lambda": l, "density": d} for l, d in mu.continuous_samples
        ]
    return doc


def measure_from_json(doc) -> SpectralMeasure:
    atoms = tuple((float(d["lambda"]), float(d["mass"])) for d in doc.get("atoms", ()))
    cont = doc.get("continuous_samples")
    samples = (
        tuple((float(d["lambda"]), float(d["density"])) for d in cont)
        if cont is not None
        else None
    )
    return SpectralMeasure(atoms=atoms, continuous_samples=samples,
                           epsilon_used=doc.get("epsilon_used"))


@dataclass(frozen=True)
class HilbertElement:
    """Element of the model space: piecewise-linear first component given by
    ``nodes``/``values`` (constant after the last node, f1(0) = 0) and second
    component ``f2_atoms`` as (position, value) pairs on upsilon point masses."""

    nodes: tuple[float, ...]
    values: tuple[float, ...]
    f2_atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if len(self.nodes) != len(self.values) or not self.nodes:
            raise ValidationError("nodes and values must align and be non-empty")
        if self.nodes[0] != 0.0 or self.values[0] != 0.0:
            raise ValidationError("elements start at f1(0) = 0")
        if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValidationError("nodes must be strictly increasing")

    def f1(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        j = int(np.searchsorted(np.asarray(self.nodes), x, side="right")) - 1
        if j + 1 >= len(self.nodes):
            return self.values[-1]
        a, b = self.nodes[j], self.nodes[j + 1]
        va, vb = self.values[j], self.values[j + 1]
        return va + (vb - va) * (x - a) / (b - a)

    def segments(self) -> tuple[tuple[float, float, float], ...]:
        """(a, b, slope) pieces of the first component; zero-slope pieces kept."""
        out = []
        for (a, b, va, vb) in zip(self.nodes, self.nodes[1:], self.values, self.values[1:]):
            out.append((a, b, (vb - va) / (b - a)))
        return tuple(out)


def point_evaluator(spec: StringSpec, x: float) -> HilbertElement:
    """The element reproducing f1(x) under the model inner product."""
    if not 0.0 < x < spec.length:
        raise PositionOutOfRange(f"evaluation point {x} outside (0, {spec.length})")
    if math.isfinite(spec.length):
        peak = x * (1.0 - x / spec.length)
        return HilbertElement(nodes=(0.0, x, spec.length), values=(0.0, peak, 0.0))
    return HilbertElement(nodes=(0.0, x), values=(0.0, x))


def _f2_lookup(f: HilbertElement):
    return {p: v for p, v in f.f2_atoms}


def hilbert_inner(spec: StringSpec, f: HilbertElement, g: HilbertElement) -> float:
    """Model inner product: Dirichlet pairing of the first components plus the
    upsilon-atom-weighted pairing of the second."""
    cuts = sorted({*f.nodes, *g.nodes})
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        sf = _slope_at(f, mid)
        sg = _slope_at(g, mid)
        total += sf * sg * (b - a)
    gf2 = _f2_lookup(g)
    ff2 = _f2_lookup(f)
    for pos, mass in spec.upsilon.atoms:
        total += mass * ff2.get(pos, 0.0) * gf2.get(pos, 0.0)
    return total


def _slope_at(f: HilbertElement, x: float) -> float:
    for a, b, s in f.segments():
        if a <= x < b:
            return s
    return 0.0


def hilbert_norm_squared(spec: StringSpec, f: HilbertElement) -> float:
    return hilbert_inner(spec, f, f)


# -- eigenvalues and exact measures of finite atomic strings -----------------


def _require_discrete(spec: StringSpec) -> None:
    if not math.isfinite(spec.length):
        raise NotFiniteLength("eigenvalue extraction needs a finite string")
    if not (spec.omega.is_atomic() and spec.upsilon.is_atomic()):
        raise NotAtomic("eigenvalue extraction needs purely atomic measures")
    if len(spec.omega.atoms) + len(spec.upsilon.atoms) > _MAX_ATOMS:
        raise UnsupportedShape(f"more than {_MAX_ATOMS} point masses")


def _phi_scan(spec: StringSpec, lam: float,
              record=()) -> tuple[float, float, float, dict[float, float]]:
    """Propagate phi(lam, .) across an atomic string by direct recurrence.

    Returns (phi(L), d phi(L)/d lam, norming, values) where the norming
    constant is the squared energy of the eigen-pair candidate,
    int phi'(x)^2 dx + lam^2 * int phi^2 d(upsilon), and ``values`` maps each
    position in ``record`` to phi there.  The derivative in the spectral
    parameter is carried alongside (product rule per step) for Newton root
    polishing.  Intermediates are kept in extended precision: a solution that
    decays across the string loses relative accuracy to forward recurrence at
    a rate set by the atom jump factors, and the extra mantissa bits keep that
    loss below double roundoff.
    """
    view = coefficient_view(spec)
    lam = np.longdouble(lam)
    one = np.longdouble(1.0)
    phi, slope = one * 0.0, one
    dphi, dslope = one * 0.0, one * 0.0
    norming = one * 0.0
    wanted = sorted(set(record))
    values: dict[float, float] = {}
    wi = 0
    bps = list(view.bp)
    for j, pos in enumerate(bps):
        alpha = np.longdouble(view.atom_omega[j])
        mu = np.longdouble(view.atom_upsilon[j])
        if alpha != 0.0 or mu != 0.0:
            drop = -(alpha * lam + mu * lam * lam)
            dslope += -(alpha + 2.0 * mu * lam) * phi + drop * dphi
            slope += drop * phi
            norming += mu * (lam * phi) ** 2
        nxt = bps[j + 1] if j + 1 < len(bps) else spec.length
        while wi < len(wanted) and pos <= wanted[wi] <= nxt:
            values[wanted[wi]] = float(phi + (np.longdouble(wanted[wi]) - pos) * slope)
            wi += 1
        h = np.longdouble(nxt) - pos
        if h > 0.0:
            if np.isinf(h):
                break
            norming += h * slope * slope
            dphi += h * dslope
            phi += h * slope
    return float(phi), float(dphi), float(norming), values


def discrete_eigenvalues(spec: StringSpec, window: tuple[float, float] | None = None) -> list[float]:
    """All eigenvalues (roots of phi(., L)) of a finite atomic string,
    optionally restricted to a window; each is checked nonzero and simple.

    The start values are the mu = 1/l of the pencil, linearized to
    [[0, I], [T^-1 M, T^-1 A]] on the n positive atom nodes (phi(., 0) = 0, so
    an atom at 0 does not act).  deg phi(., L) = n + #(upsilon nodes) of them
    are nonzero and the rest come back at rounding level.  A complex pair among
    the kept ones (rounding: the spectrum is real) polishes onto real roots or
    trips the simplicity check, so no root is dropped silently.
    """
    _require_discrete(spec)
    view = coefficient_view(spec)
    node = (view.bp > 0.0) & ((view.atom_omega != 0.0) | (view.atom_upsilon != 0.0))
    alpha, beta = view.atom_omega[node], view.atom_upsilon[node]
    inv_h = 1.0 / np.diff(np.concatenate(([0.0], view.bp[node], [spec.length])))
    stiff = np.diag(inv_h[:-1] + inv_h[1:]) - np.diag(inv_h[1:-1], 1) - np.diag(inv_h[1:-1], -1)
    tinv = np.linalg.inv(stiff)
    n = len(alpha)
    mus = np.linalg.eigvals(np.block([[np.zeros((n, n)), np.eye(n)], [tinv * beta, tinv * alpha]]))
    roots = []
    for mu in mus[np.argsort(-np.abs(mus))[:n + np.count_nonzero(beta)]]:
        lam = 1.0 / float(mu.real)
        for _ in range(6):
            val, der, _, _ = _phi_scan(spec, lam)
            if der == 0.0:
                break
            step = val / der
            lam -= step
            if abs(step) <= 1e-16 * (1.0 + abs(lam)):
                break
        roots.append(lam)
    roots.sort()
    kept = []
    for lam in roots:
        if kept and abs(lam - kept[-1]) <= 1e-8 * (1.0 + abs(lam)):
            raise ComputationError(f"eigenvalues {kept[-1]} and {lam} are not resolved as simple")
        kept.append(lam)
    if any(abs(lam) <= 1e-12 for lam in kept):
        raise ComputationError("spurious eigenvalue at 0; all eigenvalues must be nonzero")
    if window is not None:
        lo, hi = window
        kept = [lam for lam in kept if lo <= lam <= hi]
    return kept


def spectral_measure_discrete(spec: StringSpec,
                              window: tuple[float, float] | None = None) -> SpectralMeasure:
    """Exact point spectral measure of a finite atomic string, optionally
    restricted to a window.

    Masses are the (negated) residues of the Weyl function at its poles,
    evaluated in the equivalent inverse-norming form 1/(int phi'^2 dx +
    lam^2 int phi^2 d upsilon): a sum of non-negative terms, so it does not
    cancel the way theta(l, L)/(l phi_l'(l, L)) can.  Its extended-precision
    recurrence is not enough beyond about 24 omega or 8 omega + 2 upsilon
    atoms: larger strings get wrong masses with no error (README Limitations).
    """
    lams = discrete_eigenvalues(spec, window)
    atoms = []
    for lam in lams:
        _, _, norming, _ = _phi_scan(spec, lam)
        if not (norming > 0.0 and math.isfinite(norming)):
            raise ComputationError(f"degenerate norming constant {norming} at {lam}")
        atoms.append((lam, 1.0 / norming))
    return SpectralMeasure(atoms=tuple(atoms))


# -- Stieltjes inversion ------------------------------------------------------


def _spec_evaluator(spec: StringSpec):
    if math.isfinite(spec.length):
        endpoint = spec.length

        def ev(zs: np.ndarray) -> np.ndarray:
            return np.asarray(m_truncated(spec, zs, endpoint))

        return ev

    def ev(zs: np.ndarray) -> np.ndarray:
        return np.array([s.m for s in weyl_m_grid(spec, zs)])

    return ev


def _golden_peaks(ev, e: float, centers: np.ndarray,
                  half: float) -> tuple[np.ndarray, np.ndarray]:
    """Maxima of l -> Im ev(l + i*e) on [center - half, center + half], one
    golden-section search per center run in lockstep.

    Every bracket takes the steps a lone search would take, and the new
    interior points of all brackets still wider than their tolerance are
    evaluated in one ``ev`` call.  Returns (positions, e * Im ev there).
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    tol = 1e-9 * (1.0 + np.abs(centers))
    a, b = centers - half, centers + half
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    n = len(centers)
    f = np.asarray(ev(np.concatenate((c, d)) + 1j * e)).imag
    fc, fd = f[:n], f[n:]
    active = np.flatnonzero(b - a > tol)
    while active.size:
        left = fc[active] > fd[active]
        lk, rk = active[left], active[~left]
        b[lk], d[lk], fd[lk] = d[lk], c[lk], fc[lk]
        c[lk] = b[lk] - invphi * (b[lk] - a[lk])
        a[rk], c[rk], fc[rk] = c[rk], d[rk], fd[rk]
        d[rk] = a[rk] + invphi * (b[rk] - a[rk])
        f = np.asarray(ev(np.concatenate((c[lk], d[rk])) + 1j * e)).imag
        fc[lk], fd[rk] = f[:lk.size], f[lk.size:]
        active = active[b[active] - a[active] > tol[active]]
    pos = 0.5 * (a + b)
    return pos, e * np.asarray(ev(pos + 1j * e)).imag


def _checked_window(window, eps) -> tuple[float, float, list[float]]:
    """(lo, hi, eps in decreasing order) after the checks shared by every
    route to a measure on a window."""
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValidationError(f"window ({lo}, {hi}) is empty")
    if lo <= 0.0 <= hi:
        raise WindowTouchesAtomZero("window must exclude 0")
    eps = sorted((float(e) for e in eps), reverse=True)
    if len(eps) < 2:
        # The mass stability test needs two eps; without it every rounding
        # peak of Im m would be reported as an atom.
        raise ValidationError(f"need at least two eps values, got {len(eps)}")
    if not eps[-1] > 0.0:
        raise ValidationError("eps values must be positive")
    return lo, hi, eps


def stieltjes_inversion(source, window: tuple[float, float],
                        eps=(1e-2, 1e-3, 1e-4)) -> SpectralMeasure:
    """Recover the point part of the spectral measure on a real window.

    ``source`` is a string spec or a vectorized callable z -> m(z).  Peaks of
    Im m(l + i*eps0) seed candidate atoms; at every eps all locations are
    re-maximized together, one evaluator call per golden-section step for all
    candidates, and eps * Im m at the peak is extrapolated in eps^2.  A mass
    estimate that moves more than 5% across the two finest eps decades is
    rejected as not atomic, so at least two eps values are required.  Windows
    must exclude 0, where the finite-length representation term would fake a
    point mass.
    """
    lo, hi, eps = _checked_window(window, eps)
    if callable(source):
        ev = source
    else:
        ev = _spec_evaluator(source)

    e0 = eps[0]
    npts = int(min(max(math.ceil((hi - lo) / (e0 / 4.0)) + 1, 101), 200_001))
    lam = np.linspace(lo, hi, npts)
    im0 = np.asarray(ev(lam + 1j * e0)).imag
    inner = im0[1:-1]
    peaks = lam[1:-1][(inner >= im0[:-2]) & (inner > im0[2:]) & (e0 * inner > 1e-6)]
    candidates = []
    for l in peaks:
        if not (candidates and l - candidates[-1] < 4.0 * e0):
            candidates.append(float(l))

    atoms = []
    if candidates:
        pos, half, masses = np.array(candidates), 2.0 * e0, []
        for e in eps:
            pos, mass = _golden_peaks(ev, e, pos, half)
            masses.append(mass)
            half = 2.0 * e
        for p, mk in zip(pos.tolist(), np.transpose(masses).tolist()):
            if mk[-1] <= 0.0 or abs(mk[-1] - mk[-2]) > 0.05 * abs(mk[-1]):
                continue
            atoms.append((p, _richardson(mk, 10.0, (2,))))

    stride = max(1, npts // 512)
    e_min = eps[-1]
    im_min = np.asarray(ev(lam[::stride] + 1j * e_min)).imag
    cont = tuple((float(l), float(v / math.pi)) for l, v in zip(lam[::stride], im_min))
    return SpectralMeasure(atoms=tuple(atoms), continuous_samples=cont, epsilon_used=e_min)


# -- Green kernel and the transform -------------------------------------------


def green_kernel(spec: StringSpec, z: complex, x: float, t: float) -> np.ndarray:
    """Resolvent kernel value (both components) at (x, t); symmetric in (x, t)."""
    z = complex(z)
    lo, hi = (x, t) if x <= t else (t, x)
    psi = weyl_solution_psi(spec, z, [lo, hi])
    fs = fundamental_system(spec, z, [lo, hi])
    wron = psi[0].f * fs.phi[0].quasi - psi[0].quasi * fs.phi[0].f
    g1 = psi[1].f * fs.phi[0].f / wron
    return np.array([g1, z * g1])


def transform_hat(spec: StringSpec, f: HilbertElement, lambdas) -> np.ndarray:
    """Eigenfunction transform of a compactly supported element.

    f_hat(l) = sum_pieces slope * (phi(l, b) - phi(l, a))
             + l * sum_atoms mu_q f2(q) phi(l, q).
    """
    if f.values[-1] != 0.0:
        raise UnsupportedShape("transform needs the first component to return to 0")
    if math.isfinite(spec.length) and f.nodes[-1] > spec.length:
        raise PositionOutOfRange("element extends beyond the string")
    upsilon_atoms = dict(spec.upsilon.atoms)
    for pos, val in f.f2_atoms:
        if val != 0.0 and pos not in upsilon_atoms:
            raise UnsupportedShape(
                f"second component value at {pos}, which carries no upsilon point mass"
            )
    pts = sorted({*f.nodes, *(p for p, _ in f.f2_atoms)} - {0.0})
    atomic = spec.omega.is_atomic() and spec.upsilon.is_atomic()
    lamarr = np.atleast_1d(np.asarray(lambdas, dtype=float))
    out = np.zeros(lamarr.shape, dtype=float)
    for k, lam in enumerate(lamarr):
        phi_at = {0.0: 0.0}
        if pts and atomic:
            phi_at.update(_phi_scan(spec, float(lam), record=pts)[3])
        elif pts:
            fs = fundamental_system(spec, float(lam), pts)
            for st in fs.phi:
                phi_at[st.x] = st.f.real
        acc = 0.0
        for a, b, slope in f.segments():
            acc += slope * (phi_at[b] - phi_at[a])
        for pos, val in f.f2_atoms:
            if val != 0.0:
                acc += lam * upsilon_atoms[pos] * val * phi_at[pos]
        out[k] = acc
    return out if np.ndim(lambdas) else float(out[0])


def norm_squared_in_measure(mu: SpectralMeasure, fhat_at) -> float:
    """sum mass * |fhat(l)|^2 over the point part of mu; ``fhat_at`` maps l to
    the transform value."""
    return sum(m * abs(fhat_at(l)) ** 2 for l, m in mu.atoms)


def projection_energy(spec: StringSpec, f: HilbertElement) -> float:
    """Squared norm of the projection onto the transform's initial subspace,
    for finite strings with purely atomic omega.

    The first component projects onto the span of the point evaluators at the
    positions carrying any point mass (Gram matrix of the reproducing kernel);
    the transform reads f1 only there.  The second component passes through
    unchanged.  Point masses sitting at 0 contribute nothing: their evaluator
    is the zero element and phi(., 0) = 0.
    """
    _require_discrete(spec)
    positions = sorted({x for x, _ in spec.omega.atoms if x > 0.0}
                       | {x for x, _ in spec.upsilon.atoms if x > 0.0})
    energy = 0.0
    if positions:
        length = spec.length
        k = lambda a, b: min(a, b) * (1.0 - max(a, b) / length)
        gram = np.array([[k(a, b) for b in positions] for a in positions])
        vec = np.array([f.f1(x) for x in positions])
        energy += float(vec @ np.linalg.solve(gram, vec))
    f2 = _f2_lookup(f)
    for pos, mass in spec.upsilon.atoms:
        if pos > 0.0:
            energy += mass * f2.get(pos, 0.0) ** 2
    return energy
