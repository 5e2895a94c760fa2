"""Spectral measures, eigenvalues, Green kernel, and the eigenfunction transform.

For strings with finite length and purely atomic data the eigenproblem is the
quadratic pencil T u = (l A + l^2 M) u on the atom nodes (T the Dirichlet
stiffness matrix of the gaps, A and M the omega and upsilon masses).  Its
linearization in 1/l gives the start values.  One extended-precision
recurrence over the same nodes evaluates phi(l, L), its l-derivative and the
norming constant at a whole array of l: Newton polishes all start values in
lockstep on it, and the spectral-measure masses, the exact residues
1/(norming constant), come from one more call at all eigenvalues; each is
checked against the residue read off one Weyl evaluation just above all the
eigenvalues, which replaces a mass that the recurrence got wrong.

For general strings the measure is recovered from boundary values of the Weyl
function: (1/pi) Im m(l + i*eps) concentrates as Lorentzians of width eps at
point masses, so atoms are located by peak search (a peak must bend more
than the scan's own noise) and refined at every eps by one section search
over all candidates and all eps together (each evaluator call samples 16
points per bracket and shrinks it 8.5-fold, and a parabola through the best
samples places the peak); positions and the masses eps * Im m at the peak
are then extrapolated in eps.  The representation term -1/(L z) would
masquerade as a point mass at 0; windows must therefore stay away from 0.

The model Hilbert space pairs a first component with finite Dirichlet energy
and f1(0) = 0 against a second component square-summable over the upsilon
point masses; norms, point evaluators, the Green kernel, the transform
f_hat(l) = int phi'(l,x) f1'(x) dx + l * sum mu_q f2(q) phi(l,q), and the
projection energy used by the Parseval identity are all closed-form for
piecewise-linear data; the transform reads phi at the element's nodes for all
l from one propagation sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import StringSpec, _distinct, coefficient_view
from .errors import (
    ComputationError,
    ExtrapolationUnstable,
    NotAtomic,
    NotFiniteLength,
    PositionOutOfRange,
    UnsupportedShape,
    ValidationError,
    WindowTouchesAtomZero,
)
from .weyl import _m_values, integral_rep_constants, weyl_m
from .propagation import fundamental_system, transfer_matrices

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
        entries = (self.nodes, self.values, [c for pair in self.f2_atoms for c in pair])
        if not all(np.isfinite(np.asarray(e, dtype=float)).all() for e in entries):
            raise ValidationError("nodes, values and f2_atoms must be finite")
        if self.nodes[0] != 0.0 or self.values[0] != 0.0:
            raise ValidationError("elements start at f1(0) = 0")
        if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValidationError("nodes must be strictly increasing")

    def f1(self, x):
        """First component at ``x``, a position or an array of them."""
        return np.interp(x, self.nodes, self.values)


def point_evaluator(spec: StringSpec, x: float) -> HilbertElement:
    """The element reproducing f1(x) under the model inner product."""
    if not 0.0 < x < spec.length:
        raise PositionOutOfRange(f"evaluation point {x} outside (0, {spec.length})")
    if math.isfinite(spec.length):
        peak = x * (1.0 - x / spec.length)
        return HilbertElement(nodes=(0.0, x, spec.length), values=(0.0, peak, 0.0))
    return HilbertElement(nodes=(0.0, x), values=(0.0, x))


def hilbert_inner(spec: StringSpec, f: HilbertElement, g: HilbertElement) -> float:
    """Model inner product: Dirichlet pairing of the first components plus the
    upsilon-atom-weighted pairing of the second."""
    cuts = _distinct(f.nodes, g.nodes)
    total = float(np.sum(np.diff(f.f1(cuts)) * np.diff(g.f1(cuts)) / np.diff(cuts)))
    f2, g2 = dict(f.f2_atoms), dict(g.f2_atoms)
    for pos, mass in spec.upsilon.atoms:
        total += mass * f2.get(pos, 0.0) * g2.get(pos, 0.0)
    return total


def hilbert_norm_squared(spec: StringSpec, f: HilbertElement) -> float:
    return hilbert_inner(spec, f, f)


# -- eigenvalues and exact measures of finite atomic strings -----------------


def _nodes(spec: StringSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions and omega, upsilon masses of the atoms in (0, L) of a finite
    atomic string with at most ``_MAX_ATOMS`` point masses.  An atom at 0
    does not act on phi, since phi(., 0) = 0."""
    if not math.isfinite(spec.length):
        raise NotFiniteLength("eigenvalue extraction needs a finite string")
    if not (spec.omega.is_atomic() and spec.upsilon.is_atomic()):
        raise NotAtomic("eigenvalue extraction needs purely atomic measures")
    if len(spec.omega.atoms) + len(spec.upsilon.atoms) > _MAX_ATOMS:
        raise UnsupportedShape(f"more than {_MAX_ATOMS} point masses")
    view = coefficient_view(spec)
    node = (view.bp > 0.0) & ((view.atom_omega != 0.0) | (view.atom_upsilon != 0.0))
    return view.bp[node], view.atom_omega[node], view.atom_upsilon[node]


def _phi_recurrence(spec: StringSpec, lam) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi(l, L), d phi(l, L)/d l and the norming constant
    int phi'(l, x)^2 dx + l^2 int phi(l, x)^2 d upsilon at every l of ``lam``.

    phi is carried across the gaps and atom jumps of :func:`_nodes` with its
    l-derivative alongside (product rule per step).  Intermediates are kept
    in extended precision: a solution that decays across the string loses
    relative accuracy to forward recurrence at a rate set by the atom jump
    factors, and the extra mantissa bits keep that loss below double
    roundoff.  Each l runs through the same operations, so an array of l
    gives bit for bit the values of one-l calls.
    """
    x, alpha, beta = _nodes(spec)
    h = np.diff(np.concatenate(([0.0], x, [spec.length])).astype(np.longdouble))
    alpha, beta = alpha.astype(np.longdouble), beta.astype(np.longdouble)
    lam = np.asarray(lam, dtype=np.longdouble)
    phi = dphi = dslope = norming = np.zeros_like(lam)
    slope = np.ones_like(lam)
    for k in range(h.size):
        if k:
            a, b = alpha[k - 1], beta[k - 1]
            drop = -(a * lam + b * lam * lam)
            dslope = dslope + (-(a + 2.0 * b * lam) * phi + drop * dphi)
            slope = slope + drop * phi
            norming = norming + b * (lam * phi) ** 2
        norming = norming + h[k] * slope * slope
        dphi = dphi + h[k] * dslope
        phi = phi + h[k] * slope
    return phi.astype(float), dphi.astype(float), norming.astype(float)


def _window_edges(window) -> tuple[float, float]:
    """(lo, hi) of a closed window whose edges may be infinite, (-inf, inf)
    for None; raises :class:`ValidationError` for a NaN edge or lo > hi."""
    if window is None:
        return -math.inf, math.inf
    lo, hi = float(window[0]), float(window[1])
    if not lo <= hi:
        raise ValidationError(f"window ({lo}, {hi}) needs edges with lo <= hi")
    return lo, hi


def discrete_eigenvalues(spec: StringSpec, window: tuple[float, float] | None = None) -> list[float]:
    """All eigenvalues (roots of phi(., L)) of a finite atomic string,
    optionally restricted to a closed window (its edges may be infinite);
    each is checked nonzero and simple.

    The start values are the mu = 1/l of the pencil, linearized to
    [[0, I], [T^-1 M, T^-1 A]] on the n positive atom nodes (phi(., 0) = 0, so
    an atom at 0 does not act).  deg phi(., L) = n + #(upsilon nodes) of them
    are nonzero and the rest come back at rounding level.  Newton runs on all
    of them in lockstep, each stopping on its own.  A complex pair among the
    kept ones (rounding: the spectrum is real) polishes onto real roots or
    trips the simplicity check, so no root is dropped silently.  Raises
    :class:`ValidationError` for a window with a NaN edge or lo > hi.
    """
    lo, hi = _window_edges(window)
    x, alpha, beta = _nodes(spec)
    inv_h = 1.0 / np.diff(np.concatenate(([0.0], x, [spec.length])))
    stiff = np.diag(inv_h[:-1] + inv_h[1:]) - np.diag(inv_h[1:-1], 1) - np.diag(inv_h[1:-1], -1)
    tinv = np.linalg.inv(stiff)
    n = len(alpha)
    mus = np.linalg.eigvals(np.block([[np.zeros((n, n)), np.eye(n)], [tinv * beta, tinv * alpha]]))
    with np.errstate(divide="ignore"):
        lam = 1.0 / mus[np.argsort(-np.abs(mus))[:n + np.count_nonzero(beta)]].real
    # Newton steps for the roots in ``active``; a root stops at a zero
    # derivative or once its step is at most 1e-16 (1 + |l|).
    active = np.arange(lam.size)
    for _ in range(6):
        if not active.size:
            break
        val, der, _ = _phi_recurrence(spec, lam[active])
        go = der != 0.0
        active, step = active[go], val[go] / der[go]
        lam[active] -= step
        active = active[~(np.abs(step) <= 1e-16 * (1.0 + np.abs(lam[active])))]
    if not np.all(np.isfinite(lam)):
        raise ComputationError("Newton iteration left a non-finite eigenvalue")
    lam.sort()
    close = np.flatnonzero(np.diff(lam) <= 1e-8 * (1.0 + np.abs(lam[1:])))
    if close.size:
        k = close[0]
        raise ComputationError(f"eigenvalues {lam[k]} and {lam[k + 1]} are not resolved as simple")
    if np.any(np.abs(lam) <= 1e-12):
        raise ComputationError("spurious eigenvalue at 0; all eigenvalues must be nonzero")
    return lam[(lo <= lam) & (lam <= hi)].tolist()


def spectral_measure_discrete(spec: StringSpec,
                              window: tuple[float, float] | None = None) -> SpectralMeasure:
    """Exact point spectral measure of a finite atomic string, optionally
    restricted to a window (checked as in :func:`discrete_eigenvalues`).

    Masses are the (negated) residues of the Weyl function at its poles,
    evaluated in the equivalent inverse-norming form 1/(int phi'^2 dx +
    lam^2 int phi^2 d upsilon): a sum of non-negative terms, so it does not
    cancel the way theta(l, L)/(l phi_l'(l, L)) can.  Its extended-precision
    recurrence is not enough on larger strings (beyond about 24 omega or
    8 omega + 2 upsilon atoms, and sometimes on fewer).  So every mass is
    checked against the residue e Im(m(z) - c1 z) at z = l + i e,
    e = 1e-9 |l|, with c1 = upsilon({0}): one Weyl evaluation at all
    eigenvalues, before the window is applied.  Where the two differ by more
    than 1e-12 of the residues' total, the residue is returned; such a mass
    is accurate to about 1e-14 of the total, absolutely.  So every mass
    returned is within about 1e-12 of the total.
    """
    lo, hi = _window_edges(window)
    lams = np.array(discrete_eigenvalues(spec))
    masses = 1.0 / _phi_recurrence(spec, lams)[2]
    if lams.size:
        eta = 1e-9 * np.abs(lams)
        im = _m_values(spec, lams + 1j * eta)[1].imag
        residues = eta * (im - integral_rep_constants(spec).c1 * eta)
        masses = np.where(np.abs(masses - residues) > 1e-12 * residues.sum(), residues, masses)
    keep = (lo <= lams) & (lams <= hi)
    lams, masses = lams[keep], masses[keep]
    bad = np.flatnonzero(~((masses > 0.0) & np.isfinite(masses)))
    if bad.size:
        k = bad[0]
        raise ComputationError(f"degenerate mass {masses[k]} at {lams[k]}")
    return SpectralMeasure(atoms=tuple(zip(lams.tolist(), masses.tolist())))


# -- Stieltjes inversion ------------------------------------------------------


def _checked_evaluator(ev):
    """``ev`` refusing values whose shape is not that of its z
    (:class:`ValidationError`) or that are not finite
    (:class:`ComputationError`, naming the first such l)."""

    def checked(zs: np.ndarray) -> np.ndarray:
        m = np.asarray(ev(zs))
        if m.shape != zs.shape:
            raise ValidationError(f"the evaluator returned shape {m.shape} for z of shape {zs.shape}")
        bad = np.flatnonzero(~np.isfinite(m))
        if bad.size:
            z = complex(zs[bad[0]])
            raise ComputationError(f"m(l + i*eps) is not finite at l = {z.real!r}, eps = {z.imag!r}")
        return m

    return checked


# Samples per bracket and evaluator call in the peak search.  A call shrinks
# every bracket by (k + 1)/2; fewer samples need more calls, each with a fixed
# cost, and more make each call dearer without shrinking faster per sample.
_SECTION_POINTS = 16


def _section_peaks(ev, e, centers: np.ndarray,
                   half: float) -> tuple[np.ndarray, np.ndarray]:
    """Maxima of l -> Im ev(l + i*e) on [center - half, center + half], one
    section search per center run in lockstep.  ``e`` is one height for all
    centers or one height per center.

    Every ``ev`` call samples ``_SECTION_POINTS`` equally spaced interior
    points of each bracket still wider than its tolerance, and the bracket
    shrinks to the two grid neighbours of its best sample.  The position is
    the vertex of the parabola through the last call's best sample and its
    neighbours, clipped to them, or the best sample where the three values are
    not concave (the ends of the first bracket are never sampled and count as
    -inf).  No bracket looks at another, so batching does not change any step.
    Returns (positions, e * Im ev there).
    """
    k = _SECTION_POINTS
    frac = np.arange(1, k + 1) / (k + 1)
    e = np.broadcast_to(np.asarray(e, dtype=float), centers.shape)
    tol = 1e-9 * (1.0 + np.abs(centers))
    a, b = centers - half, centers + half
    fa, fb = np.full(len(centers), -np.inf), np.full(len(centers), -np.inf)
    pos = centers.copy()
    active = np.flatnonzero(b - a > tol)
    while active.size:
        lo, hi = a[active], b[active]
        x = np.empty((active.size, k + 2))
        x[:, 0], x[:, 1:-1], x[:, -1] = lo, lo[:, None] + (hi - lo)[:, None] * frac, hi
        f = np.empty_like(x)
        f[:, 0], f[:, -1] = fa[active], fb[active]
        f[:, 1:-1] = ev((x[:, 1:-1] + 1j * e[active, None]).ravel()).imag.reshape(-1, k)
        rows = np.arange(active.size)
        best = 1 + np.argmax(f[:, 1:-1], axis=1)
        f0, f1, f2 = f[rows, best - 1], f[rows, best], f[rows, best + 1]
        curv = f0 - 2.0 * f1 + f2
        concave = np.isfinite(curv) & (curv < 0.0)
        shift = np.where(concave, 0.5 * (f0 - f2) / np.where(concave, curv, -1.0), 0.0)
        pos[active] = x[rows, best] + np.clip(shift, -1.0, 1.0) * (hi - lo) / (k + 1)
        a[active], b[active] = x[rows, best - 1], x[rows, best + 1]
        fa[active], fb[active] = f0, f2
        active = active[b[active] - a[active] > tol[active]]
    return pos, e * ev(pos + 1j * e).imag


def _richardson(values, ratios, powers) -> float:
    """Eliminate the given error powers from a refined sequence.

    ``values`` are ordered from coarsest to finest parameter; ``ratios`` gives
    each step's parameter ratio (coarser over finer), one per consecutive
    pair, or one number for a geometric sequence.  Eliminating more than one
    power needs a geometric sequence.  Raises if the extrapolated tail spreads
    more than the raw tail, which signals a wrong error model.
    """
    seq = [float(v) for v in values]
    steps = [float(r) for r in np.broadcast_to(ratios, (max(len(seq) - 1, 0),))]
    if len(powers) > 1 and len(set(steps)) > 1:
        raise ValueError("eliminating several powers needs one ratio for every step")
    raw_spread = abs(seq[-1] - seq[-2])
    for p in powers:
        if len(seq) < 2:
            break
        seq = [(r ** p * seq[k + 1] - seq[k]) / (r ** p - 1.0)
               for k, r in enumerate(steps[:len(seq) - 1])]
    if len(seq) >= 2:
        extrap_spread = abs(seq[-1] - seq[-2])
        if extrap_spread > 10.0 * raw_spread + 1e-12 * max(1.0, abs(seq[-1])):
            raise ExtrapolationUnstable(
                f"extrapolation tail spread {extrap_spread:g} exceeds raw spread {raw_spread:g}"
            )
    return seq[-1]


def _checked_window(window, eps) -> tuple[float, float, list[float]]:
    """(lo, hi, eps in decreasing order) after the checks shared by every
    route to a measure on a window."""
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"window ({lo}, {hi}) must have finite edges")
    if not lo < hi:
        raise ValidationError(f"window ({lo}, {hi}) is empty")
    if lo <= 0.0 <= hi:
        raise WindowTouchesAtomZero("window must exclude 0")
    eps = [float(e) for e in eps]
    if len(eps) < 2:
        # The mass stability test needs two eps; without it every rounding
        # peak of Im m would be reported as an atom.
        raise ValidationError(f"need at least two eps values, got {len(eps)}")
    if not all(0.0 < e < math.inf for e in eps):
        raise ValidationError(f"eps values must be positive and finite, got {eps}")
    if len(set(eps)) < len(eps):
        raise ValidationError(f"eps values must be distinct, got {eps}")
    return lo, hi, sorted(eps, reverse=True)


def stieltjes_inversion(source, window: tuple[float, float],
                        eps=(1e-2, 1e-3, 1e-4)) -> SpectralMeasure:
    """Recover the point part of the spectral measure on a real window.

    ``source`` is a string spec or a vectorized callable z -> m(z); values
    whose shape is not that of z raise :class:`ValidationError`, and a value
    that is not finite raises :class:`ComputationError` naming the first l.
    Peaks of Im m(l + i*eps0) seed candidate atoms.  Every candidate is
    re-maximized at every eps, each from a bracket of half-width 2*eps0 about
    it, by one section search over all these brackets together: one
    evaluator call per 8.5-fold shrink of all brackets, however many eps are
    given.  eps * Im m at the peak is extrapolated in eps^2 and the position
    in eps^4, with the ratios of the given eps: near an atom Im m(l + i*e) is
    a Lorentzian plus e times a smooth function, whose slope moves the
    maximum by a term in e^4.  A mass estimate that moves more than 5% across
    the two finest eps is rejected as not atomic, so at least two distinct,
    finite eps are required.  A position or mass of a kept candidate whose
    extrapolation is unstable raises :class:`ExtrapolationUnstable` for the
    window.  Windows must have finite edges and exclude 0, where the
    finite-length representation term would fake a point mass.

    A local maximum of the scan Im m(l + i*eps0) becomes a candidate only if
    its bend 2 Im m_i - Im m_(i-1) - Im m_(i+1) exceeds the scan's own noise
    level: eight times the median bend change where the bend changes sign
    three times in a row (the smaller of two neighbouring changes there), and
    at least 64 ulps of the largest |Im m| in the scan.  Im m at height eps0
    is smooth over eps0, four samples, so such sign changes come from noise,
    and the curvature of atoms, however closely packed, does not raise the
    level.  Maxima of a flat or noisy density are thus dropped before any
    refinement: a window whose density has no local maximum, such as a flat
    density on a half-line (``upsilon_lebesgue_halfline()``, m = i), costs two
    evaluator calls, the scan and the density samples.  A window wider than
    50,000 * eps0 is scanned at the 200,001-point cap, coarser than eps0/4,
    where a sampled peak alone can flip the sign; there only the 64-ulp
    minimum applies, and maxima of noise are refined and rejected.

    Only peaks with eps0 * Im m > 1e-6 at the coarsest eps0 become candidates:
    an absolute floor, so atoms of mass below about 1e-6 are left out, and no
    error is raised and nothing in the result says so (on
    ``mixed_example()`` over (0.5, 200) this returns 4 of its 54 atoms).
    """
    lo, hi, eps = _checked_window(window, eps)
    ev = _checked_evaluator(source) if callable(source) else (lambda zs: _m_values(source, zs)[1])

    e0 = eps[0]
    steps = math.ceil((hi - lo) / (e0 / 4.0))
    npts = int(min(max(steps + 1, 101), 200_001))
    lam = np.linspace(lo, hi, npts)
    im0 = ev(lam + 1j * e0).imag
    inner = im0[1:-1]
    peak = (inner >= im0[:-2]) & (inner > im0[2:]) & (e0 * inner > 1e-6)
    if peak.any():
        # The noise level is read where noise shows: where the bend changes
        # sign three times in a row.  Im m at height eps0 is smooth over
        # eps0, four samples, so it does not; two neighbouring changes of the
        # bend there go opposite ways, and the smaller is no larger than the
        # noise's own.  So neither the curvature of a peak nor the tails of
        # atoms packed in the window, however many, are taken for noise.  A
        # scan capped at 200,001 points (steps >= npts) is coarser than
        # eps0/4, where a sampled peak alone can flip the sign, so there
        # only the 64-ulp minimum applies.
        bend = 2.0 * inner - im0[:-2] - im0[2:]
        noise = 64.0 * np.finfo(float).eps * np.max(np.abs(im0))
        if steps < npts:
            up, down = bend > 0.0, bend < 0.0
            flip = (up[:-1] & down[1:]) | (down[:-1] & up[1:])
            at = np.flatnonzero(flip[:-2] & flip[1:-1] & flip[2:])
            b0, b1, b2 = bend[at], bend[at + 1], bend[at + 2]
            changes = np.minimum(np.abs(b1 - b0), np.abs(b2 - b1))
            if changes.size:
                mid = changes.size // 2
                changes.partition(mid)
                noise = max(8.0 * changes[mid], noise)
        peak &= bend > noise
    peaks = lam[1:-1][peak]
    candidates = []
    for l in peaks:
        if not (candidates and l - candidates[-1] < 4.0 * e0):
            candidates.append(float(l))

    atoms = []
    if candidates:
        # One search at every eps from every candidate, all in lockstep.
        n = len(candidates)
        pos, mass = _section_peaks(ev, np.repeat(eps, n), np.tile(candidates, len(eps)), 2.0 * e0)
        ratios = [c / f for c, f in zip(eps, eps[1:])]
        for pk, mk in zip(pos.reshape(-1, n).T.tolist(), mass.reshape(-1, n).T.tolist()):
            if mk[-1] <= 0.0 or abs(mk[-1] - mk[-2]) > 0.05 * abs(mk[-1]):
                continue
            atoms.append((_richardson(pk, ratios, (4,)), _richardson(mk, ratios, (2,))))

    stride = max(1, npts // 512)
    e_min = eps[-1]
    im_min = ev(lam[::stride] + 1j * e_min).imag
    cont = tuple(zip(lam[::stride].tolist(), (im_min / math.pi).tolist()))
    return SpectralMeasure(atoms=tuple(atoms), continuous_samples=cont, epsilon_used=e_min)


# -- Green kernel and the transform -------------------------------------------


def green_kernel(spec: StringSpec, z: complex, x: float, t: float) -> np.ndarray:
    """Resolvent kernel value (both components) at (x, t); symmetric in (x, t)."""
    z = complex(z)
    lo, hi = (x, t) if x <= t else (t, x)
    mz = weyl_m(spec, z).m * z
    fs = fundamental_system(spec, z, [lo, hi])
    (th_lo, th_hi), (ph_lo, ph_hi) = fs.theta, fs.phi
    # W(psi, phi) at lo and psi(hi) for the Weyl solution psi = theta + m z phi.
    wron = (th_lo.f + mz * ph_lo.f) * ph_lo.quasi - (th_lo.quasi + mz * ph_lo.quasi) * ph_lo.f
    g1 = (th_hi.f + mz * ph_hi.f) * ph_lo.f / wron
    return np.array([g1, z * g1])


def transform_hat(spec: StringSpec, f: HilbertElement, lambdas) -> np.ndarray:
    """Eigenfunction transform of a compactly supported element.

    f_hat(l) = sum_pieces slope * (phi(l, b) - phi(l, a))
             + l * sum_atoms mu_q f2(q) phi(l, q),

    with phi read at the element's positions for every l from one sweep.
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
    pts = sorted({*f.nodes, *(p for p, v in f.f2_atoms if v != 0.0)} - {0.0})
    lam = np.asarray(lambdas, dtype=float)
    out = np.zeros(lam.shape)
    if pts:
        phi = {0.0: out, **dict(zip(pts, transfer_matrices(spec, lam, pts)[..., 0, 1].real))}
        for a, b, va, vb in zip(f.nodes, f.nodes[1:], f.values, f.values[1:]):
            out = out + (vb - va) / (b - a) * (phi[b] - phi[a])
        for pos, val in f.f2_atoms:
            if val != 0.0:
                out = out + lam * upsilon_atoms[pos] * val * phi[pos]
    return out if out.ndim else float(out)


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
    x = _nodes(spec)[0]
    energy = 0.0
    if x.size:
        gram = np.minimum.outer(x, x) * (1.0 - np.maximum.outer(x, x) / spec.length)
        vec = f.f1(x)
        energy += float(vec @ np.linalg.solve(gram, vec))
    f2 = dict(f.f2_atoms)
    for pos, mass in spec.upsilon.atoms:
        if pos > 0.0:
            energy += mass * f2.get(pos, 0.0) ** 2
    return energy
