"""Reference values computed apart from ``indefstring``.

Nothing here imports the program.  The string equation

    -u'' = z u omega + z^2 u upsilon

is solved from its definition: between breakpoints both densities are
constant, so the (u, u') transfer matrix is the trig form with
kappa = z*alpha + z^2*beta; a point mass multiplies by [[1, 0], [-g, 1]] with
g = z*omega({p}) + z^2*upsilon({p}).  Products run in numpy's extended
precision (``longdouble``, 64-bit mantissa on x86).  Eigenvalues and masses of
finite atomic strings come from the quadratic pencil on the atom nodes.
"""
from __future__ import annotations

import math

import numpy as np

_LD = np.longdouble
_CLD = np.clongdouble


def _length(doc) -> float:
    value = doc.get("L")
    return math.inf if value in ("inf", None) else float(value)


def _extent(value) -> float:
    return math.inf if value in ("inf", None) else float(value)


def _layout(doc, extra=()):
    """Sorted breakpoints with per-point atoms and per-interval densities.

    Returns (points, atom_omega, atom_upsilon, dens_omega, dens_upsilon); the
    densities at index k hold on [points[k], points[k+1]) and, for the last
    point of a half-line, on the unbounded tail.
    """
    length = _length(doc)
    omega = doc.get("omega") or {}
    upsilon = doc.get("upsilon") or {}
    pts = {0.0, *(float(x) for x in extra)}
    for measure in (omega, upsilon):
        pts.update(float(d["x"]) for d in measure.get("atoms", ()))
        for d in measure.get("density", ()):
            pts.add(float(d["a"]))
            if math.isfinite(_extent(d["b"])):
                pts.add(_extent(d["b"]))
    if math.isfinite(length):
        pts.add(length)
    points = np.array(sorted(pts))
    out = [points]
    for measure in (omega, upsilon):
        atoms = np.zeros(len(points))
        for d in measure.get("atoms", ()):
            atoms[np.searchsorted(points, float(d["x"]))] += float(d["mass"])
        out.append(atoms)
    for measure in (omega, upsilon):
        dens = np.zeros(len(points))
        for d in measure.get("density", ()):
            lo = np.searchsorted(points, float(d["a"]))
            b = _extent(d["b"])
            hi = len(points) if not math.isfinite(b) else np.searchsorted(points, b)
            dens[lo:hi] += float(d["value"])
        out.append(dens)
    return tuple(out)


def transfer(doc, zs, xs=()):
    """Fundamental matrix entries in extended precision.

    Returns ``(end, samples)``: ``end`` is (a, b, c, d) at the last breakpoint
    (L for finite strings), each an array over ``zs``; ``samples`` maps each x
    in ``xs`` to (a, b) = (theta(x), phi(x)).  theta(0) = phi'(0-) = 1,
    theta'(0-) = phi(0) = 0, and a value at x excludes a point mass at x.
    """
    points, aw, au, dw, du = _layout(doc, xs)
    z = np.asarray(zs, dtype=_CLD).ravel()
    zz = z * z
    a = np.ones_like(z)
    b = np.zeros_like(z)
    c = np.zeros_like(z)
    d = np.ones_like(z)
    wanted = {float(x) for x in xs}
    samples = {}
    n = len(points)
    for k in range(n):
        p = float(points[k])
        if p in wanted:
            samples[p] = (a.copy(), b.copy())
        if aw[k] != 0.0 or au[k] != 0.0:
            g = z * _LD(aw[k]) + zz * _LD(au[k])
            c = c - g * a
            d = d - g * b
        if k + 1 == n:
            break
        h = _LD(points[k + 1]) - _LD(p)
        if dw[k] == 0.0 and du[k] == 0.0:
            a = a + h * c
            b = b + h * d
            continue
        s = np.sqrt(z * _LD(dw[k]) + zz * _LD(du[k]))
        cos, sin = np.cos(s * h), np.sin(s * h)
        sinc = np.where(s == 0, h, sin / np.where(s == 0, 1, s))
        a, c = cos * a + sinc * c, -s * sin * a + cos * c
        b, d = cos * b + sinc * d, -s * sin * b + cos * d
    return (a, b, c, d), samples


def weyl_m(doc, zs) -> np.ndarray:
    """m(z) = lim -theta(z, x)/(z phi(z, x)) as x -> L.

    Finite strings: the value at L.  Half-lines must have a free tail after
    the last breakpoint; there theta and phi are affine, so the limit is the
    ratio of their slopes.
    """
    if not math.isfinite(_length(doc)):
        _, _, _, dw, du = _layout(doc)
        if dw[-1] != 0.0 or du[-1] != 0.0:
            raise ValueError("half-line reference needs a free tail")
    z = np.asarray(zs, dtype=_CLD).ravel()
    (a, b, c, d), _ = transfer(doc, z)
    num, den = (a, b) if math.isfinite(_length(doc)) else (c, d)
    return np.asarray(-num / (z * den), dtype=complex)


def uniform_halfline_m(zs) -> np.ndarray:
    """omega = Lebesgue on [0, inf): m = i/sqrt(z) with Im sqrt(z) > 0."""
    z = np.asarray(zs, dtype=complex)
    root = np.sqrt(z)
    root = np.where(root.imag < 0, -root, root)
    return 1j / root


def upsilon_halfline_m(zs) -> np.ndarray:
    """upsilon = Lebesgue on [0, inf): m = i sign(Im z)."""
    return 1j * np.sign(np.asarray(zs, dtype=complex).imag)


def uniform_string_m(zs, dps: int = 40) -> np.ndarray:
    """omega = Lebesgue on [0, 1): m = -cot(sqrt z)/sqrt z, evaluated with mpmath."""
    import mpmath

    out = []
    with mpmath.workdps(dps):
        for z in np.atleast_1d(zs):
            root = mpmath.sqrt(mpmath.mpc(z.real, z.imag))
            out.append(complex(-mpmath.cot(root) / root))
    return np.array(out)


def sigma_length(doc) -> float:
    """Travel coordinate at L: L + int_0^L w(t)^2 dt + upsilon([0, L))."""
    points, aw, au, dw, du = _layout(doc)
    w = _LD(0)
    total = _LD(0)
    ups = _LD(0)
    for k in range(len(points) - 1):
        h = _LD(points[k + 1]) - _LD(points[k])
        w += _LD(aw[k])
        ups += _LD(au[k]) + _LD(du[k]) * h
        slope = _LD(dw[k])
        total += h + w * w * h + w * slope * h * h + slope * slope * h ** 3 / 3
        w += slope * h
    return float(total + ups)


def _nodes(doc):
    """Positive atom positions with their (omega, upsilon) masses, and the gaps
    h_0..h_n between 0, the nodes and L.  An atom at 0 does not act on phi,
    which vanishes there."""
    nodes: dict[float, list[float]] = {}
    for key, k in (("omega", 0), ("upsilon", 1)):
        for d in (doc.get(key) or {}).get("atoms", ()):
            x = float(d["x"])
            if x > 0.0:
                nodes.setdefault(x, [0.0, 0.0])[k] += float(d["mass"])
    ys = np.array(sorted(nodes))
    alpha = np.array([nodes[y][0] for y in ys])
    beta = np.array([nodes[y][1] for y in ys])
    h = np.diff(np.concatenate(([0.0], ys, [_length(doc)])))
    return alpha, beta, h


def _phi_recurrence(alpha, beta, h, lam):
    """phi(lam, L), d phi/d lam at L and the norming sum, by the node-to-node
    recurrence in extended precision."""
    lam = _LD(lam)
    u, slope, du, dslope = _LD(0), _LD(1), _LD(0), _LD(0)
    norming = _LD(0)
    for k in range(len(alpha)):
        hk = _LD(h[k])
        norming += hk * slope * slope
        u, du = u + hk * slope, du + hk * dslope
        a, b = _LD(alpha[k]), _LD(beta[k])
        g = lam * a + lam * lam * b
        slope, dslope = slope - g * u, dslope - g * du - (a + 2 * lam * b) * u
        norming += b * (lam * u) ** 2
    hn = _LD(h[-1])
    norming += hn * slope * slope
    return u + hn * slope, du + hn * dslope, norming


def pencil(doc) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and spectral masses of a finite purely atomic string.

    With nodes 0 = y_0 < y_1 < ... < y_n < y_{n+1} = L at the atom positions
    and u_0 = u_{n+1} = 0, the eigenproblem is the pencil
    T u = (l A + l^2 M) u with T the Dirichlet stiffness matrix,
    A = diag(omega atoms), M = diag(upsilon atoms).  In mu = 1/l it reads
    mu^2 u = T^-1 (mu A + M) u, linearized to a 2n x 2n standard eigenproblem
    for ``numpy.linalg.eig``.  Each eigenvalue is then polished by Newton
    steps on phi(l, L) from the extended-precision node recurrence, and its
    mass is 1/(sum (du)^2/h + l^2 sum upsilon u^2) with u scaled to unit
    initial slope.  (Double-precision eigenvectors alone carry no correct
    digits for masses far below the largest one.)  Only real, finite,
    nonzero eigenvalues are returned, in increasing order.
    """
    alpha, beta, h = _nodes(doc)
    n = len(alpha)
    if n == 0:
        return np.zeros(0), np.zeros(0)
    stiff = np.diag(1.0 / h[:-1] + 1.0 / h[1:]) - np.diag(1.0 / h[1:-1], 1) - np.diag(1.0 / h[1:-1], -1)
    tinv = np.linalg.inv(stiff)
    comp = np.zeros((2 * n, 2 * n))
    comp[:n, n:] = np.eye(n)
    comp[n:, :n] = tinv * beta[None, :]
    comp[n:, n:] = tinv * alpha[None, :]
    mus = np.linalg.eigvals(comp)
    keep = (np.abs(mus) > 1e-13 * np.max(np.abs(mus))) & (np.abs(mus.imag) <= 1e-9 * np.abs(mus))
    lams, masses = [], []
    for mu in mus[keep]:
        lam = _LD(1.0) / _LD(mu.real)
        for _ in range(8):
            val, der, _ = _phi_recurrence(alpha, beta, h, lam)
            step = val / der
            lam -= step
            if abs(step) <= 1e-19 * abs(lam):
                break
        _, _, norming = _phi_recurrence(alpha, beta, h, lam)
        lams.append(float(lam))
        masses.append(float(1 / norming))
    order = np.argsort(lams)
    return np.array(lams)[order], np.array(masses)[order]


def rel_err(got, ref, floor: float = 0.0) -> float:
    """Largest |got - ref| / max(|ref|, floor) over the arrays (inf if got is not finite)."""
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        return math.inf
    if got.size == 0:
        return 0.0
    scale = np.maximum(np.abs(ref), floor)
    return float(np.max(np.abs(got - ref) / np.where(scale > 0, scale, 1.0)))
