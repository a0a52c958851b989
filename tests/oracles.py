"""Independent oracles used to freeze expected test values.

The numeric oracles go through mpmath (arbitrary precision, series/continued
fraction implementations) and never through the package under test, so the
numbers asserted in the test suite are derived on an independent path.
mode_fields is a per-mode cmath loop over a spectral model's own
coefficients, written out without the package's stacked wave layout.
recursive_refine is a reference algorithm instead: the panel-by-panel
adaptive refinement the package's lockstep one must reproduce bit for bit.
"""

import cmath

import mpmath as mp
import numpy as np

mp.mp.dps = 30


def erfc_highprec(x):
    """Complementary error function at 30 significant digits."""
    return float(mp.erfc(mp.mpf(x)))


def normal_tail(z):
    """Upper tail of the standard normal distribution."""
    return float(mp.erfc(mp.mpf(z) / mp.sqrt(2)) / 2)


def normal_tail_quantile(p):
    """z such that the standard normal upper tail at z equals p."""
    return float(mp.findroot(lambda z: mp.erfc(z / mp.sqrt(2)) / 2 - mp.mpf(p), 0.0))


def gaussian_cosine_integral(omega):
    """Closed form of the full-line integral of exp(-x^2) cos(omega x)."""
    w = mp.mpf(omega)
    return float(mp.sqrt(mp.pi) * mp.exp(-w * w / 4))


def quad_highprec(f, a, b):
    """Direct adaptive quadrature at high precision (tanh-sinh)."""
    return float(mp.quad(f, [a, b]))


def gaussian_ball_mass(c):
    """Probability inside a radius c*sigma ball of an isotropic 3-d Gaussian."""
    c = mp.mpf(c)
    return float(mp.sqrt(2 / mp.pi) * mp.quad(lambda r: r * r * mp.exp(-r * r / 2), [0, c]))


def gaussian_ball_mass_offset(r, delta):
    """Probability inside a radius r*sigma ball whose center sits delta*sigma
    from an isotropic 3-d Gaussian's, from the erf closed form at 60 digits
    (its terms cancel to O(r^3))."""
    with mp.workdps(60):
        r, d = mp.mpf(r), mp.mpf(delta)
        if d == 0:
            return float(mp.erf(r / mp.sqrt(2)) - mp.sqrt(2 / mp.pi) * r * mp.exp(-r * r / 2))
        return float((mp.erf((r + d) / mp.sqrt(2)) - mp.erf((d - r) / mp.sqrt(2))) / 2
                     - (mp.exp(-(d - r) ** 2 / 2) - mp.exp(-(d + r) ** 2 / 2))
                     / (d * mp.sqrt(2 * mp.pi)))


def square_barrier_transmission(k, height, half_width):
    """Textbook transmission probability through a square barrier (hbar = m = 1).

    Uses the piecewise-exponential result expressed through sinh/sin, an
    independent route from any amplitude-matching implementation.
    """
    k = mp.mpf(k)
    V = mp.mpf(height)
    a = mp.mpf(half_width)
    E = k * k / 2
    if V == 0:
        return 1.0
    if E < V:
        kappa = mp.sqrt(2 * V - k * k)
        return float(1 / (1 + V**2 * mp.sinh(2 * a * kappa) ** 2 / (4 * E * (V - E))))
    if E == V:
        return float(1 / (1 + 2 * V * a * a * k * k / (2 * E)))
    q = mp.sqrt(k * k - 2 * V)
    return float(1 / (1 + V**2 * mp.sin(2 * a * q) ** 2 / (4 * E * (E - V))))


def mode_fields(x, t, k, gamma, T, R, A, B, weight, half_width, mass=1.0):
    """psi and d psi/dx at (x, t) of sum_j weight_j phi_j(x) e^{-i k_j^2 t / 2m}
    (hbar = 1), one mode at a time in cmath: phi = e^{ikx} + R e^{-ikx} for
    x < -a, A e^{i gamma x} + B e^{-i gamma x} for -a <= x <= a and T e^{ikx}
    for x > a, with a = half_width."""
    psi = dpsi = 0j
    modes = zip(*(np.asarray(c).tolist() for c in (k, gamma, T, R, A, B, weight)))
    for kj, gj, tj, rj, aj, bj, wj in modes:
        phase = wj * cmath.exp(-1j * kj * kj * t / (2.0 * mass))
        if x < -half_width:
            q, up, down = kj, cmath.exp(1j * kj * x), rj * cmath.exp(-1j * kj * x)
        elif x > half_width:
            q, up, down = kj, tj * cmath.exp(1j * kj * x), 0j
        else:
            q, up, down = gj, aj * cmath.exp(1j * gj * x), bj * cmath.exp(-1j * gj * x)
        psi += phase * (up + down)
        dpsi += phase * 1j * q * (up - down)
    return psi, dpsi


def recursive_refine(eval_panels, partitions, tol, max_panels=4096):
    """Per partition, (los, his, values, node values, upper) of the adaptive
    GL7/15 refinement that judges one panel at a time.

    Depth first, from each initial panel up: eval_panels(table, los, his)
    of that one panel gives its value, error estimate and node values; a
    panel of width w in a partition of span W is kept when its error is
    at most (quad_abs w / W + quad_rel |value|) / 2, else its halves are
    judged in turn.  upper sums the kept values from the top down, in
    Python floats.
    """
    out = []
    for k, edges in enumerate(np.asarray(e, dtype=float) for e in partitions):
        span, kept = edges[-1] - edges[0], []

        def judge(lo, hi):
            (value,), (error,), (nodes,) = eval_panels(np.array([k]), [lo], [hi])
            if error <= 0.5 * (tol.quad_abs * (hi - lo) / span + tol.quad_rel * abs(value)):
                kept.append((lo, hi, value, nodes))
                if len(kept) > max_panels:
                    raise RuntimeError("too many panels")
                return
            judge(lo, 0.5 * (lo + hi))
            judge(0.5 * (lo + hi), hi)

        for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
            judge(lo, hi)
        upper = [0.0]
        for _, _, value, _ in reversed(kept):
            upper.append(upper[-1] + value)
        los, his, values = np.array([panel[:3] for panel in kept]).T
        out.append((los, his, values, np.array([panel[3] for panel in kept]),
                    np.array(upper[::-1])))
    return out
