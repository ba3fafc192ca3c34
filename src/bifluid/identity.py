"""Numerical verification of the dynamical Gibbs identity on manufactured fields.

The identity ties four independently computed quantities -- the energy
expression E, the momentum residuals M_alpha, the mass residuals B_alpha and
the heat-exchange sum S -- and cancels algebraically for ARBITRARY smooth
fields; the fields need not satisfy any equation of motion.  Each quantity is
evaluated from its own definition and the cancellation is emergent, never a
symbolic simplification.

Composites take both gases as stacked (2, ...) rows, gas 1 first, as
thermo.PAIR does: a sample's rho, v, s and Omega, and every per-gas result.

Two evaluation modes:

* ``analytic``: every composite time/space derivative is taken by complex
  step: the fields are sampled at (t + i eps, x) and (t, x + i eps) with
  eps = 1e-30, and d/dt c = Im c(t + i eps) / eps (likewise d/dx).  The
  manufactured fields and the potential are holomorphic numpy callables
  (checked at construction), so this is exact to round-off with no
  subtractive cancellation; the residual is bounded by 1e-10 times the
  magnitude of the largest term.
* ``fd``: composite fluxes are differenced directly with central differences
  of steps (dt, h); the residual converges at second order.

Sign conventions verified here numerically: the mass-residual coefficient in
the identity is (k_alpha v_alpha - R_alpha - T_alpha s_alpha); with the
opposite sign on the entropy term the combination does not cancel (it leaves
exactly -2 sum T_alpha s_alpha B_alpha).  Likewise the Legendre-transform
time derivative in sub-identity "e" carries (di/dt) u; the module can also
evaluate the (di/dt) eta reading, which does not cancel, for comparison.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "ExtendedPotential",
    "ManufacturedFields",
    "SampleWindow",
    "IdentityReport",
    "LagrangianQuantities",
    "lagrangian_quantities",
    "gibbs_residual",
    "gibbs_terms",
    "appendix_term_residual",
    "convergence_order",
    "APPENDIX_IDS",
    "PotentialValidationError",
]

APPENDIX_IDS = ("a", "b", "c", "d", "e")
# relative mismatch allowed between complex step, central difference and partial
PARTIALS_RTOL = 1e-6
# a central difference also may be off by its own round-off, allowed as this
# many eps * max|f(x +- h)| / h
FD_ROUNDOFF = 4
_EPS = 1e-30     # complex-step size; Im c(t + i eps) / eps has no cancellation

FIELD_NAMES = ("rho1", "rho2", "v1", "v2", "s1", "s2", "Omega1", "Omega2")
_STATE_NAMES = ("rho1", "rho2", "s1", "s2")


def _vectorize(f):
    """f, a numpy callable or a number, as a function broadcast to the shape
    of its arguments: float64, or complex128 when any argument is complex
    (the complex-step samples of analytic mode), as is its result."""
    fn = f if callable(f) else (lambda *args: f)

    def wrapped(*args):
        dtype = complex if any(np.iscomplexobj(a) for a in args) else float
        arrs = [np.asarray(a, dtype=dtype) for a in args]
        shape = np.broadcast_shapes(*(a.shape for a in arrs)) if arrs else ()
        out = np.asarray(fn(*arrs), dtype=dtype)
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out

    return wrapped


def _check_points(lo, hi, count=16):
    """count fixed points in the box [lo, hi], one row per coordinate.

    They are the additive-recurrence (Kronecker) sequence frac(1/2 + j alpha),
    j = 1 .. count, scaled to the box.  alpha_i = phi^-i, with phi the positive
    root of x^(d+1) = x + 1 in d dimensions (Roberts' R_d sequence), spreads
    the points evenly over the box in any dimension, with no random generator.
    """
    d = len(lo)
    phi = 2.0
    for _ in range(40):     # a contraction by at most 1/2: round-off well before 40
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    unit = (0.5 + np.outer(phi ** -np.arange(1.0, d + 1), np.arange(1, count + 1))) % 1.0
    lo, hi = np.array(lo, dtype=float)[:, None], np.array(hi, dtype=float)[:, None]
    return lo + (hi - lo) * unit


def _check_derivatives(label, fn, names, lo, hi, error, partials=()):
    """Raise ``error`` unless, at 16 fixed points in the box [lo, hi], fn's
    complex-step derivative in each argument matches its central difference,
    and each supplied partial matches both, within PARTIALS_RTOL.  A function
    that is not holomorphic (abs, real, conj, sign, ...) fails the first
    comparison: the complex step silently differentiates it wrongly.

    The central difference's round-off, up to FD_ROUNDOFF eps |f| / h, is
    allowed on top in the comparisons that involve it, so a function whose
    value is large next to its derivative (1e4 + sin x) is not rejected.
    Where that allowance is as large as the derivative itself and is needed
    to pass, the central difference checks nothing (1e10 + sin x): that
    raises ``error`` too, saying the function cannot be checked."""
    pts = _check_points(lo, hi)
    eps = np.finfo(float).eps
    for i, arg in enumerate(names):
        h = 1e-6 * np.maximum(1.0, np.abs(pts[i]))
        up, dn, cz = pts.copy(), pts.copy(), pts.astype(complex)
        up[i] += h
        dn[i] -= h
        cz[i] += 1j * _EPS
        try:
            derivs = {"complex-step": np.imag(fn(*cz)) / _EPS}
        except TypeError as exc:
            raise error(f"{label} cannot be evaluated at complex {arg}: {exc}") from None
        f_up, f_dn = fn(*up), fn(*dn)
        derivs["finite-difference"] = (f_up - f_dn) / (2 * h)
        fd_roundoff = FD_ROUNDOFF * eps * np.maximum(np.abs(f_up), np.abs(f_dn)) / h
        if partials:
            derivs["supplied"] = partials[i](*pts)
        for (a_name, a), (b_name, b) in itertools.combinations(derivs.items(), 2):
            slack = fd_roundoff if "finite-difference" in (a_name, b_name) else 0.0
            scale = np.maximum(np.abs(a), np.maximum(np.abs(b), 1e-8))
            miss = np.abs(a - b)
            err = np.max((miss - slack) / scale)
            if err > PARTIALS_RTOL:
                raise error(f"{label}: {a_name} and {b_name} d/d{arg} disagree "
                            f"(mismatch {err:g})")
            if np.any((miss > PARTIALS_RTOL * scale) & (slack >= scale)):
                raise error(f"{label}: d/d{arg} cannot be checked: its value is so large "
                            f"next to its derivative that the central difference is "
                            f"round-off")


# ----------------------------------------------------------------------
# potential
# ----------------------------------------------------------------------

class PotentialValidationError(ValueError):
    """A non-holomorphic potential, or partials that disagree with its derivatives."""


class ExtendedPotential:
    """Volume potential eta(rho1, rho2, s1, s2, u) = e - b u^2.

    ``e`` and ``b`` are numbers or numpy callables of (rho1, rho2, s1, s2),
    and ``e_grad`` and ``b_grad`` their four first partials in that order.
    The partials are supplied, not derived: analytic mode evaluates them at
    complex samples, where a nested complex step would need a second
    imaginary unit.  All are validated at construction.
    """

    def __init__(self, e, b, e_grad, b_grad):
        self.e, self.b = _vectorize(e), _vectorize(b)
        self._e_grad = [_vectorize(g) for g in e_grad]
        self._b_grad = [_vectorize(g) for g in b_grad]
        self.validate_partials()

    @classmethod
    def quadratic(cls) -> "ExtendedPotential":
        """Quadratic energy 1/2 (rho1^2 + rho2^2) + rho1 s1 + rho2 s2, b = 1."""
        return cls(lambda r1, r2, s1, s2: (1/2)*r1**2 + r1*s1 + (1/2)*r2**2 + r2*s2, 1.0,
                   (lambda r1, r2, s1, s2: r1 + s1, lambda r1, r2, s1, s2: r2 + s2,
                    lambda r1, r2, s1, s2: r1, lambda r1, r2, s1, s2: r2),
                   (0, 0, 0, 0))

    def validate_partials(self) -> None:
        """Check that e, b and their partials are holomorphic, and that the
        partials match the derivatives of e and b."""
        box = (0.6, 0.6, -0.8, -0.8), (2.0, 2.0, 0.8, 0.8)
        err = PotentialValidationError
        for fn, grads, name in ((self.e, self._e_grad, "e"), (self.b, self._b_grad, "b")):
            _check_derivatives(f"potential {name}", fn, _STATE_NAMES, *box, err, grads)
            for g, arg in zip(grads, _STATE_NAMES):
                _check_derivatives(f"partial d{name}/d{arg}", g, _STATE_NAMES, *box, err)


# ----------------------------------------------------------------------
# manufactured fields
# ----------------------------------------------------------------------

class ManufacturedFields:
    """Closed-form space-time fields, sampled at real or complex (t, x).

    Each field is a number or a numpy callable f(t, x), smooth and periodic
    in x on the unit interval for the built-in suites.  A callable must be
    holomorphic, since analytic mode differentiates it by complex step; that
    is checked at construction, over the default SampleWindow.
    """

    def __init__(self, **fields):
        missing = set(FIELD_NAMES) - set(fields)
        if missing:
            raise ValueError(f"missing field expressions: {sorted(missing)}")
        self.functions = {k: _vectorize(fields[k]) for k in FIELD_NAMES}
        w = SampleWindow()
        for k, f in self.functions.items():
            _check_derivatives(f"field {k}", f, ("t", "x"), (w.t0, w.x0), (w.t1, w.x1), ValueError)

    def values(self, t, x):
        return {k: f(t, x) for k, f in self.functions.items()}

    @classmethod
    def constant(cls) -> "ManufacturedFields":
        """Uniform, time-independent fields: every derivative vanishes."""
        return cls(rho1=1.5, rho2=2.0, v1=0.2, v2=-0.1, s1=0.4, s2=-0.3,
                   Omega1=0.0, Omega2=0.0)

    @classmethod
    def sinusoidal(cls) -> "ManufacturedFields":
        """Distinct harmonics per field, x-periodic on [0, 1), positive densities."""
        pi, sin, cos = np.pi, np.sin, np.cos
        return cls(
            rho1=lambda t, x: 2 - 3/10*sin(t - 2*pi*x),
            rho2=lambda t, x: (1/4)*cos((1/2)*t + 2*pi*x) + 5/2,
            v1=lambda t, x: -1/5*sin((13/10)*t - 2*pi*x),
            v2=lambda t, x: (3/20)*cos((7/10)*t + 4*pi*x),
            s1=lambda t, x: (1/5)*sin((1/5)*t + 2*pi*x) + 1/2,
            s2=lambda t, x: (1/4)*cos((4/5)*t - 2*pi*x) - 3/10,
            Omega1=lambda t, x: (2/5)*sin(t + 2*pi*x),
            Omega2=lambda t, x: (3/10)*cos((3/5)*t - 4*pi*x),
        )


@dataclass(frozen=True)
class SampleWindow:
    """Cartesian space-time sample window for identity evaluation."""

    t0: float = 0.0
    t1: float = 0.4
    nt: int = 5
    x0: float = 0.0
    x1: float = 1.0
    nx: int = 24

    def points(self):
        t = np.linspace(self.t0, self.t1, self.nt)
        x = self.x0 + (np.arange(self.nx) + 0.5) * (self.x1 - self.x0) / self.nx
        T, X = np.meshgrid(t, x, indexing="ij")
        return T, X


# ----------------------------------------------------------------------
# composite quantities (functions of a field sample and the potential)
# ----------------------------------------------------------------------

class _Sample(NamedTuple):
    """Field values at some points, each a (2, ...) array with gas 1's row first."""

    rho: np.ndarray
    v: np.ndarray
    s: np.ndarray
    Omega: np.ndarray


def _sample(fields, t, x):
    values = np.stack(list(fields.values(t, x).values()))   # FIELD_NAMES: gas pairs adjacent
    return _Sample(*values.reshape(4, 2, *values.shape[1:]))


def _partials(grads, F):
    """The partials in grads, evaluated at F and stacked on a new first axis."""
    return np.stack([g(*F.rho, *F.s) for g in grads])


def _u(F, pot=None):
    return F.v[1] - F.v[0]


def _eta(F, pot):
    return pot.e(*F.rho, *F.s) - pot.b(*F.rho, *F.s) * _u(F)**2


def _i_drift(F, pot):
    """i = -d eta/d u = 2 b u."""
    return 2 * pot.b(*F.rho, *F.s) * _u(F)


def _f_energy(F, pot):
    """Legendre transform f = eta - (d eta/d u) u = e + b u^2."""
    return pot.e(*F.rho, *F.s) + pot.b(*F.rho, *F.s) * _u(F)**2


def _eta_rho(F, pot):
    return _partials(pot._e_grad[:2], F) - _partials(pot._b_grad[:2], F) * _u(F)**2


def _temp(F, pot):
    """T_alpha = (d eta/d s_alpha) / rho_alpha."""
    return (_partials(pot._e_grad[2:], F) - _partials(pot._b_grad[2:], F) * _u(F)**2) / F.rho


def _i_over_rho(F, pot):
    """(-1)^alpha i / rho_alpha."""
    i = _i_drift(F, pot)
    return np.stack((-1.0 * i, i)) / F.rho


def _R(F, pot):
    return 0.5 * F.v**2 - _eta_rho(F, pot) - F.Omega


def _k(F, pot):
    return F.v + _i_over_rho(F, pot)


def _gas_sum(total, *terms):
    """total + gas 1's row of each term, then gas 2's, left to right: a fixed
    order of rounding (summing each gas first moves the residual's last digit)."""
    for a in (0, 1):
        for term in terms:
            total = total + term[a]
    return total


# ----------------------------------------------------------------------
# evaluation environments
# ----------------------------------------------------------------------


class _Env:
    """Field samples at the window points and at the offsets of one
    difference rule: t + i eps and x + i eps (complex step) in analytic
    mode, t +- dt and x +- h (central differences) in fd mode.  Built once
    with them: F_t and F_x, every field's t- and x-derivative, and B, the
    mass residuals B_alpha = d rho_alpha/dt + d(rho_alpha v_alpha)/dx."""

    def __init__(self, fields, potential, window, mode="analytic", h=None, dt=None):
        T, X = (window or SampleWindow()).points()
        if mode == "analytic":
            self._t = (_sample(fields, T + 1j * _EPS, X),)
            self._x = (_sample(fields, T, X + 1j * _EPS),)
            self._dt = self._h = _EPS
        elif mode == "fd":
            self._t = (_sample(fields, T + dt, X), _sample(fields, T - dt, X))
            self._x = (_sample(fields, T, X + h), _sample(fields, T, X - h))
            self._dt, self._h = dt, h
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self.pot = potential
        self.F = _sample(fields, T, X)
        if np.any(self.F.rho <= 0):
            raise ValueError("sample window contains nonpositive densities")
        self.F_t, self.F_x = (_Sample(*d(lambda F, pot: np.stack(F))) for d in (self.ddt, self.ddx))
        self.B = self.F_t.rho + self.ddx(lambda F, pot: F.rho * F.v)

    def val(self, c):
        return c(self.F, self.pot)

    def _diff(self, c, samples, step):
        if len(samples) == 1:           # complex step
            return c(samples[0], self.pot).imag / step
        return (c(samples[0], self.pot) - c(samples[1], self.pot)) / (2 * step)

    def ddt(self, c):
        return self._diff(c, self._t, self._dt)

    def ddx(self, c):
        return self._diff(c, self._x, self._h)


# ----------------------------------------------------------------------
# the identity
# ----------------------------------------------------------------------

def _gibbs_term_arrays(env):
    """E, sum M v, the B_alpha contribution and S, each from its own definition."""
    r, v, s, _ = env.F
    T, k, R = env.val(_temp), env.val(_k), env.val(_R)

    kin_c = lambda F, pot: F.rho * (F.v**2 * 0.5 + F.Omega)
    flux_c = lambda F, pot: F.rho * F.v * (_k(F, pot) * F.v - _R(F, pot))
    E = _gas_sum(env.ddt(_f_energy), env.ddt(kin_c), env.ddx(flux_c),
                 -(r * env.F_t.Omega))

    M = (r * (env.ddt(_k) + v * env.ddx(_k)) + r * k * env.F_x.v
         - r * env.ddx(_R) - r * T * env.F_x.s)
    Mv = _gas_sum(0.0, M * v)
    # coefficient with -T s: the sign for which the identity cancels
    Bterm = _gas_sum(0.0, (k * v - R - T * s) * env.B)
    rs_c = lambda F, pot: F.rho * F.s
    rsv_c = lambda F, pot: F.rho * F.s * F.v
    S = _gas_sum(0.0, T * (env.ddt(rs_c) + env.ddx(rsv_c)))
    return {"E": E, "Mv": Mv, "Bterm": Bterm, "S": S,
            "residual": E - Mv - Bterm - S}


def gibbs_terms(fields: ManufacturedFields, potential: ExtendedPotential,
                window: SampleWindow | None = None, mode: str = "analytic",
                h: float = 1e-3, dt: float = 1e-3) -> dict:
    """Raw term arrays E, sum(M v), sum((k v - R - T s) B), S and the residual."""
    env = _Env(fields, potential, window, mode, h, dt)
    return _gibbs_term_arrays(env)


@dataclass
class IdentityReport:
    residual_max: float
    residual_l2: float
    term_magnitude: float
    per_identity: dict = field(default_factory=dict)
    mode: str = "analytic"


def gibbs_residual(fields: ManufacturedFields, potential: ExtendedPotential,
                   window: SampleWindow | None = None, mode: str = "analytic",
                   h: float = 1e-3, dt: float = 1e-3) -> IdentityReport:
    """Evaluate the full identity and the five sub-identities over a window."""
    env = _Env(fields, potential, window, mode, h, dt)
    terms = _gibbs_term_arrays(env)
    res = terms["residual"]
    magnitude = max(float(np.max(np.abs(terms[k]))) for k in ("E", "Mv", "Bterm", "S"))
    per = {ident: _appendix_residual(env, ident, "u") for ident in APPENDIX_IDS}
    label = mode if mode == "analytic" else f"finite-difference(h={h:g}, dt={dt:g})"
    return IdentityReport(
        residual_max=float(np.max(np.abs(res))),
        residual_l2=float(np.sqrt(np.mean(res**2))),
        term_magnitude=magnitude,
        per_identity=per,
        mode=label,
    )


# ----------------------------------------------------------------------
# the five lettered sub-identities
# ----------------------------------------------------------------------

def appendix_term_residual(identity_id: str, fields: ManufacturedFields,
                           potential: ExtendedPotential,
                           window: SampleWindow | None = None,
                           e_time_term: str = "u") -> float:
    """Max-abs residual of one lettered sub-identity over the window, in analytic mode.

    ``e_time_term`` selects the reading of the first term of identity "e":
    "u" (the reading that cancels) or "eta" (as printed, which does not).
    The finite-difference residuals are ``gibbs_residual(mode="fd").per_identity``.
    """
    env = _Env(fields, potential, window)
    return _appendix_residual(env, identity_id, e_time_term)


def _appendix_residual(env, identity_id, e_time_term):
    try:
        builder = _APPENDIX[identity_id]
    except KeyError:
        raise ValueError(f"unknown identity {identity_id!r}; expected one of {APPENDIX_IDS}")
    res = builder(env, e_time_term) if identity_id == "e" else builder(env)
    return float(np.max(np.abs(res)))


def _identity_a(env):
    r, v, _, O = env.F
    rO_c = lambda F, pot: F.rho * F.Omega
    rOv_c = lambda F, pot: F.rho * F.Omega * F.v
    return _gas_sum(0.0, env.ddt(rO_c) + env.ddx(rOv_c)
                    - r * env.F_x.Omega * v
                    - env.B * O
                    - r * env.F_t.Omega)


def _identity_b(env):
    r, v, _, _ = env.F
    ke_c = lambda F, pot: F.rho * F.v**2 * 0.5
    keflux_c = lambda F, pot: F.rho * F.v * (F.v**2 - F.v**2 * 0.5)
    halfv2_c = lambda F, pot: F.v**2 * 0.5
    accel = r * (env.F_t.v + v * env.F_x.v) + r * v * env.F_x.v - r * env.ddx(halfv2_c)
    return _gas_sum(0.0, env.ddt(ke_c) + env.ddx(keflux_c)
                    - env.B * (v**2 - 0.5 * v**2)
                    - accel * v)


def _identity_c(env):
    r, v, _, _ = env.F
    etar = env.val(_eta_rho)
    flux_c = lambda F, pot: _eta_rho(F, pot) * F.rho * F.v
    return _gas_sum(0.0, etar * env.F_t.rho + env.ddx(flux_c)
                    - r * env.ddx(_eta_rho) * v - etar * env.B)


def _identity_d(env):
    r, v, _, _ = env.F
    T = env.val(_temp)
    return _gas_sum(0.0, r * T * env.F_t.s + r * T * env.F_x.s * v
                    - r * T * (env.F_t.s + v * env.F_x.s))


def _identity_e(env, e_time_term="u"):
    first_factor = env.val(_u) if e_time_term == "u" else env.val(_eta)
    r, v, _, _ = env.F
    iorho = env.val(_i_over_rho)
    flux_c = lambda F, pot: _i_over_rho(F, pot) * F.v * F.rho * F.v
    return _gas_sum(env.ddt(_i_drift) * first_factor,
                    env.ddx(flux_c)
                    - (r * (env.ddt(_i_over_rho) + v * env.ddx(_i_over_rho))
                       + r * iorho * env.F_x.v) * v
                    - iorho * v * env.B)


_APPENDIX = {"a": _identity_a, "b": _identity_b, "c": _identity_c,
             "d": _identity_d, "e": _identity_e}


# ----------------------------------------------------------------------
# local Lagrangian-derived quantities
# ----------------------------------------------------------------------

@dataclass
class LagrangianQuantities:
    R1: float
    R2: float
    k1: float
    k2: float
    T1: float
    T2: float
    i: float
    f: float


def lagrangian_quantities(potential: ExtendedPotential, rho1, rho2, s1, s2,
                          v1, v2) -> LagrangianQuantities:
    """Evaluate R_alpha, k_alpha, T_alpha, i and f at one local state, with Omega = 0."""
    if not (rho1 > 0 and rho2 > 0):
        raise ValueError("densities must be positive")
    F = _Sample(*np.array([[rho1, rho2], [v1, v2], [s1, s2], [0.0, 0.0]], dtype=float))
    R, k, T = _R(F, potential), _k(F, potential), _temp(F, potential)
    return LagrangianQuantities(
        R1=float(R[0]), R2=float(R[1]), k1=float(k[0]), k2=float(k[1]),
        T1=float(T[0]), T2=float(T[1]),
        i=float(_i_drift(F, potential)), f=float(_f_energy(F, potential)),
    )


# ----------------------------------------------------------------------
# convergence harness
# ----------------------------------------------------------------------

def convergence_order(norms) -> float:
    """Least-squares slope of log(norm) against log(step), for steps 1, 1/2, 1/4, ...

    Returns ``inf`` when any norm is zero (exact cancellation).
    """
    norms = np.asarray(norms, dtype=float)
    if norms.ndim != 1 or len(norms) < 2:
        raise ValueError("need at least two norms")
    if not np.all(np.isfinite(norms)):
        raise ValueError("norms must be finite")
    if np.any(norms < 0):
        raise ValueError("norms must be nonnegative")
    if np.any(norms == 0):
        return math.inf
    steps = [0.5**k for k in range(len(norms))]
    slope, _ = np.polyfit(np.log(steps), np.log(norms), 1)
    return float(slope)
