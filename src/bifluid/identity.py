"""Numerical verification of the dynamical Gibbs identity on manufactured fields.

The identity ties four independently computed quantities -- the energy
expression E, the momentum residuals M_alpha, the mass residuals B_alpha and
the heat-exchange sum S -- and cancels algebraically for ARBITRARY smooth
fields; the fields need not satisfy any equation of motion.  Each quantity is
evaluated from its own definition and the cancellation is emergent, never a
symbolic simplification.

Two evaluation modes:

* ``analytic``: every composite time/space derivative is taken by complex
  step: the fields are sampled at (t + i eps, x) and (t, x + i eps) with
  eps = 1e-30, and d/dt c = Im c(t + i eps) / eps (likewise d/dx).  The
  manufactured fields and the potential are holomorphic sympy expressions,
  so this is exact to round-off with no subtractive cancellation; the
  residual is bounded by 1e-10 times the magnitude of the largest term.
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

import math
from dataclasses import dataclass, field

import numpy as np
import sympy as sp

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
# validate_partials' bound on the relative symbolic/finite-difference mismatch
PARTIALS_RTOL = 1e-6

_STATE_SYMS = sp.symbols("rho1 rho2 s1 s2")
_T_SYM, _X_SYM = sp.symbols("t x")

FIELD_NAMES = ("rho1", "rho2", "v1", "v2", "s1", "s2", "Omega1", "Omega2")


# Functions whose numpy forms are not holomorphic: a complex step through
# them gives a wrong derivative without any error (numpy's abs of a complex
# array is its real modulus, so Abs would differentiate to zero).
_NON_HOLOMORPHIC = (sp.Abs, sp.sign, sp.Piecewise, sp.Min, sp.Max, sp.floor,
                    sp.ceiling, sp.re, sp.im, sp.conjugate, sp.Heaviside)


def _require_holomorphic(label, expr, error):
    for fn in _NON_HOLOMORPHIC:
        if expr.has(fn):
            raise error(f"{label} contains {fn.__name__}, which the complex step "
                        f"cannot differentiate")


def _lambdify(expr, syms):
    """Lambdify that always broadcasts to the argument shape.

    Arguments and result are float64, or complex128 when any argument is
    complex (the complex-step samples of analytic mode).
    """
    # The numpy module object, not the string "numpy": sympy then prints the
    # same numpy code but skips its `from numpy import *`, which imports
    # numpy.f2py, numpy.testing and a dozen other unused submodules.
    fn = sp.lambdify(syms, expr, modules=np)

    def wrapped(*args):
        dtype = complex if any(np.iscomplexobj(a) for a in args) else float
        arrs = [np.asarray(a, dtype=dtype) for a in args]
        shape = np.broadcast_shapes(*(a.shape for a in arrs)) if arrs else ()
        out = np.asarray(fn(*arrs), dtype=dtype)
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out

    return wrapped


# ----------------------------------------------------------------------
# potential
# ----------------------------------------------------------------------

class PotentialValidationError(ValueError):
    """A non-holomorphic potential, or partials that disagree with finite differences."""


class ExtendedPotential:
    """Volume potential eta(rho1, rho2, s1, s2, u) = e - b u^2.

    Built from sympy expressions for e and b in the state symbols
    (rho1, rho2, s1, s2).  ``e`` and ``b`` evaluate them; their first
    partials are generated symbolically and validated against central finite
    differences at construction.
    """

    def __init__(self, e_expr, b_expr=sp.Integer(0)):
        syms = _STATE_SYMS
        self.e_expr = sp.sympify(e_expr)
        self.b_expr = sp.sympify(b_expr)
        _require_holomorphic("potential e", self.e_expr, PotentialValidationError)
        _require_holomorphic("potential b", self.b_expr, PotentialValidationError)
        self.e = _lambdify(self.e_expr, syms)
        self.b = _lambdify(self.b_expr, syms)
        self._e_grad = [_lambdify(sp.diff(self.e_expr, s), syms) for s in syms]
        self._b_grad = [_lambdify(sp.diff(self.b_expr, s), syms) for s in syms]
        self.validate_partials()

    @classmethod
    def quadratic(cls, b_const: float = 1.0) -> "ExtendedPotential":
        """Quadratic energy 1/2 (rho1^2 + rho2^2) + rho1 s1 + rho2 s2, constant b."""
        r1, r2, s1, s2 = _STATE_SYMS
        return cls(sp.Rational(1, 2) * (r1**2 + r2**2) + r1 * s1 + r2 * s2,
                   sp.Float(b_const))

    def e_partial(self, i, r1, r2, s1, s2):
        """First partial of e with respect to state argument i (0..3)."""
        return self._e_grad[i](r1, r2, s1, s2)

    def b_partial(self, i, r1, r2, s1, s2):
        return self._b_grad[i](r1, r2, s1, s2)

    def validate_partials(self) -> None:
        """Check analytic first partials against central finite differences."""
        rng = np.random.default_rng(1234)
        pts = np.column_stack([
            rng.uniform(0.6, 2.0, 16), rng.uniform(0.6, 2.0, 16),
            rng.uniform(-0.8, 0.8, 16), rng.uniform(-0.8, 0.8, 16)])
        for fn, grads, name in ((self.e, self._e_grad, "e"), (self.b, self._b_grad, "b")):
            for i in range(4):
                h = 1e-6 * np.maximum(1.0, np.abs(pts[:, i]))
                up, dn = pts.copy(), pts.copy()
                up[:, i] += h
                dn[:, i] -= h
                fd = (fn(*up.T) - fn(*dn.T)) / (2 * h)
                exact = grads[i](*pts.T)
                scale = np.maximum(np.abs(exact), np.maximum(np.abs(fd), 1e-8))
                err = np.max(np.abs(fd - exact) / scale)
                if err > PARTIALS_RTOL:
                    raise PotentialValidationError(
                        f"partial d{name}/darg{i}: finite-difference mismatch {err:g}")


# ----------------------------------------------------------------------
# manufactured fields
# ----------------------------------------------------------------------

class ManufacturedFields:
    """Closed-form space-time fields, sampled at real or complex (t, x).

    Each field is a sympy expression in (t, x), smooth and periodic in x on
    the unit interval for the built-in suites.  An expression must be
    holomorphic, since analytic mode differentiates it by complex step.
    """

    def __init__(self, **exprs):
        missing = set(FIELD_NAMES) - set(exprs)
        if missing:
            raise ValueError(f"missing field expressions: {sorted(missing)}")
        self.exprs = {k: sp.sympify(exprs[k]) for k in FIELD_NAMES}
        for k, e in self.exprs.items():
            _require_holomorphic(f"field {k}", e, ValueError)
        self._f = {k: _lambdify(e, (_T_SYM, _X_SYM)) for k, e in self.exprs.items()}

    def values(self, t, x):
        return {k: f(t, x) for k, f in self._f.items()}

    @classmethod
    def constant(cls, rho1=1.5, rho2=2.0, v1=0.2, v2=-0.1, s1=0.4, s2=-0.3,
                 Omega1=0.0, Omega2=0.0) -> "ManufacturedFields":
        return cls(rho1=sp.Float(rho1), rho2=sp.Float(rho2),
                   v1=sp.Float(v1), v2=sp.Float(v2),
                   s1=sp.Float(s1), s2=sp.Float(s2),
                   Omega1=sp.Float(Omega1), Omega2=sp.Float(Omega2))

    @classmethod
    def sinusoidal(cls) -> "ManufacturedFields":
        """Distinct harmonics per field, x-periodic on [0, 1), positive densities."""
        t, x = _T_SYM, _X_SYM
        two_pi = 2 * sp.pi
        return cls(
            rho1=2 + sp.Rational(3, 10) * sp.sin(two_pi * x - t),
            rho2=sp.Rational(5, 2) + sp.Rational(1, 4) * sp.cos(two_pi * x + t / 2),
            v1=sp.Rational(1, 5) * sp.sin(two_pi * x - sp.Rational(13, 10) * t),
            v2=sp.Rational(3, 20) * sp.cos(2 * two_pi * x + sp.Rational(7, 10) * t),
            s1=sp.Rational(1, 2) + sp.Rational(1, 5) * sp.sin(two_pi * x + t / 5),
            s2=-sp.Rational(3, 10) + sp.Rational(1, 4) * sp.cos(two_pi * x - sp.Rational(4, 5) * t),
            Omega1=sp.Rational(2, 5) * sp.sin(two_pi * x + t),
            Omega2=sp.Rational(3, 10) * sp.cos(2 * two_pi * x - sp.Rational(3, 5) * t),
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
# composite quantities (functions of the 8 field values and the potential)
# ----------------------------------------------------------------------

_SGN = {1: -1.0, 2: 1.0}   # (-1)^alpha


def _state(F):
    return F["rho1"], F["rho2"], F["s1"], F["s2"]


def _u(F, pot=None):
    return F["v2"] - F["v1"]


def _eta(F, pot):
    return pot.e(*_state(F)) - pot.b(*_state(F)) * _u(F)**2


def _i_drift(F, pot):
    """i = -d eta/d u = 2 b u."""
    return 2 * pot.b(*_state(F)) * _u(F)


def _f_energy(F, pot):
    """Legendre transform f = eta - (d eta/d u) u = e + b u^2."""
    return pot.e(*_state(F)) + pot.b(*_state(F)) * _u(F)**2


def _eta_rho(F, pot, a):
    return pot.e_partial(a - 1, *_state(F)) - pot.b_partial(a - 1, *_state(F)) * _u(F)**2


def _eta_s(F, pot, a):
    return pot.e_partial(a + 1, *_state(F)) - pot.b_partial(a + 1, *_state(F)) * _u(F)**2


def _temp(F, pot, a):
    """rho_alpha T_alpha = d eta/d s_alpha."""
    return _eta_s(F, pot, a) / F[f"rho{a}"]


def _R(F, pot, a):
    return 0.5 * F[f"v{a}"]**2 - _eta_rho(F, pot, a) - F[f"Omega{a}"]


def _k(F, pot, a):
    return F[f"v{a}"] + _SGN[a] * _i_drift(F, pot) / F[f"rho{a}"]


# ----------------------------------------------------------------------
# evaluation environments
# ----------------------------------------------------------------------

_EPS = 1e-30     # complex-step size; Im c(t + i eps) / eps has no cancellation


class _Env:
    """Field samples at the window points and at the offsets of one
    difference rule: t + i eps and x + i eps (complex step) in analytic
    mode, t +- dt and x +- h (central differences) in fd mode."""

    def __init__(self, fields, potential, window, mode, h, dt):
        T, X = window.points()
        if mode == "analytic":
            self._t = (fields.values(T + 1j * _EPS, X),)
            self._x = (fields.values(T, X + 1j * _EPS),)
            self._dt = self._h = _EPS
        elif mode == "fd":
            self._t = (fields.values(T + dt, X), fields.values(T - dt, X))
            self._x = (fields.values(T, X + h), fields.values(T, X - h))
            self._dt, self._h = dt, h
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self.pot = potential
        self.F = fields.values(T, X)
        if np.any(self.F["rho1"] <= 0) or np.any(self.F["rho2"] <= 0):
            raise ValueError("sample window contains nonpositive densities")

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

def _field_c(name):
    return lambda F, pot: F[name]


def _gibbs_term_arrays(env):
    """E, sum M v, the B_alpha contribution and S, each from its own definition."""
    E = env.ddt(_f_energy)
    Mv = 0.0
    Bterm = 0.0
    S = 0.0
    for a in (1, 2):
        r = env.val(_field_c(f"rho{a}"))
        v = env.val(_field_c(f"v{a}"))
        s = env.val(_field_c(f"s{a}"))
        Ta = env.val(lambda F, pot, a=a: _temp(F, pot, a))
        ka = env.val(lambda F, pot, a=a: _k(F, pot, a))
        Ra = env.val(lambda F, pot, a=a: _R(F, pot, a))

        kin_c = lambda F, pot, a=a: F[f"rho{a}"] * (F[f"v{a}"]**2 * 0.5 + F[f"Omega{a}"])
        flux_c = lambda F, pot, a=a: F[f"rho{a}"] * F[f"v{a}"] * (_k(F, pot, a) * F[f"v{a}"] - _R(F, pot, a))
        E = E + env.ddt(kin_c) + env.ddx(flux_c) - r * env.ddt(_field_c(f"Omega{a}"))

        k_c = lambda F, pot, a=a: _k(F, pot, a)
        R_c = lambda F, pot, a=a: _R(F, pot, a)
        Ma = (r * (env.ddt(k_c) + v * env.ddx(k_c)) + r * ka * env.ddx(_field_c(f"v{a}"))
              - r * env.ddx(R_c) - r * Ta * env.ddx(_field_c(f"s{a}")))
        Mv = Mv + Ma * v

        rv_c = lambda F, pot, a=a: F[f"rho{a}"] * F[f"v{a}"]
        Ba = env.ddt(_field_c(f"rho{a}")) + env.ddx(rv_c)
        # coefficient with -T s: the sign for which the identity cancels
        Bterm = Bterm + (ka * v - Ra - Ta * s) * Ba

        rs_c = lambda F, pot, a=a: F[f"rho{a}"] * F[f"s{a}"]
        rsv_c = lambda F, pot, a=a: F[f"rho{a}"] * F[f"s{a}"] * F[f"v{a}"]
        S = S + Ta * (env.ddt(rs_c) + env.ddx(rsv_c))

    return {"E": E, "Mv": Mv, "Bterm": Bterm, "S": S,
            "residual": E - Mv - Bterm - S}


def gibbs_terms(fields: ManufacturedFields, potential: ExtendedPotential,
                window: SampleWindow | None = None, mode: str = "analytic",
                h: float = 1e-3, dt: float = 1e-3) -> dict:
    """Raw term arrays E, sum(M v), sum((k v - R - T s) B), S and the residual."""
    env = _Env(fields, potential, window or SampleWindow(), mode, h, dt)
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
    env = _Env(fields, potential, window or SampleWindow(), mode, h, dt)
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
                           mode: str = "analytic", h: float = 1e-3,
                           dt: float = 1e-3, e_time_term: str = "u") -> float:
    """Max-abs residual of one lettered sub-identity over the window.

    ``e_time_term`` selects the reading of the first term of identity "e":
    "u" (the reading that cancels) or "eta" (as printed, which does not).
    """
    env = _Env(fields, potential, window or SampleWindow(), mode, h, dt)
    return _appendix_residual(env, identity_id, e_time_term)


def _appendix_residual(env, identity_id, e_time_term):
    try:
        builder = _APPENDIX[identity_id]
    except KeyError:
        raise ValueError(f"unknown identity {identity_id!r}; expected one of {APPENDIX_IDS}")
    res = builder(env, e_time_term) if identity_id == "e" else builder(env)
    return float(np.max(np.abs(res)))


def _B(env, a):
    rv_c = lambda F, pot: F[f"rho{a}"] * F[f"v{a}"]
    return env.ddt(_field_c(f"rho{a}")) + env.ddx(rv_c)


def _identity_a(env):
    res = 0.0
    for a in (1, 2):
        r = env.val(_field_c(f"rho{a}"))
        v = env.val(_field_c(f"v{a}"))
        O = env.val(_field_c(f"Omega{a}"))
        rO_c = lambda F, pot, a=a: F[f"rho{a}"] * F[f"Omega{a}"]
        rOv_c = lambda F, pot, a=a: F[f"rho{a}"] * F[f"Omega{a}"] * F[f"v{a}"]
        res = res + (env.ddt(rO_c) + env.ddx(rOv_c)
                     - r * env.ddx(_field_c(f"Omega{a}")) * v
                     - _B(env, a) * O
                     - r * env.ddt(_field_c(f"Omega{a}")))
    return res


def _identity_b(env):
    res = 0.0
    for a in (1, 2):
        r = env.val(_field_c(f"rho{a}"))
        v = env.val(_field_c(f"v{a}"))
        ke_c = lambda F, pot, a=a: F[f"rho{a}"] * F[f"v{a}"]**2 * 0.5
        keflux_c = lambda F, pot, a=a: F[f"rho{a}"] * F[f"v{a}"] * (F[f"v{a}"]**2 - F[f"v{a}"]**2 * 0.5)
        halfv2_c = lambda F, pot, a=a: F[f"v{a}"]**2 * 0.5
        v_c = _field_c(f"v{a}")
        accel = (r * (env.ddt(v_c) + v * env.ddx(v_c))
                 + r * v * env.ddx(v_c) - r * env.ddx(halfv2_c))
        res = res + (env.ddt(ke_c) + env.ddx(keflux_c)
                     - _B(env, a) * (v**2 - 0.5 * v**2)
                     - accel * v)
    return res


def _identity_c(env):
    res = 0.0
    for a in (1, 2):
        r = env.val(_field_c(f"rho{a}"))
        v = env.val(_field_c(f"v{a}"))
        etar_c = lambda F, pot, a=a: _eta_rho(F, pot, a)
        etar = env.val(etar_c)
        flux_c = lambda F, pot, a=a: _eta_rho(F, pot, a) * F[f"rho{a}"] * F[f"v{a}"]
        res = res + (etar * env.ddt(_field_c(f"rho{a}")) + env.ddx(flux_c)
                     - r * env.ddx(etar_c) * v - etar * _B(env, a))
    return res


def _identity_d(env):
    res = 0.0
    for a in (1, 2):
        r = env.val(_field_c(f"rho{a}"))
        v = env.val(_field_c(f"v{a}"))
        Ta = env.val(lambda F, pot, a=a: _temp(F, pot, a))
        s_c = _field_c(f"s{a}")
        res = res + (r * Ta * env.ddt(s_c) + r * Ta * env.ddx(s_c) * v
                     - r * Ta * (env.ddt(s_c) + v * env.ddx(s_c)))
    return res


def _identity_e(env, e_time_term="u"):
    first_factor = env.val(_u) if e_time_term == "u" else env.val(_eta)
    res = env.ddt(_i_drift) * first_factor
    for a in (1, 2):
        r = env.val(_field_c(f"rho{a}"))
        v = env.val(_field_c(f"v{a}"))
        iorho_c = lambda F, pot, a=a: _SGN[a] * _i_drift(F, pot) / F[f"rho{a}"]
        iorho = env.val(iorho_c)
        flux_c = lambda F, pot, a=a: _SGN[a] * (_i_drift(F, pot) / F[f"rho{a}"] * F[f"v{a}"]) \
            * F[f"rho{a}"] * F[f"v{a}"]
        res = res + (env.ddx(flux_c)
                     - (r * (env.ddt(iorho_c) + v * env.ddx(iorho_c))
                        + r * iorho * env.ddx(_field_c(f"v{a}"))) * v
                     - iorho * v * _B(env, a))
    return res


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
                          v1, v2, Omega1=0.0, Omega2=0.0) -> LagrangianQuantities:
    """Evaluate R_alpha, k_alpha, T_alpha, i and f at one local state."""
    if not (rho1 > 0 and rho2 > 0):
        raise ValueError("densities must be positive")
    F = {"rho1": float(rho1), "rho2": float(rho2), "s1": float(s1), "s2": float(s2),
         "v1": float(v1), "v2": float(v2), "Omega1": float(Omega1), "Omega2": float(Omega2)}
    return LagrangianQuantities(
        R1=float(_R(F, potential, 1)), R2=float(_R(F, potential, 2)),
        k1=float(_k(F, potential, 1)), k2=float(_k(F, potential, 2)),
        T1=float(_temp(F, potential, 1)), T2=float(_temp(F, potential, 2)),
        i=float(_i_drift(F, potential)), f=float(_f_energy(F, potential)),
    )


# ----------------------------------------------------------------------
# convergence harness
# ----------------------------------------------------------------------

def convergence_order(norms, steps=None) -> float:
    """Least-squares slope of log(norm) against log(step).

    ``steps`` defaults to successive halvings 1, 1/2, 1/4, ...  Returns
    ``inf`` when any norm is zero (exact cancellation).
    """
    norms = np.asarray(norms, dtype=float)
    if np.any(norms < 0):
        raise ValueError("norms must be nonnegative")
    if np.any(norms == 0):
        return math.inf
    if steps is None:
        steps = [0.5**k for k in range(len(norms))]
    steps = np.asarray(steps, dtype=float)
    slope, _ = np.polyfit(np.log(steps), np.log(norms), 1)
    return float(slope)
