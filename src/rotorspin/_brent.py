"""Brent's bracketed root finder and bounded scalar minimiser.

Both follow R. P. Brent, *Algorithms for Minimization without Derivatives*
(1973), ch. 4 and 5, in the form SciPy ships them (`brentq` and the
bounded `minimize_scalar`), step for step, so they visit the same points
and return the same floats. A NaN function value, a root that is not
bracketed and an exhausted iteration budget raise NumericFailureError.
"""

import math
import sys

from .errors import NumericFailureError

_RTOL = 4.0 * sys.float_info.epsilon
_ROOT_MAXITER = 100
_MIN_MAXFUN = 500
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise NumericFailureError(f"function value at x = {x!r} is NaN")
    return fx


def _negative(x: float) -> bool:
    return math.copysign(1.0, x) < 0


def brent_root(f, a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign, to within
    xtol + 4 eps |x|."""
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _negative(fpre) == _negative(fcur):
        raise NumericFailureError(
            f"root not bracketed: f({xpre!r}) and f({xcur!r}) have the same sign")
    for _ in range(_ROOT_MAXITER):
        if fpre != 0 and fcur != 0 and _negative(fpre) != _negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # where the denominator underflows to 0, SciPy's C divides
                # to an infinity or NaN, which fails the step test: bisect
                stry = (-fcur * (fblk * dblk - fpre * dpre) / denom if denom
                        else math.inf)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise NumericFailureError(
        f"root search in [{a!r}, {b!r}] did not converge in {_ROOT_MAXITER} "
        "iterations")


def brent_min(f, a: float, b: float, xatol: float) -> float:
    """Minimiser of f on [a, b] by golden-section and parabolic steps, to
    within sqrt(2.2e-16) |x| + xatol / 3, in at most 500 evaluations of f."""
    a, b = float(a), float(b)
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = _value(f, xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf + (-step if rat < 0 else step)
        fu = _value(f, x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MIN_MAXFUN:
            raise NumericFailureError(
                f"bounded minimisation did not converge in {_MIN_MAXFUN} "
                "evaluations")
    return xf
