"""Brent's bracketing root finder, without scipy.

:func:`brentq` is a line-for-line port of scipy's ``Zeros/brentq.c``
(the solver behind ``scipy.optimize.brentq``) with the same defaults
and the same errors, so every root it returns is the same double that
scipy returns for the same function and bracket.  It exists so that
the evaluation path does not import ``scipy.optimize`` (~0.4 s of a
fresh interpreter's start) for a handful of scalar solves.
"""

import math
import sys

#: scipy's defaults: absolute and relative tolerance, iteration cap.
XTOL = 2e-12
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(
            "The function value at x=%r is NaN; solver cannot continue." % x
        )
    return fx


def brentq(f, a: float, b: float, xtol: float = XTOL) -> float:
    """A root of ``f`` in the bracket ``[a, b]`` by Brent's method.

    The root is within ``xtol + RTOL * |root|`` of a sign change of
    ``f``.  An endpoint where ``f`` is exactly zero is returned as is.

    Raises:
        ValueError: If ``f(a)`` and ``f(b)`` have the same sign, ``f``
            returns NaN, or ``xtol`` is not positive.
        RuntimeError: If no root is found within ``MAXITER`` iterations.
    """
    if xtol <= 0:
        raise ValueError("xtol too small (%g <= 0)" % xtol)
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        # the tolerance is 2 * delta
        delta = (xtol + RTOL * abs(xcur)) / 2
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
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(
        "Failed to converge after %d iterations, value is %f" % (MAXITER, xcur)
    )
