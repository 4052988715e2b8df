"""The normal distribution and the binomial tail, without scipy.

The evaluation path needs three special functions: Phi (``ndtr``, the
read error rate of every sampled cell), its inverse (``ndtri``, one
scalar per read solve) and the binomial survival function
(``binom_sf``, the ECC block failure).  Importing ``scipy.special`` for
them costs a worker ~0.25 s of start-up, so they live here:

* :func:`ndtr` is a numpy port of Cephes ``ndtr``/``erf``/``erfc``
  (S. L. Moshier; the rational erfc approximations are W. J. Cody's),
  with the coefficients, branch points and underflow rule scipy ships;
* :func:`ndtri` is :meth:`statistics.NormalDist.inv_cdf` (Wichura's
  AS 241);
* :func:`binom_sf` sums binomial terms directly.

:func:`sorted_sf_sum` is the read kernel's form of ``ndtr``: one sum
over an ascending population whose Gaussian density the caller already
holds, taken over contiguous branch slices; :func:`sorted_sf` gives the
same terms one by one.

``tests/test_normal.py`` pins each against scipy.
"""

import math
from statistics import NormalDist

import numpy as np

SQRT1_2 = math.sqrt(0.5)

#: ``exp`` underflows below ``-MAXLOG``: Cephes returns erfc = 0 there.
MAXLOG = 7.09782712893383996843e2

# Cephes ndtr.c: erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8 ...
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (  # leading 1 implied
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
# ... exp(-x^2) R(x)/S(x) for x >= 8 ...
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (  # leading 1 implied
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
# ... and erf(x) = x T(x^2)/U(x^2) for |x| <= 1.
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (  # leading 1 implied
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)


def _smallest_underflowing() -> float:
    """The least x with x*x > MAXLOG, where Cephes' erfc(x) is 0."""
    x = math.sqrt(MAXLOG)
    while x * x > MAXLOG:
        x = math.nextafter(x, 0.0)
    while x * x <= MAXLOG:
        x = math.nextafter(x, math.inf)
    return x


_UNDERFLOW = _smallest_underflowing()

_STANDARD = NormalDist()


def _polevl(x: np.ndarray, coefs) -> np.ndarray:
    """Horner's rule, highest power first (Cephes ``polevl``)."""
    ans = x * coefs[0]
    ans += coefs[1]
    for coef in coefs[2:]:
        ans *= x
        ans += coef
    return ans


def _p1evl(x: np.ndarray, coefs) -> np.ndarray:
    """:func:`_polevl` with an implied leading coefficient of 1."""
    ans = x + coefs[0]
    for coef in coefs[1:]:
        ans *= x
        ans += coef
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """erf(x) for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc_ratio(x: np.ndarray, density: np.ndarray, num, den) -> np.ndarray:
    """erfc(x) for x >= 1 as ``density * num(x) / den(x)``, with
    ``density = exp(-x*x)``: ``_P``/``_Q`` below 8, ``_R``/``_S`` above."""
    out = _polevl(x, num)
    out *= density
    out /= _p1evl(x, den)
    return out


def _cdf_scaled(x: np.ndarray) -> np.ndarray:
    """Phi(sqrt(2) x) = erfc(-x)/2, elementwise: Cephes ``ndtr`` after
    its ``a * SQRT1_2``."""
    z = np.abs(x)
    out = np.full_like(z, math.nan)
    small = z < SQRT1_2
    out[small] = 0.5 + 0.5 * _erf(x[small])
    # Below: erfc(z)/2 by branch, the value at -z.
    mid = (z >= SQRT1_2) & (z < 1.0)
    out[mid] = 0.5 - 0.5 * _erf(z[mid])
    for far, num, den in (((z >= 1.0) & (z < 8.0), _P, _Q),
                          ((z >= 8.0) & (z < _UNDERFLOW), _R, _S)):
        tail = z[far]
        out[far] = 0.5 * _erfc_ratio(tail, np.exp(-tail * tail), num, den)
    out[z >= _UNDERFLOW] = 0.0
    flip = (x > 0.0) & ~small
    out[flip] = 1.0 - out[flip]
    return out


def ndtr(a):
    """Phi(a), the standard normal CDF, elementwise (scipy's ``ndtr``)."""
    a = np.asarray(a, dtype=float)
    out = _cdf_scaled(a * SQRT1_2)
    return out[()] if out.ndim == 0 else out


def _sorted_sf_pieces(y: np.ndarray, density: np.ndarray):
    """Phi(-sqrt(2) y) over an ascending ``y`` below Cephes' underflow,
    as ``(start, values, scale)`` per contiguous branch slice: the
    terms are ``scale * values``."""
    one, eight, under = np.searchsorted(y, (1.0, 8.0, _UNDERFLOW))
    if one:
        yield 0, _cdf_scaled(-y[:one]), 1.0
    for lo, hi, num, den in ((one, eight, _P, _Q), (eight, under, _R, _S)):
        if hi > lo:
            yield lo, _erfc_ratio(y[lo:hi], density[lo:hi], num, den), 0.5


def sorted_sf_sum(y: np.ndarray, density: np.ndarray) -> float:
    """Sum of Phi(-sqrt(2) y) = erfc(y)/2 over an ascending ``y``.

    ``density`` is ``exp(-y*y)`` elementwise, which the caller already
    holds for the Gaussian slope; the erfc tail reuses it instead of a
    second ``exp``.  Each Cephes branch is one contiguous slice, so no
    mask is built; cells with ``y < 1`` take :func:`ndtr`'s path.
    """
    total = 0.0
    for _, values, scale in _sorted_sf_pieces(y, density):
        total += scale * float(np.sum(values))
    return total


def sorted_sf(y: np.ndarray, density: np.ndarray) -> np.ndarray:
    """Phi(-sqrt(2) y) elementwise over an ascending ``y``: the terms
    of :func:`sorted_sf_sum`, zero past the underflow."""
    out = np.zeros_like(y)
    for start, values, scale in _sorted_sf_pieces(y, density):
        values *= scale
        out[start:start + len(values)] = values
    return out


def ndtri(p: float) -> float:
    """The p-quantile of the standard normal, for 0 < p < 1 (scipy's
    ``ndtri`` on a scalar)."""
    return _STANDARD.inv_cdf(p)


def binom_sf(k: int, n: int, p: float) -> float:
    """P[Binom(n, p) > k], scipy's ``bdtrc(k, n, p)`` for integer k.

    Sums the k+1 lower terms, each ``C(n, j) p^j (1-p)^(n-j)`` with the
    last factor from ``log1p``.  A lower sum below 1/2 leaves a tail
    above 1/2, and ``1 - lower`` loses nothing.  Otherwise the tail is
    small: its own terms, from ``j = k+1`` up (each the last times
    ``(n-j) p / ((j+1) (1-p))``), are summed until one no longer
    changes the total.
    """
    if k < 0:
        return 1.0
    if k >= n or p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    log_q = math.log1p(-p)

    def term(j: int) -> float:
        return math.comb(n, j) * p ** j * math.exp((n - j) * log_q)

    lower = sum(map(term, range(k + 1)))
    if lower < 0.5:
        return 1.0 - lower
    odds = p / (1.0 - p)
    total = term_j = term(k + 1)
    for j in range(k + 1, n):
        term_j *= odds * (n - j) / (j + 1)
        grown = total + term_j
        if grown == total:
            break
        total = grown
    return total
