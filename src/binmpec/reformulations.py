"""Equivalence-set predicates, sign rounding, the binary domains, h ratio.

Five continuous characterizations of the binary set are supported as
membership predicates.  With x, v of length n:

  L2BoxNonSep        <x, v> = n,    |x|_inf <= 1, ||v||_2^2 <= n
  LinfBoxNonSep      <x, v> = n,    |x|_inf <= 1, |v|_inf <= 1
  LinfBoxSep         x_i v_i = 1,   |x|_inf <= 1, |v|_inf <= 1
  L2BoxSep           x_i v_i = 1,   |x|_inf <= 1, ||v||_2^2 <= n
  L2BoxNonSepReform  |x|_inf <= 1,  ||x||_2^2 = n   (v-free)

Each set intersected over all admissible v forces x binary; every binary
x (paired with v = x) belongs to all five.
"""

import enum

import numpy as np


class MpecVariant(enum.Enum):
    L2BoxNonSep = "l2_box_nonsep"
    LinfBoxNonSep = "linf_box_nonsep"
    LinfBoxSep = "linf_box_sep"
    L2BoxSep = "l2_box_sep"
    L2BoxNonSepReform = "l2_box_nonsep_reform"


def membership(variant, x, v, tol):
    """True iff (x, v) lies in the variant's set within tol."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.shape != v.shape:
        raise ValueError("x and v must have equal length")
    n = x.shape[0]
    box_x = np.max(np.abs(x), initial=0.0) <= 1.0 + tol
    if variant is MpecVariant.L2BoxNonSep:
        return bool(box_x
                    and abs(float(np.dot(x, v)) - n) <= tol
                    and float(np.dot(v, v)) <= n + tol)
    if variant is MpecVariant.LinfBoxNonSep:
        return bool(box_x
                    and abs(float(np.dot(x, v)) - n) <= tol
                    and np.max(np.abs(v), initial=0.0) <= 1.0 + tol)
    if variant is MpecVariant.LinfBoxSep:
        return bool(box_x
                    and np.max(np.abs(x * v - 1.0), initial=0.0) <= tol
                    and np.max(np.abs(v), initial=0.0) <= 1.0 + tol)
    if variant is MpecVariant.L2BoxSep:
        return bool(box_x
                    and np.max(np.abs(x * v - 1.0), initial=0.0) <= tol
                    and float(np.dot(v, v)) <= n + tol)
    if variant is MpecVariant.L2BoxNonSepReform:
        return bool(box_x and abs(float(np.dot(x, x)) - n) <= tol)
    raise TypeError("unknown variant: %r" % (variant,))


def domain_bounds(domain):
    """The two binary values (lo, hi) of ``"pm1"`` or ``"zeroone"``."""
    if domain == "pm1":
        return -1.0, 1.0
    if domain == "zeroone":
        return 0.0, 1.0
    raise ValueError("domain must be 'pm1' or 'zeroone'")


def round_sign(x, domain="pm1"):
    """Nearest binary point; sign(0) := +1, and 0.5 rounds up in {0, 1}."""
    lo, hi = domain_bounds(domain)
    return np.where(np.asarray(x, dtype=np.float64) >= 0.5 * (lo + hi), hi, lo)


def h_ratio(x):
    """(n - sqrt(n) ||x||_2) / ||sign(x) - x||_2 for non-binary box points.

    Bounded below by 1/2 on the box, which turns a small bilinear gap
    into a small distance to the binary set.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if np.max(np.abs(x), initial=0.0) > 1.0 + 1e-12:
        raise ValueError("h_ratio requires |x|_inf <= 1")
    dist = float(np.linalg.norm(round_sign(x) - x))
    if dist == 0.0:
        raise ValueError("h_ratio is undefined at binary points")
    return (n - np.sqrt(n) * float(np.linalg.norm(x))) / dist
