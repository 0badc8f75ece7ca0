"""Closest approach for many configurations at once, bit for bit equal to
the scalar kernel.

contact_arrays() evaluates make_pair_configuration + closest_approach +
tangency_residuals on structure-of-arrays input and returns, for every
row it resolves, exactly the floats the scalar calls return.  Rows it
cannot match that way are flagged and left to the scalar path, which then
gives the result or raises the exception the scalar API raises.  batch,
verify and the curves of analysis.py call it.

The formulas and decisions are the scalar kernel's own, written once for
floats and arrays (geometry's shape check and hypot; transform._transform;
quartic's coefficients, depressed form, resolvent root and
_closed_form_root; contact's branch choice, psi, d', contact point and
tangency check), here with numpy's sqrt, where and copysign.  What is this
module's own:

* cos/sin, exp, pow (Cardano's two cube roots), the resolvent's complex
  branch (disc < 0) and quartic._angle_root, for the rows whose Ferrari
  root is not accepted, run per element on Python floats: numpy's versions
  round differently;
* _unit() is UnitVec2's rule, math.hypot included, for the input
  directions and for k+ and k-: a unit vector stays as it is, the rows
  off its square screen are mapped through math.hypot, and the rows with
  a non-finite component are flagged;
* m.patch, which lets the Newton polish step again only the rows that
  have not settled;
* the branch codes, and the guards on the normals' magnitudes.

A row goes to the scalar path when its input fails validation, or when
any intermediate it uses is non-finite or a per-element call raises
(where the scalar code may raise).  No row of the stratified stream does,
up to aspect 10^6.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import repeat
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .contact import _branches, _contact_point, _on_line_pieces, _psi_d_prime, _tangency
from .geometry import _MIN_NORMAL, _UNIT_SLACK, _hypot, _valid_axes
from .quartic import (
    _angle_root,
    _cardano,
    _closed_form_root,
    _depressed,
    _resolvent_root,
    quartic_coefficients,
)
from .transform import ContactBranch, _transform

__all__ = ["BRANCHES", "CHUNK_ROWS", "ContactArrays", "contact_arrays", "from_angles", "unit_vectors"]

# rows per array-kernel evaluation for the callers that stream: batch reads,
# computes and writes this many rows per step, and a curve solves this many
# points at a time, so the arrays in memory stay small at any length
CHUNK_ROWS = 1024

# a row with |x x + y y - 1| <= 2^-52 is unit to rounding: the three
# roundings of x x + y y add at most 2^-52 near 1, so |(x, y)| lies strictly
# within 2^-52 of 1, a faithful math.hypot(x, y) within _UNIT_SLACK, and
# UnitVec2 keeps (x, y).  (Near 1 the computed sum steps by 2^-53 below and
# 2^-52 above, so a screen at 2^-53 would turn away every sum of 1 + 2^-52.)
_UNIT_SCREEN = 2.0**-52

# branch codes index this tuple; scalar-path rows read -1
BRANCHES = (
    ContactBranch.GENERAL,
    ContactBranch.CIRCLE_LIKE,
    ContactBranch.PHI_RIGHT_ANGLE,
    ContactBranch.PARALLEL_AXES_2A,
    ContactBranch.PARALLEL_AXES_2B,
)
_GENERAL, _CIRCLE, _RIGHT, _PAR_A, _PAR_B = range(len(BRANCHES))


class ContactArrays(NamedTuple):
    """Per-row results; rows flagged in ``scalar`` hold nan and branch -1."""

    d: np.ndarray
    d_prime: np.ndarray
    q: np.ndarray
    rc_x: np.ndarray
    rc_y: np.ndarray
    branch: np.ndarray
    residual_e1: np.ndarray
    residual_e2: np.ndarray
    scalar: np.ndarray


def _each(fn, bad: np.ndarray, *cols) -> np.ndarray:
    """fn applied element by element to Python floats (a non-array column
    is a constant).  Rows where fn raises are flagged in bad and read nan."""
    args = [c.tolist() if isinstance(c, np.ndarray) else repeat(c) for c in cols]
    try:
        return np.fromiter(map(fn, *args), dtype=np.float64, count=len(bad))
    except (ArithmeticError, ValueError):
        out = np.empty(len(bad))
        for i, xs in enumerate(zip(*args)):
            try:
                out[i] = fn(*xs)
            except (ArithmeticError, ValueError):
                out[i] = math.nan
                bad[i] = True
        return out


def _flag_nonfinite(bad: np.ndarray, *xs: np.ndarray) -> None:
    for x in xs:
        bad |= ~np.isfinite(x)


@np.errstate(all="ignore")  # on the rows it flags
def _unit(x: np.ndarray, y: np.ndarray, bad: np.ndarray):
    """UnitVec2(x, y) on new arrays: rows it would reject are flagged.  A
    row within _UNIT_SCREEN stays as it is, as UnitVec2 leaves it;
    math.hypot runs on the other rows only."""
    x, y = x.copy(), y.copy()
    rows = np.flatnonzero(~(abs(x * x + y * y - 1.0) <= _UNIT_SCREEN))
    if len(rows) == 0:
        return x, y
    rx, ry = x[rows], y[rows]
    n = _each(math.hypot, row_bad := bad[rows], rx, ry)
    bad[rows] = row_bad | ~((_MIN_NORMAL <= n) & (n < math.inf))
    renorm = abs(n - 1.0) > _UNIT_SLACK
    x[rows], y[rows] = np.where(renorm, rx / n, rx), np.where(renorm, ry / n, ry)
    return x, y


def _arrays(bad: np.ndarray) -> SimpleNamespace:
    """The array namespace of the shared formulas; rows where a pow or an
    exp raises are flagged in bad."""
    m = SimpleNamespace(
        sqrt=np.sqrt, where=np.where, copysign=np.copysign,
        pow=partial(_each, pow, bad), exp=partial(_each, math.exp, bad), patch=_patch,
    )
    m.hypot = partial(_hypot, m)
    return m


def _patch(keep: np.ndarray, values: tuple, fn, *args) -> tuple:
    """m.patch on arrays: copies of the arrays in values, with fn's values
    on the rows not in keep; fn gets those rows of each argument (of each
    array in a tuple argument; a float stays as it is)."""
    rows = np.flatnonzero(~keep)
    if len(rows) == 0:
        return values
    values = tuple(v.copy() for v in values)
    for v, new in zip(values, fn(*(_take(a, rows) for a in args))):
        v[rows] = new
    return values


def _take(a, rows: np.ndarray):
    if isinstance(a, tuple):
        return type(a)(*(_take(x, rows) for x in a))
    return a[rows] if isinstance(a, np.ndarray) else a


def _resolvent_roots(alpha, beta, gamma, bad):
    """_resolvent_root of each row: _cardano's y, or its own where disc < 0 or y is not finite."""
    y, _, _, disc = _cardano(alpha, beta, gamma, _arrays(bad))
    rows = np.flatnonzero(~(disc >= 0.0) | ~np.isfinite(y))
    y[rows] = _each(_resolvent_root, row_bad := bad[rows], alpha[rows], beta[rows], gamma[rows])
    bad[rows] = row_bad
    return y


def _quartic_roots(b2p, delta, tan2phi, bad):
    """solve_contact_quartic over arrays: Ferrari's root where it is
    accepted, _angle_root's, element by element, on the other rows."""
    c = quartic_coefficients(b2p, delta, tan2phi)
    hi = np.sqrt(1.0 + delta)
    depressed = _depressed(c)
    _flag_nonfinite(bad, *c, hi, *depressed)
    q, ok = _closed_form_root(c, depressed, hi, partial(_resolvent_roots, bad=bad), _arrays(bad))
    # the rows where solve_contact_quartic calls _angle_root
    rows = np.flatnonzero(~bad & ~ok)
    q[rows] = _each(_angle_root, row_bad := bad[rows], b2p[rows], delta[rows], tan2phi[rows])
    bad[rows] = row_bad
    return q


def from_angles(theta) -> tuple[np.ndarray, np.ndarray]:
    """UnitVec2.from_angle(theta) for each angle in radians, as (x, y)
    arrays; nan where that call raises (a non-finite angle)."""
    theta = np.asarray(theta, dtype=np.float64)
    bad = np.zeros(len(theta), dtype=bool)
    x, y = _unit(_each(math.cos, bad, theta), _each(math.sin, bad, theta), bad)
    x[bad] = y[bad] = math.nan
    return x, y


def unit_vectors(theta_deg) -> tuple[np.ndarray, np.ndarray]:
    """from_angles(math.radians(theta)) for each angle in degrees."""
    return from_angles(np.asarray(theta_deg, dtype=np.float64) * (math.pi / 180.0))  # math.radians


@np.errstate(all="ignore")
def contact_arrays(a1, b1, a2, b2, k1x, k1y, k2x, k2y, dx, dy) -> ContactArrays:
    """Closest approach and tangency residuals for each row of the inputs.

    Row i is the configuration make_pair_configuration(a1[i], b1[i],
    a2[i], b2[i], (k1x[i], k1y[i]), (k2x[i], k2y[i]), (dx[i], dy[i])).
    Directions need not be unit length; they are normalised as there, and
    the components of a UnitVec2 stay as they are.  Where ``scalar`` is
    False, d, d_prime, q, rc_x, rc_y and the branch are those of
    closest_approach and residual_e1/residual_e2 the first two values of
    tangency_residuals, bit for bit, also on rows whose quartic root comes
    from the contact angle.  Rows flagged in ``scalar`` must be computed
    with the scalar API, which may raise for them.
    """
    cols = [np.asarray(v, dtype=np.float64) for v in (a1, b1, a2, b2, k1x, k1y, k2x, k2y, dx, dy)]
    if cols[0].ndim != 1 or any(c.shape != cols[0].shape for c in cols):
        raise ValueError("contact_arrays needs ten 1-D arrays of one length")
    # make_pair_configuration; rows it rejects are computed, then discarded
    a1, b1, a2, b2, k1x, k1y, k2x, k2y, dhx, dhy = cols
    bad = ~(_valid_axes(a1, b1) & _valid_axes(a2, b2))
    (k1x, k1y), (k2x, k2y) = _unit(k1x, k1y, bad), _unit(k2x, k2y, bad)
    dhx, dhy = _unit(dhx, dhy, bad)
    # transform.transformed_pair: a row is flagged where a field below is
    # non-finite (its other intermediates follow from these)
    (
        eta, a11, a22, a12, _, _, b2p, a2p, delta, dhat_scale,
        kplus, kminus, cos_phi, sin_phi, parallel, par_a, _, _,
    ) = _transform(a1, b1, a2, b2, k1x, k1y, k2x, k2y, dhx, dhy, _arrays(bad))
    _flag_nonfinite(bad, eta, a11, a22, a12, b2p, a2p, delta, dhat_scale, cos_phi, sin_phi)
    # transformed_pair's UnitVec2(kplus) and UnitVec2(kminus)
    kplus, kminus = _unit(*kplus, bad), _unit(*kminus, bad)
    codes = np.where(parallel, np.where(par_a, _PAR_A, _PAR_B), _GENERAL).astype(np.int8)

    # contact.closest_approach: the branches, psi and d'
    circle, on_line = _branches(delta, cos_phi)
    codes[on_line] = _RIGHT
    codes[circle] = _CIRCLE
    d_prime, q, sin_psi, cos_psi = _on_line_pieces(
        circle, a2p, b2p, delta, sin_phi, cos_phi, _arrays(bad)
    )

    quartic = np.flatnonzero(~on_line & ~bad)
    sub_bad = np.zeros(len(quartic), dtype=bool)
    s, co = sin_phi[quartic], cos_phi[quartic]
    sb2p, sdelta = b2p[quartic], delta[quartic]
    q[quartic] = sq = _quartic_roots(sb2p, sdelta, (s * s) / (co * co), sub_bad)
    sin_psi[quartic], cos_psi[quartic], d_prime[quartic] = _psi_d_prime(
        sb2p, sdelta, s, co, sq, _arrays(sub_bad)
    )
    bad[quartic] |= sub_bad
    d = d_prime / dhat_scale

    # contact.closest_approach: the contact point
    gx, gy = _contact_point(b1, eta, k1x, k1y, *kplus, *kminus, sin_psi, cos_psi)
    rc_x = np.where(on_line, dhx / dhat_scale, gx)
    rc_y = np.where(on_line, dhy / dhat_scale, gy)

    # tangency_residuals (with the unflipped k2), and the checks that
    # UnitVec2(normal), Vec2 and the residuals' normal cross product make
    _, r1, r2, (nx, ny), (ox, oy) = _tangency(
        a1, b1, k1x, k1y, a2, b2, k2x, k2y, rc_x, rc_y, d, dhx, dhy
    )
    _flag_nonfinite(bad, q, d_prime, sin_psi, cos_psi, d, rc_x, rc_y, r1, r2, nx, ny, ox, oy)
    big_n = np.maximum(abs(nx), abs(ny))
    big_nn = big_n * np.maximum(abs(ox), abs(oy))
    # |n| = 0 or an overflowing hypot would make UnitVec2(normal) raise; a
    # vanishing |n1||n2| would make the cross product divide by zero, and
    # an overflowing one could make it non-finite, which raises too.  1e307
    # and 1e-300 are deliberate margins inside those edges: on 120,000 rows
    # of six sweeps (lengths 10^U(-300, 300), aspect up to 10^12) they defer
    # 943 rows the scalar API answers (809 at the edges) and answer none where it raises
    bad |= (big_n == 0.0) | (big_n > 1e307) | (big_nn < 1e-300) | (big_nn > 1e307)
    for x in (d, d_prime, q, rc_x, rc_y, r1, r2):
        x[bad] = math.nan
    codes[bad] = -1
    return ContactArrays(d, d_prime, q, rc_x, rc_y, codes, r1, r2, bad)

