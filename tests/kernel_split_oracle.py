"""The per-y lobe quadrature that integrated one y per call before the
forward transform took an array of y, kept as the reference the batched
`quad.integrate_kernel_split` is compared with.

Each call splits (0, y * tail_cut] into the kernel's half-lobes, groups the
pieces by (length, offset of the zero, step) with np.unique, builds one
tanh-sinh rule per group with `_rules` and places it at each piece of the
group with `_place`, and refines the pieces over the error budget of this
one y.  It takes no Gauss pass: `_rules` and `_place` are its own tanh-sinh
rule and two-ended placement, so it shares no rule family with the Gauss
rules of the engine it checks.

`_lobes` enumerates every lobe that may meet (0, t_max], one entry each, as
the engine did before it counted whole lobes in closed form; the tests take
it as the reference for that count and to build piece tables.
`_panel_layout` grows each y's panels pass by pass, as the engine did before
it laid them out in closed form; the tests take it as the reference for
that layout.
"""

import math

import numpy as np

from alphasine.grid import call_vec
from alphasine.quad import _PANEL_LOBES, _PANEL_X, _PANEL_X_MAX, QuadSpec, _lobe_counts, _runs

_HALF_PI = 0.5 * math.pi


def _lobes(phase: float, t_max: np.ndarray):
    """The lobes [k pi - phase, (k + 1) pi - phase] of a kernel with zeros at
    k*pi - phase that may meet (0, t_max[i]]: the index i each belongs to,
    and its k."""
    return _runs(np.zeros(len(t_max), dtype=int), _lobe_counts(phase, t_max))


def _panel_layout(phase: float, ys: np.ndarray, whole: np.ndarray):
    """The first panels of the whole lobes of each ys[i], as rows (owner, k,
    lobes) in the form of `quad._panel_layout`: each panel the largest
    power of two with m pi / y <= x_start clipped to [_PANEL_X,
    _PANEL_X_MAX], at most _PANEL_LOBES, found pass by pass while it is
    below _PANEL_LOBES and fits twice in the lobes left, then the runs of
    _PANEL_LOBES and the binary digits of the rest."""
    k, left = np.ones(len(ys), dtype=int), whole.copy()
    rows, live = [], np.flatnonzero(left > 0)
    # the x-length of a panel of each power of two up to the cap, per y
    sizes = 1 << np.arange(_PANEL_LOBES.bit_length())
    lengths = (sizes * math.pi) / ys[:, None]
    while len(live):
        bound = np.clip((k[live] * math.pi - phase) / ys[live], _PANEL_X, _PANEL_X_MAX)
        m = sizes[np.maximum(np.count_nonzero(lengths[live] <= bound[:, None], axis=1) - 1, 0)]
        grow = (m < _PANEL_LOBES) & (2 * m <= left[live])
        live, m = live[grow], m[grow]
        rows.append((live, k[live], m))
        k[live] += m
        left[live] -= m
    runs, rest = np.divmod(left, _PANEL_LOBES)
    owner, j = _runs(np.zeros(len(ys), dtype=int), runs)
    rows.append((owner, k[owner] + _PANEL_LOBES * j, np.full(len(owner), _PANEL_LOBES)))
    # the binary digits of the rest, largest first
    digits = rest[:, None] & sizes[-2::-1]
    starts = (k + _PANEL_LOBES * runs)[:, None] + np.cumsum(digits, axis=1) - digits
    owner, j = np.nonzero(digits)
    rows.append((owner, starts[owner, j], digits[owner, j]))
    owner = np.flatnonzero(whole)
    rows.append((owner, whole[owner] + 1, np.zeros(len(owner), dtype=int)))
    owner, k, lobes = (np.concatenate(c) for c in zip(*rows))
    order = np.argsort(owner, kind="stable")  # each y's rows came in order of k
    return owner[order], k[order], lobes[order]


def _log_cosh(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return np.where(x >= 0.0, -np.log1p(np.exp(-ax)), x - np.log1p(np.exp(-ax)))


def _ln_sin(u: np.ndarray, ln_u: np.ndarray) -> np.ndarray:
    """log(sin u) for u in (0, pi) given the exact log of u."""
    out = np.empty_like(u)
    small = u < 1e-3
    us = u[small]
    out[small] = ln_u[small] - us * us / 6.0 - us**4 / 180.0
    out[~small] = np.log(np.sin(u[~small]))
    return out


def _kmax(alpha: float, h: float) -> int:
    """Half the node count of the rule at step h: the tanh-sinh sum runs to
    s = 18.5 (18.5 / (1 + a) for a < 0), where the dropped tail of the
    weights, about e^{-2s(1+a)}, is below 1e-16 of the mass at every step."""
    s_req = max(18.5, 18.5 / (1.0 + alpha))
    return max(6, int(math.ceil(math.asinh(2.0 * s_req / math.pi) / h)))


def _rules(alpha: float, h: float, length: np.ndarray, off: np.ndarray):
    """Tanh-sinh rules on half-lobe pieces, one row per piece: length[i] is
    the piece's length and off[i] how far its kernel zero lies beyond its zero
    end (both columns).  A rule does not depend on where the piece sits, nor
    on which side the zero lies.

    Returns (d, near, w).  Node j of row i is
    d[i, j] from the zero end where near[j], else d[i, j] from the other end.
    Its distance u to the zero is off plus its distance to the zero end, which
    for the near nodes comes straight from the rule, never from float
    subtraction.  w[0] holds the weights times |sin u|^alpha, and w[1] the
    embedded h' = 2h rule: 2 w[0] on every second node, 0 elsewhere.
    """
    kmax = _kmax(alpha, h)
    k = np.arange(-kmax, kmax + 1)
    kh = k * h
    s = _HALF_PI * np.sinh(kh)
    lnw = math.log(h * _HALF_PI) + _log_cosh(kh) - 2.0 * _log_cosh(s)
    near = s <= 0.0
    # each node's distance to the nearer end, in log form exact to the end
    ln_d = np.log(length) + _log_sigmoid(-2.0 * np.abs(s))
    d = np.exp(ln_d)
    u = off + np.where(near, d, length - d)
    ln_u = np.where(near, ln_d, np.log(length - d))
    cut = off[:, 0] > 0.0
    ln_u[cut] = np.log(u[cut])
    q = np.exp(lnw + np.log(0.5 * length) + alpha * _ln_sin(u, ln_u))
    return d, near, np.stack((q, np.where(k % 2 == 0, 2.0 * q, 0.0)))


def _place(d, near, zero_end, other_end, scale=1.0):
    """Nodes of the pieces between zero_end[i] and other_end[i], one row each
    and divided by scale[i], from their distances d to the ends (see _rules).
    The near nodes are a prefix of every row, so each half is written in
    place by slicing."""
    t = (np.sign(other_end - zero_end) / scale)[:, None] * d
    cut = np.count_nonzero(near)
    t[:, :cut] += (zero_end / scale)[:, None]
    np.subtract((other_end / scale)[:, None], t[:, cut:], out=t[:, cut:])
    return t


def _kernel_pieces(phase: float, t_max: float) -> np.ndarray:
    k = np.arange(math.floor((t_max + phase) / math.pi) + 2)
    zero = k * math.pi - phase
    crest = k * math.pi + (_HALF_PI - phase)
    next_zero = (k + 1) * math.pi - phase
    rising = np.column_stack((zero, np.minimum(crest, t_max),
                              np.where(crest <= t_max, _HALF_PI, t_max - zero),
                              np.zeros(len(k))))
    falling = np.column_stack((np.minimum(next_zero, t_max), crest,
                               np.where(next_zero <= t_max, _HALF_PI, t_max - crest),
                               np.maximum(next_zero - t_max, 0.0)))
    rows = np.stack((rising, falling), axis=1).reshape(-1, 4)
    return rows[(rows[:, 2] > 0.0) & (rows[:, 0] >= 0.0)]


def _piece_sums(f, y: float, alpha: float, pieces: np.ndarray, h: np.ndarray):
    rules, which = np.unique(np.column_stack((pieces[:, 2:], h)), axis=0, return_inverse=True)
    groups = [np.flatnonzero(which == g) for g in range(len(rules))]
    placed = []
    for rows, (length, off, hg) in zip(groups, rules):
        d, near, w = _rules(alpha, hg, np.array([[length]]), np.array([[off]]))
        placed.append((_place(d, near, pieces[rows, 0], pieces[rows, 1]), w[0, 0], w[1, 0]))
    t_all = np.concatenate([t.ravel() for t, _, _ in placed])
    fx = np.asarray(call_vec(f, t_all / y), dtype=float) / y
    value = np.empty(len(h))
    error = np.empty(len(h))
    start = 0
    for rows, (t, q, q_coarse) in zip(groups, placed):
        fx_rows = fx[start:start + t.size].reshape(t.shape)
        start += t.size
        coarse_sum = np.sum(q_coarse * fx_rows, axis=1)
        value[rows] = np.sum(q * fx_rows, axis=1)
        error[rows] = np.abs(value[rows] - coarse_sum)
    return value, error


def kernel_split_at(f, a: float, y: float, spec: QuadSpec, kernel: str) -> float:
    """Integral of |sin(xy)|^a f(x) (|cos| for the cosine kernel) over
    (0, tail_cut] at one y > 0."""
    phase = 0.0 if kernel == "sine" else _HALF_PI
    pieces = _kernel_pieces(phase, y * spec.tail_cut)
    h = np.full(len(pieces), 0.2)
    value, error = _piece_sums(f, y, a, pieces, h)
    for _ in range(8):
        total = float(np.sum(value))
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if float(np.sum(error)) <= tol:
            return total
        bad = error > tol / (2.0 * len(pieces))
        h[bad] *= 0.5
        value[bad], error[bad] = _piece_sums(f, y, a, pieces[bad], h[bad])
    raise AssertionError(f"the reference did not converge at y={y}")
