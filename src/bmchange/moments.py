"""Probability-weighted-moment estimation on subsamples.

Two weight families are supported: the classical one with weights
(1, x, x^2) and a logarithmic one with weights
(-x log x, x (log x)^2, -x^2 log x).  Both come with closed-form weight
derivatives, needed by the variance estimator downstream.

The prefix/suffix engine evaluates the subsample estimators for every split
point of a sample; its normative reference is the naive per-split
recomputation, which the tests enforce.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .distributions import EULER_GAMMA, DataError, GevParams, as_rows, as_sample

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
LOG32 = math.log(1.5)
_ZETA3 = 1.2020569031595942  # Riemann zeta(3)

# Shape bracket searched by the numeric GEV-map solvers.
SHAPE_BRACKET_LO = -5.0
PWM_SHAPE_HI = 1.0 - 1e-6
GPWM_SHAPE_HI = 2.0 - 1e-6

# Sample size from which the prefix engine runs the O(n log n) merge tree
# for the polynomial rank weights instead of the O(n^2) sorted-insertion
# loop: the measured crossover of the two (BENCH_10.json).
TREE_MIN_N = 512

# Most engine rows for which the sorted-insertion loop shifts each row's
# buffer at a precomputed position rather than merging all rows at once.
# Both give the same raw sums bit for bit, so the outputs do not depend on
# it.  Measured (BENCH_15.json): with up to 4 rows the shift wins from
# n = 200 on and is within 8 % at n = 80; with 8 or more it loses below
# n = 512.
SHIFT_MAX_ROWS = 4

# Rows per merge tree: the tree's temporaries grow with the rows it holds,
# so larger batches run in chunks of this many.  At 128 rows of n = 1000
# that cut the peak from 9.4 to 6.3 MB at the same speed (BENCH_15.json).
TREE_CHUNK_ROWS = 32


class Estimator(enum.Enum):
    BETA_HAT = "beta_hat"  # plotting-position estimator
    B_HAT = "b_hat"        # unbiased order-statistics estimator
    EXACT = "exact"        # population value (oracles only)


@dataclass(frozen=True)
class WeightFamily:
    """Weight functions nu_i on (0, 1] and their derivatives, with the
    family's default plotting-position offset gamma."""

    tag: str
    default_gamma: float

    def resolve_gamma(self, gamma: float | None) -> float:
        """The plotting-position offset: ``gamma``, or the family's default
        when None.  The log weights need every position j + gamma positive."""
        gamma = self.default_gamma if gamma is None else gamma
        if self.tag == "gpwm" and 1.0 + gamma <= 0.0:
            raise DataError("log-weight moments need strictly positive ecdf values; use gamma >= 0")
        return gamma

    def nu_matrix(self, u: np.ndarray) -> np.ndarray:
        """(len(u), 3) matrix of nu_i(u)."""
        u = np.asarray(u, dtype=float)
        out = np.empty((u.size, 3))
        if self.tag == "pwm":
            out[:, 0] = 1.0
            out[:, 1] = u
            out[:, 2] = u * u
        else:
            lu = np.log(u)
            ulu = u * lu
            np.negative(ulu, out=out[:, 0])
            np.multiply(ulu, lu, out=out[:, 1])
            np.multiply(-u * u, lu, out=out[:, 2])
        return out

    def nu_prime_matrix(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        out = np.empty((u.size, 3))
        if self.tag == "pwm":
            out[:, 0] = 0.0
            out[:, 1] = 1.0
            out[:, 2] = 2.0 * u
        else:
            lu = np.log(u)
            out[:, 0] = -(lu + 1.0)
            out[:, 1] = lu * lu + 2.0 * lu
            out[:, 2] = -(2.0 * u * lu + u)
        return out


PWM = WeightFamily("pwm", -0.35)
GPWM = WeightFamily("gpwm", 0.0)


@dataclass(frozen=True)
class MomentTriple:
    m1: float
    m2: float
    m3: float
    family: WeightFamily = PWM
    estimator: Estimator = Estimator.EXACT
    gamma: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.m1, self.m2, self.m3])

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.m1, self.m2, self.m3)):
            raise DataError("moment triple entries must be finite")


def _as_triple_array(m) -> np.ndarray:
    if isinstance(m, MomentTriple):
        return m.as_array()
    arr = np.asarray(m, dtype=float)
    if arr.shape != (3,):
        raise DataError("expected a moment triple")
    return arr


def ecdf(sample, x: float, gamma: float) -> float:
    """Modified empirical c.d.f. (count{X_j <= x} + gamma)/n; not clamped."""
    values = as_sample(sample)
    return (float(np.count_nonzero(values <= x)) + gamma) / values.size


def position_numerators(n: int, family: WeightFamily, gamma: float | None) -> np.ndarray:
    """j + gamma for ranks j = 1..n: the plotting positions of a sample of
    size k are (j + gamma)/k, gamma as :meth:`WeightFamily.resolve_gamma` takes it."""
    return np.arange(1, n + 1) + family.resolve_gamma(gamma)


def full_sample_rows(values: np.ndarray, estimator: Estimator, family: WeightFamily = PWM, gamma: float | None = None):
    """Whole-sample moments along the last axis: (3,) for a sample, (R, 3) for rows.

    Ranks are assigned by stable sorted position, so the plotting-position
    estimator equals the sorted-sample form (1/n) sum_j X_(j) nu_i((j + gamma)/n).
    It is the k = n step of the prefix engine that serves n: the same rank
    weights, the same raw sums and the same coefficients, so a sample's
    whole-sample moments equal its last prefix bit for bit.
    """
    s = np.sort(values, axis=-1, kind="stable")
    n = s.shape[-1]
    if estimator is Estimator.B_HAT and n < 3:
        raise DataError("the unbiased estimator needs at least 3 observations")
    origin = _log_origin(n)
    rows = s.reshape(-1, n)
    if _uses_tree(n, family):
        sums = _fold_sums(rows, estimator, family, gamma)
    else:
        sums = np.vecdot(rows[:, None, :], _rank_weights(n, origin, estimator, family, gamma))
    return _moments_from_sums(sums, n, origin, estimator, family).reshape(*s.shape[:-1], 3)


def _log_origin(k):
    """The power of two at or below each subsample size k.  The log weights
    are taken relative to it, so that log(k/origin) lies in [0, log 2) and
    recentring the logs at k cancels no more than a few bits."""
    return np.ldexp(1.0, np.frexp(k)[1] - 1)


def _rank_weights(size: int, origin: float, estimator: Estimator, family: WeightFamily, gamma: float | None):
    """(c, size) weights of the sorted ranks j = 1..size.

    The raw sums S(w) = sum_j X_(j) w_j of a sorted subsample against these
    rows give its moments through :func:`_moments_from_sums`; with a = j +
    gamma and L = log(a/origin) the rows are 1, j-1, (j-1)(j-2) (unbiased),
    1, a, a^2 (plotting positions) and a, aL, aL^2, a^2, a^2 L (log weights).
    """
    if estimator is Estimator.B_HAT:
        jm1 = np.arange(0.0, size)
        return np.stack([np.ones(size), jm1, jm1 * (jm1 - 1.0)])
    a = position_numerators(size, family, gamma)
    if family.tag == "pwm":
        return np.stack([np.ones(size), a, a * a])
    log_a = np.log(a / origin)
    a_log = a * log_a
    return np.stack([a, a_log, a_log * log_a, a * a, a * a_log])


def _moments_from_sums(sums: np.ndarray, k, origin, estimator: Estimator, family: WeightFamily) -> np.ndarray:
    """Moment triples (..., 3) of sorted subsamples of sizes k from their raw
    sums (..., c) against ``_rank_weights(., origin, ...)``.

    The moments overwrite the first three sums, so that no second array of
    the engine's size is alive; the result is a view of ``sums``.  With
    l = log(k/origin), the positions u = a/k have log u = L - l, so the log
    weights -u log u, u log^2 u, -u^2 log u expand into the rows of the
    weight matrix with coefficients in l.
    """
    k = np.asarray(k, dtype=float)
    s = np.moveaxis(sums, -1, 0)
    if estimator is Estimator.B_HAT:
        s[0] /= k
        s[1] /= k * (k - 1.0)
        s[2] /= k * (k - 1.0) * (k - 2.0)
    elif family.tag == "pwm":
        s[0] /= k
        s[1] /= k * k
        s[2] /= k * k * k
    else:
        l = np.log(k / origin)
        kk = k * k
        # m2 = (S(aL^2) - 2l S(aL) + l^2 S(a))/k^2 goes to slot 2 first, while
        # slots 0 and 1 still hold S(a) and S(aL)
        tmp = np.multiply(2.0 * l, s[1])
        s[2] -= tmp
        np.multiply(l * l, s[0], out=tmp)
        s[2] += tmp
        s[2] /= kk
        # m1 = -(S(aL) - l S(a))/k^2
        np.multiply(l, s[0], out=tmp)
        s[1] -= tmp
        np.negative(s[1], out=s[1])
        np.divide(s[1], kk, out=s[0])
        s[1] = s[2]
        # m3 = -(S(a^2 L) - l S(a^2))/k^3
        np.multiply(l, s[3], out=tmp)
        s[4] -= tmp
        np.negative(s[4], out=s[4])
        np.divide(s[4], k * k * k, out=s[2])
    return sums[..., :3]


def beta_hat(sample, family: WeightFamily = PWM, gamma: float | None = None) -> MomentTriple:
    """Plotting-position moment estimator over the whole sample; gamma None
    means the family's default."""
    gamma = family.resolve_gamma(gamma)
    m = full_sample_rows(as_sample(sample), Estimator.BETA_HAT, family, gamma)
    return MomentTriple(*m, family=family, estimator=Estimator.BETA_HAT, gamma=gamma)


def b_hat(sample) -> MomentTriple:
    """Unbiased order-statistics moment estimator; needs n >= 3."""
    m = full_sample_rows(as_sample(sample), Estimator.B_HAT)
    return MomentTriple(*m, family=PWM, estimator=Estimator.B_HAT)


def exact_pwm_gev(p: GevParams) -> MomentTriple:
    """Population moments of the GEV under the classical weights (test oracle).

    Uses beta_i = E[max(X_1..X_i)]/i together with max-stability: the maximum
    of i i.i.d. GEV(mu, sigma, xi) variables is GEV with location
    mu + sigma (i^xi - 1)/xi, scale sigma i^xi and the same shape.
    """
    if p.xi >= 1.0:
        raise DataError("population moments need shape < 1 (finite mean)")
    xi = p.xi
    # log Gamma(1 - xi): near 0 by its Taylor series, since rounding 1 - xi
    # costs (Gamma(1 - xi) - 1)/xi about 1e-16/|xi| relative
    if abs(xi) < 1e-4:
        log_gamma = xi * (EULER_GAMMA + xi * (math.pi**2 / 12.0 + xi * _ZETA3 / 3.0))
    else:
        log_gamma = math.lgamma(1.0 - xi)
    out = []
    for i in (1, 2, 3):
        if abs(xi) < 1e-12:
            loc, scale = p.mu + p.sigma * math.log(i), p.sigma
            mean = loc + scale * EULER_GAMMA
        else:
            loc = p.mu + p.sigma * math.expm1(xi * math.log(i)) / xi
            scale = p.sigma * i**xi
            mean = loc + scale * math.expm1(log_gamma) / xi
        out.append(mean / i)
    return MomentTriple(*out, family=PWM, estimator=Estimator.EXACT)


def in_dxi(m) -> bool:
    """Feasibility region of the classical moment-to-GEV map (strict)."""
    return bool(in_dxi_rows(_as_triple_array(m)[None])[0])


def shape_ratio_target(m) -> float:
    """(3 m3 - m1)/(2 m2 - m1), the right side of the shape equation."""
    m1, m2, m3 = _as_triple_array(m)
    return (3 * m3 - m1) / (2 * m2 - m1)


def gpwm_ratio_rows(m: np.ndarray):
    """Numerator 2 (m1 - m2), denominator m1 - 9/4 m3 and their ratio, per
    row of an (n, 3) array: the ratio is matched against xi/(1 - (3/2)^xi)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        num = 2.0 * (m[:, 0] - m[:, 1])
        den = m[:, 0] - 2.25 * m[:, 2]
        return num, den, num / den


def gpwm_solver_target(m) -> float:
    """2 (m1 - m2)/(m1 - 9/4 m3), matched against xi/(1 - (3/2)^xi)."""
    return float(gpwm_ratio_rows(_as_triple_array(m)[None])[2][0])


def _gpwm_q(xi: float) -> float:
    """xi / (1 - (3/2)^xi); continuous, strictly increasing, always negative."""
    if abs(xi) < 1e-12:
        return -1.0 / LOG32
    return -xi / math.expm1(xi * LOG32)


GPWM_TARGET_LO = _gpwm_q(SHAPE_BRACKET_LO)
GPWM_TARGET_HI = _gpwm_q(GPWM_SHAPE_HI)


def in_dh(m) -> bool:
    """True iff the log-weight moment system is solvable with shape < 2 and
    positive scale.

    The solver target xi/(1 - 1.5^xi) is strictly increasing on the search
    bracket, so solvability reduces to the target falling inside the
    bracket's image and the scale equation giving a positive value (m1 > m2).
    """
    return bool(in_dh_rows(_as_triple_array(m)[None])[0])


def in_dh_rows(m: np.ndarray) -> np.ndarray:
    """Vectorized :func:`in_dh` over rows of an (n, 3) array; False on a
    row that is not finite."""
    num, den, target = gpwm_ratio_rows(m)
    return (num > 0.0) & (den != 0.0) & (target > GPWM_TARGET_LO) & (target < GPWM_TARGET_HI)


# D_xi is where all three margins are positive; one label per margin.
DXI_CONDITIONS = ("2*m2 - m1 > 0", "3*m3 - 2*m2 > 0", "-m1 + 4*m2 - 3*m3 > 0")


def dxi_margins(m: np.ndarray):
    """The three margins of D_xi along the last axis of ``m`` (see DXI_CONDITIONS)."""
    m1, m2, m3 = m[..., 0], m[..., 1], m[..., 2]
    return 2 * m2 - m1, 3 * m3 - 2 * m2, -m1 + 4 * m2 - 3 * m3


def in_dxi_rows(m: np.ndarray) -> np.ndarray:
    """Vectorized :func:`in_dxi` over rows of an (n, 3) array."""
    a, b, c = dxi_margins(m)
    return (a > 0) & (b > 0) & (c > 0)


def prefix_suffix_moments(
    sample,
    estimator: Estimator,
    family: WeightFamily = PWM,
    gamma: float | None = None,
):
    """Subsample moments at every split of the sample.

    Returns ``(prefix, prefix_valid, suffix, suffix_valid)`` where
    ``prefix[k]`` holds the moments of ``X_1..X_k`` (row 0 unused) and
    ``suffix[k]`` those of ``X_{k+1}..X_n`` (row n unused).  Rows below the
    estimator's minimum subsample size are flagged invalid rather than
    zero-filled, so they can never win the CUSUM maximum.

    An (R, n) array of R samples gives ``prefix`` and ``suffix`` of shape
    (R, n + 1, 3); the validity flags depend on k only and keep shape
    (n + 1,).
    """
    batch = np.ndim(sample) == 2
    values = as_rows(sample) if batch else as_sample(sample)[None]
    rows, n = values.shape
    if n < 2:
        raise DataError("need at least 2 observations to split")
    if estimator is Estimator.B_HAT and family.tag != "pwm":
        raise DataError("the unbiased estimator is defined for the classical weights only")
    # the suffix over X_{k+1}..X_n is the prefix of length n-k of the reversed row
    moments, valid = _running_prefix(np.concatenate([values, values[:, ::-1]]), estimator, family, gamma)
    prefix, suffix = moments[:rows], moments[rows:, ::-1]
    if batch:
        return prefix, valid, suffix, valid[::-1]
    return prefix[0], valid, suffix[0], valid[::-1]


def _running_prefix(values: np.ndarray, estimator: Estimator, family: WeightFamily, gamma: float | None):
    """Moments of X_1..X_k of every row of the (R, n) ``values`` for every k.

    The raw sums come from the merge tree when :func:`_uses_tree` says so
    and from the sorted-insertion loop otherwise; the per-k coefficients
    are then applied once, in place.
    """
    n = values.shape[1]
    min_size = 3 if estimator is Estimator.B_HAT else 1
    engine = _tree_sums if _uses_tree(n, family) else _loop_sums
    sums = engine(values, estimator, family, gamma)
    sums[:, :min_size] = np.nan
    ks = np.arange(min_size, n + 1)
    _moments_from_sums(sums[:, min_size:], ks, _log_origin(ks), estimator, family)
    return sums[..., :3], np.arange(n + 1) >= min_size


def _uses_tree(n: int, family: WeightFamily) -> bool:
    """Whether samples of size n run the merge tree.  Only the polynomial
    rank weights (b_hat and the pwm plotting positions) have a shift rule;
    the log weights always run the loop.  The choice depends on n alone,
    never on the number of rows, so a row's result does not depend on its
    batch."""
    return family.tag == "pwm" and n >= TREE_MIN_N


def _loop_sums(values: np.ndarray, estimator: Estimator, family: WeightFamily, gamma: float | None):
    """Raw sums (R, n + 1, c) of X_1..X_k (row 0 unset) by incremental sorted insertion.

    Each step inserts every row's new value into that row's sorted buffer
    and takes the raw sums of all rows against fixed rank weights, one dot
    product per row and weight row.  The log weights have one origin per
    octave of k (see :func:`_log_origin`).  O(n^2) per row.

    With at most ``SHIFT_MAX_ROWS`` rows, each row's buffer shifts up by
    one slot from the value's precomputed position (:func:`_insert_positions`);
    with more, a branchless merge updates every row in three vectorised
    passes.  Both leave the same sorted values in the buffer, except that
    numpy's max and min may swap the signs of tied zeros; the dot products
    cannot see those, since they add zero products up to +0.0, so the raw
    sums agree bit for bit.
    """
    rows, n = values.shape
    buf = np.empty((rows, n))
    shift = rows <= SHIFT_MAX_ROWS
    if shift:
        # a memoryview hands out the positions as Python ints, for slicing
        lines = list(zip(buf, map(memoryview, _insert_positions(values)), values))
    else:
        spare = np.empty((rows, n))
    origins = [1 << b for b in range(n.bit_length())]
    weights = [_rank_weights(min(2 * o - 1, n), o, estimator, family, gamma) for o in origins]
    sums = np.empty((rows, n + 1, weights[0].shape[0]))
    for k in range(1, n + 1):
        if shift:
            for line, at, xs in lines:
                p = at[k - 1]
                line[p + 1 : k] = line[p : k - 1]
                line[p] = xs[k - 1]
        else:
            x = values[:, k - 1]
            prev = buf[:, : k - 1]
            # branchless merge: new[j] = min(old[j], max(x, old[j-1]))
            nxt = spare[:, :k]
            np.maximum(prev, x[:, None], out=nxt[:, 1:])
            nxt[:, 0] = x
            np.minimum(nxt[:, : k - 1], prev, out=nxt[:, : k - 1])
            buf, spare = spare, buf
        sums[:, k] = np.vecdot(buf[:, None, :k], weights[k.bit_length() - 1][:, :k])
    return sums


def _shift_table(depth: int, estimator: Estimator, family: WeightFamily, gamma: float | None):
    """Leaf weights (p1(1), p2(1)) and q(c) for c = 0..2^(depth - 1), read
    off the polynomial rank weights 1, p1(j), p2(j).  Both p1 families step
    by 1 in j, so p2(j + c) = p2(j) + 2c p1(j) + q(c) with q(c) = p2(1 + c)
    - p2(1) - 2c p1(1): c^2 for the plotting positions, c(c - 1) for b_hat.
    q is an integer, so rounding drops the error of the differences."""
    size = (1 << depth >> 1) + 1
    w = _rank_weights(size, 1.0, estimator, family, gamma)
    q = np.rint(w[2] - w[2, 0] - 2.0 * np.arange(size) * w[1, 0])
    return w[1, 0], w[2, 0], q


def _leaves(s: np.ndarray, p1: float, p2: float) -> list:
    """Raw sums of one-member nodes holding the values ``s``, each array
    followed by the zero sums of an empty node."""
    return [np.append(s, 0.0), np.append(s * p1, 0.0), np.append(s * p2, 0.0)]


def _merge(state: list, left: np.ndarray, right: np.ndarray, c: np.ndarray, q: np.ndarray) -> list:
    """One level up the merge tree.

    ``state`` holds a level's raw sums S0, S1, S2 as flat arrays in the
    form of :func:`_leaves`.  For each parent position, ``left`` and
    ``right`` index the sums of the members arrived in its left and right
    child (the empty node when none has), and c counts the left ones.  The
    right members' local ranks j rise by c, which adds c S0 to S1 and
    2c S1 + q(c) S0 to S2.  The parent sums come back in the same form.
    They are made S2 first, and each child array leaves ``state`` once
    used, so that little more than one level is alive at a time.
    """
    parent = [None, None, None]
    tmp = np.empty(c.shape)

    def take(i, idx, out):
        return np.take(state[i], idx, out=out, mode="clip")

    def make(i):
        parent[i] = np.empty(c.size + 1)
        parent[i][-1] = 0.0
        return parent[i][:-1].reshape(c.shape)

    s2 = make(2)
    np.take(q, c, out=s2, mode="clip")
    s2 *= take(0, right, tmp)
    take(1, right, tmp)
    tmp *= c
    tmp *= 2.0
    s2 += tmp
    s2 += take(2, right, tmp)
    s2 += take(2, left, tmp)
    state[2] = None
    s1 = make(1)
    take(0, right, s1)
    s1 *= c
    s1 += take(1, right, tmp)
    s1 += take(1, left, tmp)
    state[1] = None
    s0 = make(0)
    take(0, right, s0)
    s0 += take(0, left, tmp)
    return parent


def _block_ones(bit: np.ndarray, level: int) -> np.ndarray:
    """Inclusive count of set bits within each block of 2^(level + 1) columns."""
    rows, size = bit.shape
    return np.cumsum(bit.reshape(rows, -1, 2 << level), axis=2, dtype=np.int32).reshape(rows, size)


def _child_positions(level: int, ones: np.ndarray):
    """For each position of a level-(level + 1) list, whose block has
    ``ones`` right members up to and including it: the positions in the
    children's list of the last left and of the last right member up to
    it.  Left members keep their order from the block's start, right ones
    from 2^level on."""
    pos = np.arange(ones.shape[-1])
    return pos - ones, (pos & -(2 << level)) + ((1 << level) - 1) + ones


def _ranks(values: np.ndarray):
    """The stable argsort of each row and the rank of the value at each
    position: ties rank in time order."""
    rows, n = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    rank = np.empty((rows, n), np.int32)
    np.put_along_axis(rank, order, np.arange(n, dtype=np.int32)[None], axis=1)
    return order, rank


def _descend(rank: np.ndarray):
    """Walk the merge tree of :func:`_tree_root` down from the root, whose
    list is ``rank``: each row's ranks in time order.

    For each level l from depth - 1 down to 0, yields l, the ranks listed
    by the level-(l + 1) nodes (each node's members in arrival order), bit
    l of each, zero-padded to whole nodes, and the count of set bits within
    the node up to each listed position.  The children's lists are the
    stable partitions of each node's list by that bit.
    """
    rows, n = rank.shape
    depth = (n - 1).bit_length()
    offset = (np.arange(rows) * n)[:, None]
    for level in range(depth - 1, -1, -1):
        bit = np.zeros((rows, 1 << depth), np.uint8)
        np.bitwise_and(rank >> level, 1, out=bit[:, :n], casting="unsafe")
        ones = _block_ones(bit, level)[:, :n]
        yield level, rank, bit, ones
        if level:
            left, right = _child_positions(level, ones)
            dest = np.where(bit[:, :n], right, left)
            del left, right, bit, ones
            dest += offset
            moved = np.empty_like(rank)
            moved.reshape(-1)[dest] = rank
            rank = moved
            del dest, moved


def _insert_positions(values: np.ndarray) -> np.ndarray:
    """Where the sorted-insertion loop puts each value: p[r, k - 1] =
    #{j < k : x_j <= x_k} in row r, so X_k goes after every earlier value
    it ties with.

    O(n log n) per row on the tree of :func:`_descend`.  With stable ranks
    the earlier values <= x_k are the earlier ones of lower rank, and each
    level adds to a right member the left members listed before it.
    """
    rows, n = values.shape
    _, rank = _ranks(values)
    below = np.zeros(rows * n, np.int32)  # by rank
    offset = (np.arange(rows) * n)[:, None]
    pos = np.arange(n)
    for level, listed, bit, ones in _descend(rank):
        left_before = (pos & ((2 << level) - 1)) + 1 - ones
        left_before *= bit[:, :n]
        below[listed + offset] += left_before
    return np.take_along_axis(below.reshape(rows, n), rank, axis=1)


def _tree_sums(values: np.ndarray, estimator: Estimator, family: WeightFamily, gamma: float | None):
    """Raw sums (R, n + 1, 3) of X_1..X_k (row 0 unset) against the
    polynomial rank weights 1, p1(j), p2(j), by a merge tree over value
    ranks (:func:`_tree_root`): O(n log n) per row.  The rows run in chunks
    of ``TREE_CHUNK_ROWS``, so that one chunk's tree at a time is alive
    beside the sums."""
    rows, n = values.shape
    sums = None
    for start in range(0, rows, TREE_CHUNK_ROWS):
        chunk = slice(start, start + TREE_CHUNK_ROWS)
        root = _tree_root(values[chunk], estimator, family, gamma)
        if sums is None:  # after the first tree, which then peaks without it
            sums = np.empty((rows, n + 1, 3))
        for i in range(3):
            sums[chunk, 1:, i] = root.pop(0)[:-1].reshape(-1, n)
    return sums


def _tree_root(values: np.ndarray, estimator: Estimator, family: WeightFamily, gamma: float | None) -> list:
    """The root's raw sums S0, S1, S2 of the merge tree over the (R, n)
    ``values``, in the form of :func:`_leaves`: prefix k of row r at
    r n + k - 1.

    A stable argsort gives every value a rank.  A node at level l covers
    the 2^l consecutive ranks [m 2^l, (m + 1) 2^l); for each of its members
    in order of arrival it holds the raw sums of the members arrived so
    far, taken at their ranks within the node.  A parent lists the members
    of its two children in arrival order; with cL left and cR right members
    arrived, its sums are L(cL) + R(cR) shifted up by cL ranks
    (:func:`_merge`).  The root, at level depth with 2^depth >= n, holds
    every prefix.

    n is padded to 2^depth with dummies that rank above every value and
    arrive after X_n.  At every level they fill the positions from n on,
    and no sums below position n depend on them, so they are never stored:
    only the bit arrays are padded, with zeros, to whole blocks.  Each
    level lists its members as the stable partition of its parent's list
    by bit l of the rank; that bit, one per position and level and packed
    eight to a byte, is kept from the way down, and the counts are
    recomputed on the way up.  Arrays are dropped as soon as they are
    used, which keeps the peak memory near two levels of sums.  Every
    operation is elementwise or a gather within one row, so a row's result
    does not depend on its batch.
    """
    rows, n = values.shape
    depth = (n - 1).bit_length()
    size = 1 << depth
    order, rank = _ranks(values)
    bits = [np.packbits(bit, axis=1) for _, _, bit, _ in _descend(rank)]
    p1, p2, q = _shift_table(depth, estimator, family, gamma)
    # level 0 lists the values by rank
    state = _leaves(np.take_along_axis(values, order, axis=1).reshape(-1), p1, p2)
    del order, rank
    offset = (np.arange(rows) * n)[:, None]
    pos = np.arange(n)
    empty = rows * n
    for level in range(depth):
        ones = _block_ones(np.unpackbits(bits.pop(), axis=1, count=size), level)[:, :n]
        left, right = _child_positions(level, ones)
        left_ones = left - ((pos & -(2 << level)) - 1)
        left += offset
        left[left_ones == 0] = empty
        right += offset
        right[ones == 0] = empty
        del ones
        state = _merge(state, left, right, left_ones, q)
        del left, right, left_ones
    return state


def _fold_sums(s: np.ndarray, estimator: Estimator, family: WeightFamily, gamma: float | None):
    """Raw sums (R, 3) of the value-sorted rows ``s`` against the
    polynomial rank weights: the tree with every member arrived, one
    vectorised :func:`_merge` per level, so that they equal the tree's last
    prefix bit for bit."""
    rows, n = s.shape
    depth = (n - 1).bit_length()
    p1, p2, q = _shift_table(depth, estimator, family, gamma)
    state = _leaves(s.reshape(-1), p1, p2)
    width = n
    for level in range(depth):
        # parent m of each row has the children 2m and 2m + 1, when there is one
        pair = 2 * np.arange((width + 1) // 2)
        left = np.arange(rows)[:, None] * width + pair
        right = np.where(pair + 1 < width, left + 1, rows * width)
        state = _merge(state, left, right, np.full(left.shape, 1 << level), q)
        width = pair.size
    return np.stack([s[:-1] for s in state], axis=1)
