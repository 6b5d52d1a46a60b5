"""numpy's seeded binomial draw in plain Python, bit for bit.

SeedSequence, PCG64 (O'Neill 2014, HMC-CS-2014-0905) seeded as default_rng
seeds it, and random_binomial: inversion when min(p, 1 - p) n <= 30, else
BTPE (Kachitvichyanukul & Schmeiser 1988, Commun. ACM 31:216), in the C
code's operand order and with its int64 to double conversions.
"""

import itertools
import math
from typing import Callable, List, Sequence

__all__ = ["INT64_MAX", "derive_seed", "binomial"]

INT64_MAX = 2**63 - 1

_MASK32 = 0xFFFFFFFF
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value: int) -> List[int]:
    """Little-endian uint32 words of a non-negative integer (0 is one word)."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    return [value >> s & _MASK32 for s in range(0, max(value.bit_length(), 1), 32)]


def _hasher(const: int, mult: int) -> Callable[[int], int]:
    """SeedSequence's hashmix: xor with a running constant, multiply, fold."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * mult) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    return hashmix


def _seed_sequence(entropy: int, spawn_key: Sequence[int], n_words: int) -> List[int]:
    """SeedSequence(entropy, spawn_key=spawn_key).generate_state(n_words, uint64)."""
    # the run entropy is zero-padded to the pool size before the spawn key
    words = _words(entropy)
    words += [0] * (_POOL_SIZE - len(words)) + [w for k in spawn_key for w in _words(k)]
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for i_src, i_dst in itertools.permutations(range(_POOL_SIZE), 2):
        pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word, i_dst in itertools.product(words[_POOL_SIZE:], range(_POOL_SIZE)):
        pool[i_dst] = mix(pool[i_dst], hashmix(word))
    # generate_state hashes the pool cyclically and reads words as little-endian
    out = list(map(_hasher(_INIT_B, _MULT_B), (pool * n_words)[: 2 * n_words]))
    return [out[i] | out[i + 1] << 32 for i in range(0, 2 * n_words, 2)]


def derive_seed(root_seed: int, *key: int) -> int:
    """SeedSequence(root_seed, spawn_key=key).generate_state(1, uint64)[0]."""
    return _seed_sequence(root_seed, key, 1)[0]


def _uniform(seed: int) -> Callable[[], float]:
    """next_double of PCG64 seeded as numpy.random.default_rng(seed) seeds it."""
    s_hi, s_lo, i_hi, i_lo = _seed_sequence(seed, (), 4)
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128

    def next_double() -> float:
        nonlocal state
        state = (state * _PCG_MULT + inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((((x >> rot) | (x << (64 - rot))) & _MASK64) >> 11) * 2.0**-53

    return next_double


def binomial(seed: int, n: int, p: float) -> int:
    """numpy.random.default_rng(seed).binomial(n, p)."""
    if not 0 <= n <= INT64_MAX:
        raise ValueError(f"n must lie in [0, 2**63 - 1], got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    uniform = _uniform(seed)
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        return (_inversion if p * n <= 30.0 else _btpe)(uniform, n, p)
    q = 1.0 - p
    return n - (_inversion if q * n <= 30.0 else _btpe)(uniform, n, q)


def _inversion(uniform: Callable[[], float], n: int, p: float) -> int:
    """random_binomial_inversion: walk the cdf from 0, restart past bound."""
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))  # log1p: 1 - p can round to 1
    np_ = n * p
    bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
    x, px, u = 0, qn, uniform()
    while u > px:
        x += 1
        if x > bound:
            x, px, u = 0, qn, uniform()
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def _btpe(uniform: Callable[[], float], n: int, p: float) -> int:
    """random_binomial_btpe for p <= 0.5 (so its r = min(p, 1 - p) is p)."""
    q = 1.0 - p
    fm = n * p + p
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * p * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr = xm - p1, xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * p)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * p * q
    while True:
        u = uniform() * p4
        v = uniform()
        if u <= p1:  # Step 10: the triangle is accepted outright
            return math.floor(xm - p1 * v + u)
        if u <= p2:  # Step 20: parallelograms
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = math.floor(x)
        elif v == 0.0:  # a tail draw whose log(v) is -inf: C rejects it
            continue
        elif u <= p3:  # Step 30: left exponential tail
            y = math.floor(xl + math.log(v) / laml)
            if y < 0:
                continue
            v = v * (u - p2) * laml
        else:  # Step 40: right exponential tail
            y = math.floor(xr - math.log(v) / lamr)
            if y > n:
                continue
            v = v * (u - p3) * lamr
        k = abs(y - m)  # below 2**53, so exact as a double
        if not (k > 20 and k < nrq / 2.0 - 1):
            # Step 50: the pmf ratio f(y) / f(m), evaluated recursively
            s = p / q
            a = s * (n + 1)
            f = 1.0
            for i in range(m + 1, y + 1):
                f *= a / i - s
            for i in range(y + 1, m + 1):
                f /= a / i - s
            if v > f:
                continue
            return y
        # Step 52: squeeze on log(v), then the Stirling-series bound
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.1666666666666) / nrq + 0.5)
        # C's int64 product -k * k wraps where k * k exceeds 2**63
        t = ((-k * k + 2**63) % 2**64 - 2**63) / (2 * nrq)
        big_a = math.log(v) if v > 0.0 else -math.inf
        if big_a < t - rho / q:
            return y
        if big_a > t + rho / q:
            continue
        # C converts n, m and y to double before adding (not after)
        x1, f1 = float(y) + 1.0, float(m) + 1.0
        z, w = float(n) + 1.0 - float(m), float(n) - float(y) + 1.0
        bound = (xm * math.log(f1 / x1) + (n - m + 0.5) * math.log(z / w)
                 + (y - m) * math.log(w * p / (x1 * q)))
        for f in (f1, z, x1, w):  # Stirling-series corrections, added in turn
            f2 = f * f
            bound += (13680. - (462. - (132. - (99. - 140. / f2) / f2) / f2) / f2) / f / 166320.
        if big_a > bound:
            continue
        return y
