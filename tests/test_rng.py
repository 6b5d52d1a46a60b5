"""`nosignal.rng` against numpy's SeedSequence, PCG64 and binomial, bit for bit."""

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nosignal import rng

INT64_MAX = 2**63 - 1

# _btpe's return statements in source order: the triangle of Step 10, the
# recursive pmf ratio of Step 50, and Step 52's squeeze and Stirling bound
BTPE_EXITS = ("triangle", "ratio", "squeeze", "stirling")


def numpy_seed(root, key):
    seq = np.random.SeedSequence(root, spawn_key=key)
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def numpy_binomial(seed, n, p):
    return int(np.random.default_rng(seed).binomial(n, p))


def traced_binomial(seed, n, p):
    """rng.binomial(seed, n, p), the sampler it ran and how BTPE accepted."""
    lines, first = inspect.getsourcelines(rng._btpe)
    exits = [first + i for i, line in enumerate(lines) if line.strip().startswith("return")]
    assert len(exits) == len(BTPE_EXITS)
    codes = {rng._inversion.__code__: "inversion", rng._btpe.__code__: "btpe"}
    seen = {"sampler": None, "exit": None}

    def tracer(frame, event, arg):
        name = codes.get(frame.f_code)
        if name is None:
            return None
        seen["sampler"] = name
        if event == "line" and frame.f_lineno in exits:
            seen["exit"] = BTPE_EXITS[exits.index(frame.f_lineno)]
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        value = rng.binomial(seed, n, p)
    finally:
        sys.settrace(previous)
    return value, seen["sampler"], seen["exit"]


# (seed, n, p, value, sampler, BTPE acceptance); value is numpy 2.4's draw
BINOMIAL_TABLE = [
    pytest.param(7, 1000, 0.01, 11, "inversion", None, id="inversion"),
    pytest.param(7, 1000, 0.03, 32, "inversion", None, id="pn-exactly-30"),
    pytest.param(7, 1000, math.nextafter(0.03, 1.0), 37, "btpe", "ratio",
                 id="pn-just-above-30"),
    pytest.param(7, 2**62, 30 / 2**62, 32, "inversion", None, id="pn-30-huge-n"),
    pytest.param(7, 2**62, math.nextafter(30 / 2**62, 1.0), 17, "btpe", "ratio",
                 id="pn-just-above-30-huge-n"),
    # 1 - p rounds to 1 - 2**-53: (1 - p)**n would be e**-43.6, not e**-30
    pytest.param(6135168060517078058, 393042086989524393, 7.632770380839541e-17,
                 42, "inversion", None, id="inversion-tiny-p"),
    pytest.param(7, 1000, 0.975, 974, "inversion", None, id="flip-inversion"),
    pytest.param(7, 1000, 0.7, 699, "btpe", "triangle", id="flip-btpe"),
    pytest.param(7, 2**62, 1.0 - 2**-53, 4611686018427387392, "btpe", "triangle",
                 id="flip-btpe-huge-n"),
    pytest.param(7, 1000, 0.0, 0, None, None, id="p-0"),
    pytest.param(7, 1000, 1.0, 1000, "inversion", None, id="p-1"),
    pytest.param(7, 2**62, 5e-324, 0, "inversion", None, id="p-subnormal"),
    pytest.param(7, 1, 0.5, 1, "inversion", None, id="n-1-seed-7"),
    pytest.param(8, 1, 0.5, 0, "inversion", None, id="n-1-seed-8"),
    pytest.param(0, 1000, 0.3, 320, "btpe", "triangle", id="step-10"),
    pytest.param(9, 1000, 0.3, 315, "btpe", "ratio", id="step-50-accept"),
    # the first draws of the next four are rejected in Step 50 or Step 52
    pytest.param(13, 1000, 0.3, 303, "btpe", "ratio", id="redraw-seed-13"),
    pytest.param(4, 1000, 0.3, 267, "btpe", "squeeze", id="step-52-squeeze"),
    pytest.param(27, 1000, 0.3, 278, "btpe", "stirling", id="step-52-stirling"),
    pytest.param(10, 1000, 0.3, 306, "btpe", "ratio", id="redraw-seed-10"),
    pytest.param(15, 1000, 0.3, 313, "btpe", "triangle", id="redraw-seed-15"),
    pytest.param(360, 10**6, 0.2, 200301, "btpe", "triangle", id="redraw-n-1e6"),
    # k = |y - m| = 3.6e9: C's int64 product -k * k wraps, and the squeeze accepts
    pytest.param(4, 2**62, 0.5, 2305843005626389760, "btpe", "squeeze",
                 id="int64-wrap"),
    # z and w of Step 52 are sums of doubles, not doubles of int64 sums
    pytest.param(13331877369849103998, 3671094547242454290, 2.15173826382973e-16,
                 818, "btpe", "triangle", id="stirling-double-sums"),
    pytest.param(2**64 - 1, INT64_MAX, 0.5, 4611686018610002944, "btpe", "triangle",
                 id="n-int64-max"),
    pytest.param(2**100 + 5, 50, 0.9, 45, "inversion", None, id="multi-word-seed"),
]


@pytest.mark.parametrize("seed, n, p, value, sampler, accept", BINOMIAL_TABLE)
def test_binomial_table(seed, n, p, value, sampler, accept):
    assert traced_binomial(seed, n, p) == (value, sampler, accept)
    assert numpy_binomial(seed, n, p) == value


@pytest.mark.parametrize("u", [0.95, 0.99], ids=["left-tail", "right-tail"])
def test_btpe_redraws_when_v_is_zero(monkeypatch, u):
    # for n = 1000, p = 0.3 the hat's left tail is u / p4 in (0.931, 0.965] and
    # its right tail (0.965, 1); there C rejects v == 0, whose log is -inf
    def scripted(draws):
        return lambda seed: iter(draws).__next__

    monkeypatch.setattr(rng, "_uniform", scripted([u, 0.0, 0.1, 0.5]))
    redrawn = rng.binomial(1, 1000, 0.3)
    monkeypatch.setattr(rng, "_uniform", scripted([0.1, 0.5]))
    assert redrawn == rng.binomial(1, 1000, 0.3)


SEED_TABLE = [
    pytest.param(0, (), 15793235383387715774, id="zero"),
    pytest.param(20260808, (), 16877830188869846548, id="default-root"),
    pytest.param(20260808, (3, 1, 0), 16559348090379173099, id="default-root-key"),
    pytest.param(1, (0,), 8431846347943309920, id="padded-key"),
    pytest.param(2**32, (1,), 7789721593315801384, id="two-words"),
    pytest.param(2**64 - 1, (), 12591116029944179981, id="uint64-max"),
    pytest.param(2**64 - 1, (2, 0, 1), 5122286438438957479, id="uint64-max-key"),
    pytest.param(2**100 + 5, (), 9078455287024407234, id="four-words"),
    pytest.param(2**100 + 5, (2**40, 7, 0), 4119181218711165584,
                 id="four-words-wide-key"),
    pytest.param(2**200 + 3, (2**70, 0), None, id="seven-words"),
]


@pytest.mark.parametrize("root, key, value", SEED_TABLE)
def test_derive_seed_table(root, key, value):
    expected = numpy_seed(root, key)
    assert rng.derive_seed(root, *key) == expected
    if value is not None:
        assert expected == value


@pytest.mark.parametrize(
    "call",
    [
        lambda: rng.derive_seed(-1),
        lambda: rng.derive_seed(1, 0, -2),
        lambda: rng.binomial(-1, 10, 0.5),
        lambda: rng.binomial(1, -1, 0.5),
        lambda: rng.binomial(1, INT64_MAX + 1, 0.5),
        lambda: rng.binomial(1, 10, 1.5),
        lambda: rng.binomial(1, 10, math.nan),
    ],
    ids=["negative-root", "negative-key", "negative-seed", "negative-n",
         "n-past-int64", "p-above-1", "p-nan"],
)
def test_rejects_what_numpy_rejects(call):
    with pytest.raises(ValueError):
        call()


@st.composite
def binomial_args(draw):
    n = draw(st.integers(1, 2**62))
    p = draw(
        st.one_of(
            st.floats(0.0, 1.0),
            # min(p, 1 - p) n near the inversion/BTPE threshold 30
            st.floats(0.0, 60.0).map(lambda c: min(c / n, 1.0)),
            st.floats(0.0, 60.0).map(lambda c: max(1.0 - c / n, 0.0)),
        )
    )
    return draw(st.integers(0, 2**64 - 1)), n, p


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    root=st.integers(0, 2**160),
    key=st.lists(st.integers(0, 2**64), max_size=4).map(tuple),
    args=binomial_args(),
)
def test_matches_numpy(root, key, args):
    assert rng.derive_seed(root, *key) == numpy_seed(root, key)
    assert rng.binomial(*args) == numpy_binomial(*args)


def test_imports_only_the_standard_library():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import nosignal.rng\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'nosignal'}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(rng.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
