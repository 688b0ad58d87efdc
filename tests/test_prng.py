"""SplitMix64: the published output vectors and the refused bounds.

Every refusal is checked on a generator whose `next_u64` raises, so a
missing check fails at its first draw instead of looping on rejections.
"""

import pytest

from veronese.prng import SplitMix64
from veronese.symlin import random_ses


def _no_draws(*_):
    raise AssertionError("a refused bound drew a value")


@pytest.mark.parametrize(
    "seed,outputs",
    [
        (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
        (1234567, [6457827717110365317, 3203168211198807973]),
    ],
)
def test_published_vectors(seed, outputs):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in outputs] == outputs


@pytest.mark.parametrize(
    "draw,message",
    [
        pytest.param(lambda rng: rng.next_below(0), "need positive bound", id="zero"),
        pytest.param(lambda rng: rng.next_below(-3), "need positive bound", id="negative"),
        pytest.param(lambda rng: rng.next_int(5, 4), "empty range", id="lo-above-hi"),
        pytest.param(lambda rng: rng.next_below(2**64 + 1), "exceeds 2\\^64", id="bound-above-2^64"),
        pytest.param(lambda rng: rng.next_int(0, 2**64), "exceeds 2\\^64", id="range-above-2^64"),
    ],
)
def test_refused_bounds_draw_nothing(draw, message):
    rng = SplitMix64(1)
    rng.next_u64 = _no_draws
    with pytest.raises(ValueError, match=message):
        draw(rng)


def test_random_ses_refuses_a_middle_bound_above_2_64(monkeypatch):
    monkeypatch.setattr(SplitMix64, "next_u64", _no_draws)
    with pytest.raises(ValueError, match="exceeds 2\\^64"):
        random_ses(0, max_middle=2**65)


def test_a_bound_of_2_64_takes_the_draw_as_it_is():
    assert SplitMix64(0).next_below(2**64) == 0xE220A8397B1DCDAF
    assert SplitMix64(0).next_int(-(2**63), 2**63 - 1) == 0xE220A8397B1DCDAF - 2**63
