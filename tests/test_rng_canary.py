"""Canary for the random streams every output is drawn from.

Each scenario generator is `np.random.default_rng([seed, index, stream])`'s state,
built from seeding words that `posediff.metrics` hashes itself. The first test pins
those words for three triples; the second pins the first values of each drawing
primitive the outputs use. All constants were recorded with numpy 2.4.6. NumPy does
not promise that a `Generator`'s streams stay the same across versions, so a failure
here means every golden digest will differ too, and says which part moved.
"""

import numpy as np
import pytest

from posediff.metrics import _BLOCK, _block_words, scenario_rng

CHANGED = (
    "The random streams changed, so the golden digests will differ too "
    "(numpy {version}; the constants were recorded with numpy 2.4.6). {part}: {diffs}"
)

# The benchmark seed's first scenario; a late index on the last stream; and a seed of 5
# words with a 2-word index, which runs SeedSequence's extra mixing loop.
TRIPLES = ((7, 0, 0), (7, 1999, 3), (2**128 + 1, 2**32, 1))

# SeedSequence([seed, index, stream]).generate_state(4, np.uint64) for each triple.
WORDS = (
    (0xEAD0F7017C326E58, 0x0879C4F0F97E037A, 0x623A8C4B6745675F, 0xB3443FAD60386CAC),
    (0xFEBA3D708685101A, 0x7F2DBDAC3120FA2F, 0x7E827258951CB583, 0xFC7F9C1EA33B91F4),
    (0xCF971768A8CDE20F, 0x2D4B0CC53EAF8488, 0x48447DFB7151D7E3, 0x0FCBAEF5AA1E2379),
)

# Each primitive's draws from a fresh generator per triple: every value of the integer
# draws, the first and last value of the float arrays.
DRAWS = {
    "uniform(400.0, 900.0)": lambda g: [g.uniform(400.0, 900.0)],
    "8 x integers(2)": lambda g: [g.integers(2) for _ in range(8)],
    "4 x integers(1, 101)": lambda g: [g.integers(1, 101) for _ in range(4)],
    "random(10)": lambda g: g.random(10)[[0, -1]],
    "standard_normal(6)": lambda g: g.standard_normal(6)[[0, -1]],
    "standard_normal(9)": lambda g: g.standard_normal(9)[[0, -1]],
    "standard_normal((3, 9))": lambda g: g.standard_normal((3, 9)).ravel()[[0, -1]],
}
RECORDED = {
    "uniform(400.0, 900.0)": (
        ["0x1.64461c1ff639ep+9"], ["0x1.9bac8a2175618p+9"], ["0x1.0b49578b5ddccp+9"],
    ),
    "8 x integers(2)": ([1, 1, 1, 1, 1, 1, 1, 0], [1, 1, 0, 1, 1, 1, 0, 0], [1, 0, 1, 0, 0, 0, 0, 0]),
    "4 x integers(1, 101)": ([95, 63, 69, 90], [57, 85, 41, 81], [64, 27, 94, 6]),
    "random(10)": (
        ["0x1.400c8353e3ca9p-1", "0x1.df2a571c79f0ep-2"],
        ["0x1.b1822109218c6p-1", "0x1.433b9f47dc58ap-2"],
        ["0x1.139b002e8ecbap-2", "0x1.c527c7e227638p-4"],
    ),
    "standard_normal(6)": (
        ["0x1.427a31c1ffc58p-10", "-0x1.fbb918e5cd3f0p-1"],
        ["-0x1.447fa025705f3p+0", "0x1.2c0088bb533f5p+1"],
        ["0x1.e803adf32fe70p-3", "0x1.ca4df93c4c6ffp-1"],
    ),
    "standard_normal(9)": (
        ["0x1.427a31c1ffc58p-10", "-0x1.f804fc5039525p-2"],
        ["-0x1.447fa025705f3p+0", "0x1.7d225e3098011p-1"],
        ["0x1.e803adf32fe70p-3", "0x1.79abb03658487p+0"],
    ),
    "standard_normal((3, 9))": (
        ["0x1.427a31c1ffc58p-10", "-0x1.42252ea4eea8ap+1"],
        ["-0x1.447fa025705f3p+0", "-0x1.3106ffd883dd9p-1"],
        ["0x1.e803adf32fe70p-3", "0x1.beb2e9649a6d8p-1"],
    ),
}


def exact(values) -> list:
    """Floats as their `.hex()` strings, integers as ints."""
    return [v.hex() if isinstance(v, float) else int(v) for v in np.asarray(values).tolist()]


def fail_if_any(part: str, diffs: list):
    if diffs:
        pytest.fail(CHANGED.format(version=np.__version__, part=part, diffs=diffs), pytrace=False)


def test_seeding_words_are_the_recorded_ones():
    got = [
        tuple(int(w) for w in _block_words(seed, stream, index // _BLOCK)[index % _BLOCK])
        for seed, index, stream in TRIPLES
    ]
    fail_if_any("posediff's seeding words differ from SeedSequence's", [
        (triple, [hex(w) for w in g]) for triple, g, want in zip(TRIPLES, got, WORDS) if g != want
    ])


def test_first_draws_are_the_recorded_ones():
    diffs = []
    for name, draw in DRAWS.items():
        for triple, want in zip(TRIPLES, RECORDED[name]):
            got = exact(draw(scenario_rng(*triple)))
            if got != want:
                diffs.append((name, triple, got))
    fail_if_any("numpy's first draws from these states differ", diffs)
