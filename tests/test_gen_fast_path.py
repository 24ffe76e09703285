"""The bulk generator's pieces, held to NumPy's own generator.

``synthgen.generate`` computes Philox4x64-10 across rows and takes the
fast path of NumPy's ziggurat in bulk, with tables read off the
installed NumPy. Here the blocks must equal ``Philox.random_raw``, and
the tables must reproduce ``Generator.standard_normal`` over 2**20
words of one stream: the generator is seated at a word through its
public state (counter, ``buffer``, ``buffer_pos``) and must draw every
run of fast words bit for bit, and must not take any other word alone.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from routeboost import synthgen
from routeboost.synthgen import GenSpec, default_layout, generate
from tests.test_gen_oracle import LONG_ROUTE, TAIL_AND_WEDGE_SEED

SRC = Path(__file__).resolve().parents[1] / "src"
KEYS = [0, 1, 2**32, 2**64 - 1]
BLOCKS = 6
STREAM_KEY = (0x0123456789ABCDEF << 64) | 42


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_philox_blocks_match_numpy(seed):
    keys = np.array(KEYS, dtype=np.uint64).repeat(BLOCKS)
    counters = np.tile(np.arange(1, BLOCKS + 1, dtype=np.uint64), len(KEYS))
    got = synthgen._philox(keys, counters, seed)
    for j, key in enumerate(KEYS):
        # One int key: a key list holding 2**64 - 1 warns in NumPy's cast.
        want = np.random.Philox(key=(seed << 64) | key).random_raw(4 * BLOCKS)
        assert got[:, j * BLOCKS : (j + 1) * BLOCKS].T.ravel().tolist() == want.tolist()


class Seated:
    """A ``Generator`` over the stream ``words`` that can be put at any word."""

    def __init__(self, key: int, words: np.ndarray):
        self.bitgen = np.random.Philox(key=key)
        self.rng = np.random.Generator(self.bitgen)
        self.state = self.bitgen.state
        self.words = words

    def at(self, k: int) -> np.random.Generator:
        """The generator, whose next word is word ``k`` of the stream."""
        block = k // 4
        self.state["state"]["counter"][0] = block + 1
        self.state["buffer"] = self.words[4 * block : 4 * block + 4].copy()
        self.state["buffer_pos"] = k % 4
        self.bitgen.state = self.state
        return self.rng

    def position(self) -> int:
        """The index of the stream word the generator reads next."""
        state = self.bitgen.state
        return 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]


def test_tables_reproduce_standard_normal():
    n = 2**20
    words = np.random.Philox(key=STREAM_KEY).random_raw(n)
    x, fast = synthgen._normal(words)
    assert fast.mean() > 0.98  # the bulk path does the work
    seated = Seated(STREAM_KEY, words)
    slow = np.flatnonzero(~fast).tolist()
    start = 0
    for stop in slow + [n]:
        if stop > start:
            got = seated.at(start).standard_normal(stop - start)
            assert got.tobytes() == x[start:stop].tobytes(), f"words {start}..{stop}"
            assert seated.position() == stop, f"words {start}..{stop}"
        if stop < n:
            seated.at(stop).standard_normal()
            assert seated.position() > stop + 1, f"word {stop} takes the fast path"
        start = stop + 1


def test_every_layer_boundary_is_exact():
    """``rabs = ki - 1`` is the last fast word of a layer, both signs."""
    _, ki = synthgen._ziggurat()
    assert np.flatnonzero(ki == 0).tolist() == [1]  # NumPy's layer 1 has no fast part
    for idx in np.flatnonzero(ki).tolist():
        rabs = int(ki[idx])
        for sign in (0, 1):
            words = np.array(
                [(rabs - 1) << 9 | sign << 8 | idx, rabs << 9 | sign << 8 | idx, 0, 0],
                dtype=np.uint64,
            )
            x, fast = synthgen._normal(words[:2])
            assert fast.tolist() == [True, rabs == 2**52]
            seated = Seated(0, words)
            assert seated.at(0).standard_normal() == x[0]
            assert seated.position() == 1
            if rabs < 2**52:
                seated.at(1).standard_normal()
                assert seated.position() > 2, f"layer {idx}: rabs {rabs} is fast"


def test_tables_are_derived_at_the_first_generate():
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import routeboost; from routeboost import synthgen as s; "
        "before = s._ziggurat.cache_info().currsize; "
        "s.generate(s.GenSpec(s.default_layout(), 3, 0)); "
        "print(before, s._ziggurat.cache_info().currsize)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "1"]


def test_oracle_examples_reach_the_redraw(monkeypatch):
    """The oracle's examples cover a long route, a tail and a wedge."""
    long_route = LONG_ROUTE.routes[0]
    n_words = 1 + len(synthgen._route_draws(LONG_ROUTE, long_route)) + 1  # pick, noise
    assert n_words > 7 * 4  # 8 or more Philox blocks
    layers = []
    normal = synthgen._normal

    def recording(words):
        x, fast = normal(words)
        layers.extend((words[~fast] & np.uint64(0xFF)).tolist())
        return x, fast

    monkeypatch.setattr(synthgen, "_normal", recording)
    generate(GenSpec(default_layout(), 300, TAIL_AND_WEDGE_SEED))
    assert 0 in layers and any(layers)
