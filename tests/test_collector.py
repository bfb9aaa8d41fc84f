"""The set-up builders pause Python's cyclic collector and restore its state."""

import gc

import numpy as np
import pytest

from elkbc.core import ParseError, _collector_paused, parse_theory, serialize_theory
from elkbc.datasets import layered_dag_benchmark
from elkbc.normalize import normalize, parse_input
from elkbc.reasoner import classify
from elkbc.toy import golden_theory


def _random_elpp(seed: int, n_lines: int = 200) -> str:
    rng = np.random.default_rng(seed)

    def concept(depth):
        kind = int(rng.integers(0, 6 if depth else 3))
        if kind == 0:
            return f"C{rng.integers(0, 30)}"
        if kind == 1:
            return f"one(i{rng.integers(0, 5)})"
        if kind == 2:
            return ["top", "bot", "C0"][int(rng.integers(0, 3))]
        if kind == 3:
            return f"and({concept(depth - 1)},{concept(depth - 1)},{concept(depth - 1)})"
        return f"some(r{rng.integers(0, 4)},{concept(depth - 1)})"

    forms = [
        lambda: f"sub({concept(3)}, {concept(3)})",
        lambda: f"equiv({concept(2)}, {concept(2)})",
        lambda: f"instance({concept(2)}, i{rng.integers(0, 5)})",
        lambda: f"role(r{rng.integers(0, 4)}, i{rng.integers(0, 5)}, i{rng.integers(0, 5)})",
        lambda: f"rsub(r{rng.integers(0, 4)} o r{rng.integers(0, 4)} o r0, r{rng.integers(0, 4)})",
    ]
    return "\n".join(forms[int(rng.integers(0, 5))]() for _ in range(n_lines))


_TEXT = _random_elpp(0)
_BUILDERS = {
    "parse_input": lambda: parse_input(_TEXT),
    "normalize": lambda: normalize(parse_input(_TEXT)),
    "parse_theory": lambda: parse_theory(serialize_theory(golden_theory())),
    "classify": lambda: classify(golden_theory()),
}
_FAILING = {
    "parse_input": lambda: parse_input("sub(A, B)\nsub("),
    "parse_theory": lambda: parse_theory("GCI0 A B\nGCI9 A B"),
}


@pytest.fixture
def collector():
    """Yields a setter for the collector's state and restores it afterwards."""
    was = gc.isenabled()
    yield lambda on: gc.enable() if on else gc.disable()
    if was:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("on", [True, False])
@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_builders_restore_collector_state(collector, name, on):
    collector(on)
    _BUILDERS[name]()
    assert gc.isenabled() is on


@pytest.mark.parametrize("on", [True, False])
@pytest.mark.parametrize("name", sorted(_FAILING))
def test_failing_builders_restore_collector_state(collector, name, on):
    collector(on)
    with pytest.raises(ParseError):
        _FAILING[name]()
    assert gc.isenabled() is on


def test_pause_nests(collector):
    collector(True)
    with _collector_paused():
        assert not gc.isenabled()
        classify(parse_theory("GCI0 A B"))
        assert not gc.isenabled()
    assert gc.isenabled()


def _from_nf(text):
    return classify(parse_theory(text))


def _from_elpp(text):
    return classify(normalize(parse_input(text))[0])


@pytest.mark.parametrize(
    "source,build",
    [
        (lambda: serialize_theory(golden_theory()), _from_nf),
        (lambda: serialize_theory(layered_dag_benchmark(0)[0]), _from_nf),
        (lambda: _random_elpp(1, 100), _from_elpp),
    ],
    ids=["golden", "layered-dag", "random-elpp"],
)
def test_paused_builds_leave_no_cyclic_garbage(collector, source, build):
    """The pause's premise: the builders' objects form no garbage cycles, so a
    collection during a build would find nothing to free."""
    text = source()
    collector(False)
    gc.collect()
    result = build(text)
    assert gc.collect() == 0
    del result
