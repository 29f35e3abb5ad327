import pytest

from cmixer import gradcheck
from cmixer.engine import Tensor


def _grad_scaled(t: Tensor, factor: float) -> Tensor:
    # identity forward with a deliberately wrong backward
    def backprop(g):
        t._accumulate(g * factor)

    return Tensor(t.data, (t,), backprop, "corrupted")


@pytest.fixture
def corrupt_entry(monkeypatch):
    """``corrupt_entry(name)`` patches that gradcheck entry for the test, so its
    function ends in an identity node whose backward scales the gradient by 1.01."""

    def corrupt(name):
        build, sample = gradcheck.ENTRIES[name]

        def corrupted(rng):
            f, leaves = build(rng)
            return (lambda lv: _grad_scaled(f(lv), 1.01)), leaves

        monkeypatch.setitem(gradcheck.ENTRIES, name, (corrupted, sample))

    return corrupt
