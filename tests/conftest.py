import threading

import pytest

from stencilpipe import kernel


@pytest.fixture
def run_bounded():
    """Run ``fn()`` on a helper thread joined within 5 s and return the
    exception it raised; it must raise, and leave no ``pipe-*`` or
    ``rank-*`` thread behind."""

    def run(fn):
        raised = []

        def call():
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 - inspected by the test
                raised.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=5.0)
        assert not caller.is_alive()
        assert not [th for th in threading.enumerate()
                    if th.name.startswith(("pipe-", "rank-"))]
        assert len(raised) == 1
        return raised[0]

    return run


class _Backends:
    """Iterating runs the loop body under each backend in turn and yields
    its name: ``"c"`` when the library loaded, then ``"numpy"`` with the
    loaded sweep and fill functions hidden, so a node sweep runs its
    blocks one at a time on the calling thread, in an order the gate
    allows, and grids fill through ``FillPattern.evaluate``.
    Iterable again, so a Hypothesis test covers both backends in every
    example."""

    _NAMES = ("_c_sweep", "_c_fill")

    def __init__(self, monkeypatch):
        self._patch = monkeypatch
        self._loaded = [getattr(kernel, name) for name in self._NAMES]

    def __iter__(self):
        if None not in self._loaded:
            for name, fn in zip(self._NAMES, self._loaded):
                self._patch.setattr(kernel, name, fn)
            yield "c"
        for name in self._NAMES:
            self._patch.setattr(kernel, name, None)
        yield "numpy"


@pytest.fixture
def backends(monkeypatch):
    """Both backends, for ``for backend in backends:``.

    The test body loops instead of being parametrized, so each test keeps
    one name; ``monkeypatch`` restores the loaded functions at teardown.
    """
    return _Backends(monkeypatch)
