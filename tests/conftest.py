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
    """Iterating runs the loop body under each region-kernel backend in
    turn and yields its name: ``"c"`` when the library loaded, then
    ``"numpy"`` with the loaded function hidden.  Iterable again, so a
    Hypothesis test covers both backends in every example."""

    def __init__(self, monkeypatch):
        self._patch = monkeypatch
        self._loaded = kernel._c_update

    def __iter__(self):
        if self._loaded is not None:
            self._patch.setattr(kernel, "_c_update", self._loaded)
            yield "c"
        self._patch.setattr(kernel, "_c_update", None)
        yield "numpy"


@pytest.fixture
def backends(monkeypatch):
    """Both region-kernel backends, for ``for backend in backends:``.

    The test body loops instead of being parametrized, so each test keeps
    one name; ``monkeypatch`` restores the loaded function at teardown.
    """
    return _Backends(monkeypatch)
