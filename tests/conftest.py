import threading

import pytest


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
