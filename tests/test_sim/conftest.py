import pytest

from repro.sim import scheduler as scheduler_module


@pytest.fixture
def execute_calls(monkeypatch):
    """Count ``_execute`` calls without disabling the kernels.

    A class-level replacement is still ``_SchedulerBase._execute``, so
    the kernels stay eligible; it counts the ops that took the general
    route.
    """
    calls = []
    original = scheduler_module._SchedulerBase._execute

    def counting(self, thread, op, now):
        calls.append(type(op).__name__)
        return original(self, thread, op, now)

    monkeypatch.setattr(scheduler_module._SchedulerBase, "_execute", counting)
    return calls
