import numpy as np
import pytest

from ids_stability import IdsSystem, benchmark_system, margin, validate_system
from ids_stability.lmi_core import SolverConfig

A1 = np.array([[-4.0, 1.0], [-13.0, 2.0]])
A2 = np.array([[0.0, -1.0], [1.0, 0.0]])


@pytest.fixture
def bench():
    return benchmark_system


@pytest.fixture
def single_delay_system():
    """The benchmark's first matrix alone; margin on tau is 1/sqrt(5)."""
    def make(tau: float) -> IdsSystem:
        return validate_system(IdsSystem(A=(A1,), tau=(tau,)))

    return make


@pytest.fixture
def scalar_system():
    def make(a: float, tau: float) -> IdsSystem:
        return validate_system(IdsSystem(A=(np.array([[a]]),), tau=(tau,)))

    return make


@pytest.fixture
def cfg():
    return SolverConfig()


@pytest.fixture
def probe_limit(monkeypatch):
    """Make a margin search that runs away fail after 200 probes instead of
    hanging.  Every probe, also one whose delay fails validation, sets its
    delay through ``margin._with_delay``."""
    real, count = margin._with_delay, [0]

    def limited(*args):
        count[0] += 1
        if count[0] > 200:
            raise RuntimeError("the margin search made more than 200 probes")
        return real(*args)

    monkeypatch.setattr(margin, "_with_delay", limited)


@pytest.fixture(scope="session")
def plain_margin():
    """A plain bisection with ``margin.bisect_margin``'s midpoints and stop
    rule and one real probe per midpoint: the reference it is compared to."""
    def search(sys, k, criterion, lo=1e-4, hi=None, tol=1e-4):
        hi = 10.0 * max(sys.tau) if hi is None else hi

        def holds(value):
            tau = list(sys.tau)
            tau[k] = value
            return margin.criterion_feasible(sys.with_delays(tau), criterion)[0]

        if not holds(lo):
            return None
        if holds(hi):
            return hi
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if holds(mid) else (lo, mid)
        return lo

    return search
