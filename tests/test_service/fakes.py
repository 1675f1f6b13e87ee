"""Fast, deterministic fake experiments for service tests.

Module-level functions so they are picklable: a bounded execution
ships the callable to its worker process by qualified name.
"""

import time

from repro.experiments.base import ExperimentResult


def _result(experiment_id, value):
    return ExperimentResult(
        experiment_id=experiment_id,
        title=f"fake {experiment_id}",
        columns=["value"],
        rows=[[value]],
    )


def run_alpha(rng: int = 11):
    return _result("alpha", rng * 2)


def run_beta(rng: int = 22):
    return _result("beta", rng + 1)


def run_gamma():
    return _result("gamma", 333)


def run_delta(rng: int = 44):
    return _result("delta", rng * rng)


def run_slow():
    time.sleep(2.0)
    return _result("slow", 1)


def run_sleepy():
    time.sleep(0.4)
    return _result("sleepy", 2)


def run_boom():
    raise RuntimeError("deterministically broken experiment")


def run_alpha_boom(rng: int = 11):
    """Signature-identical stand-in for ``run_alpha`` that always fails.

    The service derives its cache key from the registered function's
    rng parameter, so a broken node substituting this for ``run_alpha``
    keys the request identically to healthy replicas — which is what
    the anti-entropy repair tests need.
    """
    raise RuntimeError("deterministically broken experiment")


def run_flaky(rng: int = 5):
    """Fails on its registered seed 5 and succeeds on any other.

    A server that retried with a rotated seed would answer this with
    another seed's rows under the seed-5 cache key; it must answer
    degraded instead.
    """
    if rng == 5:
        raise RuntimeError("fails on its registered seed")
    return _result("flaky", rng)


FAST_REGISTRY = {
    "alpha": run_alpha,
    "beta": run_beta,
    "gamma": run_gamma,
    "delta": run_delta,
}
