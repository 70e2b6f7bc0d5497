import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from loglin_effects import CausalParams, ContingencyTable, NoCausalParams


#: tier-1's profile: each test draws from a random source seeded by a hash
#: of the test, and replays no saved example, so every run of a commit
#: draws the same examples
settings.register_profile("tier1", derandomize=True)
#: the search beside it (``--hypothesis-profile explore``): a random seed
#: per run (``--hypothesis-seed`` fixes one), ``EXPLORE_FACTOR`` times each
#: test's examples, and a failure printed with the blob that replays it
settings.register_profile("explore", derandomize=False, print_blob=True)
EXPLORE_FACTOR = 10
# a profile named on the command line is loaded already, or is loaded
# after this file
if settings.get_current_profile_name() == "default":
    settings.load_profile("tier1")


def pytest_collection_modifyitems(items):
    """Under the explore profile, each Hypothesis test draws
    ``EXPLORE_FACTOR`` times the examples its settings give it."""
    if settings.get_current_profile_name() != "explore":
        return
    scaled = set()
    for item in items:
        test = getattr(item, "function", None)
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        # the parametrized cases of one test share its function
        if own is not None and test not in scaled:
            scaled.add(test)
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=EXPLORE_FACTOR * own.max_examples)


#: the version that ``pyproject.toml`` declares; a regex, not tomllib, which
#: Python 3.10 lacks
(DECLARED_VERSION,) = re.findall(
    r'(?m)^version = "([^"]+)"$',
    (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text())


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_nocausal(rng, three_way=False, scale=1000.0):
    """Random multiplicative parameters with log values in [-1.5, 1.5]."""
    logs = rng.uniform(-1.5, 1.5, size=7)
    return NoCausalParams(
        eta=scale,
        x=math.exp(logs[0]),
        z=math.exp(logs[1]),
        y=math.exp(logs[2]),
        xz=math.exp(logs[3]),
        xy=math.exp(logs[4]),
        zy=math.exp(logs[5]),
        xzy=math.exp(logs[6]) if three_way else 1.0,
    )


def random_causal(rng, with_interaction=False):
    logs = rng.uniform(-1.5, 1.5, size=7)
    return CausalParams(
        xc=math.exp(logs[0]),
        zc=math.exp(logs[1]),
        xzc=math.exp(logs[2]),
        y=math.exp(logs[3]),
        xy=math.exp(logs[4]),
        zy=math.exp(logs[5]),
        xzy=math.exp(logs[6]) if with_interaction else 1.0,
        with_interaction=with_interaction,
    )


def table_from_params(nc: NoCausalParams) -> ContingencyTable:
    """Exact expected counts of the generating model, as a table."""
    return nc.as_table()


# printed parameter values of the two worked empirical models

TABLE5 = CausalParams(
    xc=1.7132, zc=0.4659, xzc=3.3059,
    y=0.4881, xy=1.9240, zy=2.4038,
)

TABLE6 = CausalParams(
    xc=1.2278, zc=0.3390, xzc=3.5534,
    y=0.2826, xy=1.4042, zy=3.5385,
    xzy=2.8826, with_interaction=True,
)


# tables whose fits have a parameter out of the float range that no effect,
# z-test or bond reads: only ``FitResult.params`` raises on it

#: the two-way mu^X overflows, while the fitted counts, the Y-block, the
#: z-test (beta_hat 0.0, se 2e-100) and both bonds are finite
FAR_TWO_WAY = (1e-200, 1e100, 1e200, 1e200, 1e200, 1e200, 1e200, 1e-100)

#: the saturated mu^XZ overflows, while the saturated Y-block, the causal
#: parameters and every effect are finite (TE 8.1e-06)
FAR_SATURATED = (2.3273788978915495e+51, 1.3526378281095588e-52,
                 2.032840969205263e-30, 2.4741696820367624e-39,
                 1.1782784837051244e-64, 3.993190800873706e-38,
                 3.771918813730145e+172, 3.2465111233412937e+77)

#: a valid table whose two-way deviance, 1.8526e308 exactly, leaves the
#: float range, while the fit, its parameters and covariance, the effects
#: and the z-test are finite
DEVIANCE_OVERFLOW = (1, 1.5e307, 5e307, 1, 5e307, 1, 1, 5e307)


# direction levels (x, xp) for ``effects_report`` and ``oracle_effects``:
# a level that is not an integer 0 or 1 raises ValueError, a float too

BAD_LEVELS = [
    pytest.param(0.0, 1, id="float-x"),
    pytest.param(0, 1.0, id="float-xp"),
    pytest.param(1.0, 0.0, id="float-both"),
    pytest.param(0.5, 1, id="half"),
    pytest.param(None, 1, id="none"),
    pytest.param("0", 1, id="str"),
    pytest.param(2, 1, id="two"),
    pytest.param(0, -1, id="minus-one"),
]

# integer levels of other types: the report's direction holds plain ints
INTEGER_LEVELS = [
    pytest.param(True, False, id="bool"),
    pytest.param(np.int64(1), np.int64(0), id="int64"),
    pytest.param(np.int8(1), 0, id="int8"),
]
