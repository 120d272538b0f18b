import math

import numpy as np
import pytest
from hypothesis import settings

from hawkeslob.families import ExponentialProfile, GaussianProfile
from hawkeslob.micro import (
    ACTIVE_TYPES,
    PASSIVE_TYPES,
    ActiveRateFamily,
    ScalingFamily,
    SizeMeasure,
)

LN2 = math.log(2.0)

# every run, locally and on every CI entry, sees the same examples; a test's
# own @settings still sets its example count
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def gaussian_book(x):
    return np.exp(-((np.asarray(x, dtype=float) - 0.2) ** 2))


def make_family(**overrides) -> ScalingFamily:
    """The standard two-sided test family: spread-linear rates, symmetric
    exogenous flow, gaussian passive placement, dirac sizes of log 2, and a
    mild self-exciting active kernel."""
    kwargs = dict(
        delta_x=0.1,
        delta_v=0.05,
        half_width=2.8,
        ask_price0=0.3,
        bid_price0=0.1,
        ask_volume0=gaussian_book,
        bid_volume0=gaussian_book,
        rates={
            "a": ActiveRateFamily("spread_linear", 0.5),
            "b": ActiveRateFamily("spread_linear", 0.5),
        },
        base_active={"a": 0.25, "b": 0.25},
        base_drift={"a": 0.0, "b": 0.0},
        base_passive={pt: (0.25, GaussianProfile(1.0)) for pt in PASSIVE_TYPES},
        sizes={pt: SizeMeasure("dirac", z=LN2) for pt in PASSIVE_TYPES},
        act_from_act={
            (tgt, src): ExponentialProfile(0.2, 1.0)
            for tgt in "ab"
            for src in ACTIVE_TYPES
        },
    )
    kwargs.update(overrides)
    return ScalingFamily(**kwargs)


@pytest.fixture
def family() -> ScalingFamily:
    return make_family()


@pytest.fixture
def quiet_family() -> ScalingFamily:
    """Zero-kernel variant for Poisson-reduction style oracles."""
    return make_family(act_from_act={})
