"""FaultPlanConfig: validation, round-tripping, and the off switch."""

import pytest

from repro.core.errors import ConfigurationError
from repro.faults.plan import FaultPlanConfig


class TestValidation:
    def test_defaults_are_a_noop_plan(self):
        plan = FaultPlanConfig()
        assert plan.churn_rate == 0.0
        assert plan.link_loss == 0.0
        assert plan.partitions == ()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(churn_rate=-0.1),
            dict(mean_downtime=0.0),
            dict(mean_downtime=-1.0),
            dict(link_loss=-0.01),
            dict(link_loss=1.5),
            dict(partitions=((5.0, 5.0, 750.0),)),
            dict(partitions=((-1.0, 5.0, 750.0),)),
            dict(partitions=((5.0, 2.0, 750.0),)),
            dict(partitions=((5.0, 10.0),)),  # missing x_split
            dict(partitions=((1.0, 2.0, 3.0, 4.0),)),  # extra element
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPlanConfig(**kwargs)


class TestRoundTrip:
    def test_dict_round_trip_preserves_plan(self):
        plan = FaultPlanConfig(
            churn_rate=0.02,
            mean_downtime=12.5,
            link_loss=0.1,
            partitions=((5.0, 7.0, 750.0), (40.0, 60.0, 500.0)),
        )
        data = plan.to_dict()
        # JSON-ready: every window is a plain list.
        assert data["partitions"] == [[5.0, 7.0, 750.0], [40.0, 60.0, 500.0]]
        assert FaultPlanConfig.from_dict(data) == plan

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="churn_rte"):
            FaultPlanConfig.from_dict({"churn_rte": 0.1})

    def test_with_copies(self):
        plan = FaultPlanConfig()
        assert plan.with_(link_loss=0.2).link_loss == 0.2
        assert plan.link_loss == 0.0
