import numpy as np
import pytest

from conftest import chain_app, make_resource, make_service
from fogplan.errors import CycleDetected, DanglingEdge, UnknownColony
from fogplan.model import (
    Application,
    Colony,
    Landscape,
    ResourceKind,
    latency_ms,
    validate_dag,
)
from fogplan.scenario import paper_scenario


class TestValidateDag:
    def test_sense_process_actuate_chain_ok(self):
        app = chain_app(0, [make_service(0, j) for j in range(3)])
        validate_dag(app)

    def test_single_service_no_edges_ok(self):
        app = chain_app(0, [make_service(0, 0)])
        validate_dag(app)

    def test_two_cycle_detected(self):
        app = Application(
            id=0,
            services=tuple(make_service(0, j) for j in range(2)),
            edges=((0, 1), (1, 0)),
            deadline=10.0,
            request_rate=0.1,
        )
        with pytest.raises(CycleDetected) as exc:
            validate_dag(app)
        assert set(exc.value.cycle) >= {0, 1}

    def test_dangling_edge(self):
        app = Application(
            id=0,
            services=(make_service(0, 0),),
            edges=((0, 5),),
            deadline=10.0,
            request_rate=0.1,
        )
        with pytest.raises(DanglingEdge):
            validate_dag(app)


def three_colony_landscape(cloud_latency, neighbor_latency):
    """Cloud plus three FCM-only colonies with the given latency maps."""
    resources = (make_resource(0, ResourceKind.CLOUD, failure=0.0),) + tuple(
        make_resource(c + 1, ResourceKind.FCM, colony=c) for c in range(3)
    )
    colonies = tuple(
        Colony(id=c, fcm=c + 1, cells=(), neighbor_latency=neighbor_latency.get(c, {}))
        for c in range(3)
    )
    return Landscape(cloud=0, colonies=colonies, resources=resources, cloud_latency=cloud_latency)


class TestLandscape:
    def test_unknown_colony(self, two_colony_landscape):
        with pytest.raises(UnknownColony):
            two_colony_landscape.colony(7)

    def test_one_direction_of_each_pair_suffices(self):
        scape = three_colony_landscape(
            {0: 100.0, 1: 90.0, 2: 80.0}, {0: {1: 5.0, 2: 7.0}, 2: {1: 3.0}}
        )
        assert latency_ms(scape, 1, 2) == latency_ms(scape, 2, 1) == 5.0
        assert latency_ms(scape, 2, 3) == 3.0
        assert latency_ms(scape, 3, 0) == 80.0

    def test_missing_neighbor_latency_rejected(self):
        with pytest.raises(ValueError, match="colonies 1 and 2"):
            three_colony_landscape({0: 100.0, 1: 100.0, 2: 100.0}, {0: {1: 5.0, 2: 7.0}})

    def test_missing_cloud_latency_rejected(self):
        with pytest.raises(ValueError, match="colony 2: no cloud latency"):
            three_colony_landscape({0: 100.0, 1: 100.0}, {0: {1: 5.0, 2: 7.0}, 1: {2: 1.0}})


class TestLandscapeAvailability:
    def test_paper_up_probabilities(self):
        prob = paper_scenario(0)
        ups = sorted(set(np.round(prob.up_probability, 6)))
        assert ups == [0.8, 0.9, 0.99999]


class TestLatency:
    def test_same_resource_zero(self, two_colony_landscape):
        assert latency_ms(two_colony_landscape, 2, 2) == 0.0

    def test_fc_to_own_fcm(self, two_colony_landscape):
        assert latency_ms(two_colony_landscape, 2, 1) == 2.0

    def test_fcm_to_cloud(self, two_colony_landscape):
        assert latency_ms(two_colony_landscape, 1, 0) == 100.0

    def test_cross_colony_cells(self, two_colony_landscape):
        # cell -> fcm -> neighbor fcm -> cell
        assert latency_ms(two_colony_landscape, 2, 5) == 2.0 + 10.0 + 2.0

    def test_symmetry(self, two_colony_landscape):
        for a in range(6):
            for b in range(6):
                assert latency_ms(two_colony_landscape, a, b) == latency_ms(
                    two_colony_landscape, b, a
                )
