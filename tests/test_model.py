import numpy as np
import pytest

from conftest import chain_app, make_resource, make_service
from fogplan.errors import CycleDetected, DanglingEdge, UnknownColony
from fogplan.model import (
    Application,
    Colony,
    Landscape,
    ResourceKind,
    latency_matrix,
    latency_ms,
    service_levels,
)
from fogplan.scenario import ScenarioSpec, paper_scenario, scaled_scenario


class TestValidateDag:
    def test_sense_process_actuate_chain_ok(self):
        app = chain_app(0, [make_service(0, j) for j in range(3)])
        assert service_levels(app) == [0, 1, 2]

    def test_single_service_no_edges_ok(self):
        app = chain_app(0, [make_service(0, 0)])
        assert service_levels(app) == [0]

    def test_two_cycle_detected(self):
        app = Application(
            id=0,
            services=tuple(make_service(0, j) for j in range(2)),
            edges=((0, 1), (1, 0)),
            deadline=10.0,
            request_rate=0.1,
        )
        with pytest.raises(CycleDetected) as exc:
            service_levels(app)
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
            service_levels(app)

    def test_levels_of_diamond_and_join(self):
        # 0 -> {1, 2} -> 3, and 4 -> 3 from a second source; 5 stands alone
        app = Application(
            id=0,
            services=tuple(make_service(0, j) for j in range(6)),
            edges=((0, 1), (0, 2), (1, 3), (2, 3), (4, 3)),
            deadline=10.0,
            request_rate=0.1,
        )
        assert service_levels(app) == [0, 1, 1, 2, 0, 0]

    def test_levels_follow_longest_path(self):
        app = chain_app(0, [make_service(0, j) for j in range(4)])
        app = Application(
            id=0, services=app.services, edges=app.edges + ((0, 3),), deadline=10.0,
            request_rate=0.1,
        )
        assert service_levels(app) == [0, 1, 2, 3]

    def test_app_without_services_rejected(self):
        with pytest.raises(ValueError, match="no services"):
            Application(id=0, services=(), edges=(), deadline=10.0, request_rate=0.1)


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


def celled_landscape():
    """Cloud plus three colonies with cells, one latency direction per
    colony pair, and hop sums whose rounding depends on their order."""
    resources = [make_resource(0, ResourceKind.CLOUD, failure=0.0)]
    colonies = []
    for c, (cells, hop) in enumerate(((2, 0.1), (1, 0.7), (1, 0.3))):
        fcm = len(resources)
        resources.append(make_resource(fcm, ResourceKind.FCM, colony=c))
        ids = tuple(range(fcm + 1, fcm + 1 + cells))
        resources += [make_resource(rid, ResourceKind.FC, colony=c) for rid in ids]
        neighbors = {0: {1: 0.2, 2: 0.6}, 2: {1: 0.3}}.get(c, {})
        colonies.append(
            Colony(id=c, fcm=fcm, cells=ids, neighbor_latency=neighbors, cell_latency=hop)
        )
    return Landscape(
        cloud=0, colonies=tuple(colonies), resources=tuple(resources),
        cloud_latency={0: 0.1, 1: 0.7, 2: 0.3},
    )


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

    @pytest.mark.parametrize("bad", [-1.0, float("inf"), float("nan")])
    def test_negative_or_non_finite_latency_rejected(self, bad):
        with pytest.raises(ValueError, match="colony 1: cloud latency"):
            three_colony_landscape({0: 1.0, 1: bad, 2: 1.0}, {0: {1: 5.0, 2: 7.0}, 1: {2: 1.0}})
        with pytest.raises(ValueError, match="colony 0: neighbor latency"):
            three_colony_landscape({0: 1.0, 1: 1.0, 2: 1.0}, {0: {1: bad, 2: 7.0}, 1: {2: 1.0}})
        with pytest.raises(ValueError, match="colony 0: cell latency"):
            Colony(id=0, fcm=1, cells=(2,), cell_latency=bad)


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

    @pytest.mark.parametrize("scape", [
        scaled_scenario(ScenarioSpec(), 4).landscape,
        celled_landscape(),
        # four resources: the pairwise-loop path
        scaled_scenario(ScenarioSpec(colonies=1, cells_per_colony=2), 1).landscape,
    ])
    def test_matrix_equals_pairwise_reference(self, scape):
        mat = latency_matrix(scape)
        n = len(scape.resources)
        for i in range(n):
            for j in range(n):
                assert mat[i, j] == latency_ms(scape, min(i, j), max(i, j))

    def test_symmetry(self, two_colony_landscape):
        for a in range(6):
            for b in range(6):
                assert latency_ms(two_colony_landscape, a, b) == latency_ms(
                    two_colony_landscape, b, a
                )
