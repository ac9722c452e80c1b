import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_app, make_resource, make_service
from fogplan.errors import CycleDetected, DanglingEdge, ParseError
from fogplan.model import (
    Application,
    Landscape,
    Latencies,
    ResourceKind,
    latency_matrix,
    service_levels,
)
from fogplan.scenario import ScenarioSpec, build_landscape, paper_scenario, scaled_scenario
from test_evaluate_reference import latency_ms


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

    @pytest.mark.parametrize("n, edges, on_cycle", [
        pytest.param(2, ((0, 1), (1, 0)), {0, 1}, id="two"),
        pytest.param(4, ((0, 1), (1, 2), (2, 3), (3, 1)), {1, 2, 3}, id="behind-a-tail"),
        pytest.param(3, ((0, 1), (1, 1), (1, 2)), {1}, id="self-loop"),
    ])
    def test_reported_cycle_is_closed_along_the_edges(self, n, edges, on_cycle):
        app = Application(
            id=0,
            services=tuple(make_service(0, j) for j in range(n)),
            edges=edges,
            deadline=10.0,
            request_rate=0.1,
        )
        with pytest.raises(CycleDetected) as exc:
            service_levels(app)
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1]
        assert all(pair in edges for pair in zip(cycle, cycle[1:]))
        assert set(cycle) == on_cycle

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


def celled_landscape():
    """Cloud plus three colonies with cells, non-contiguous colony ids,
    and latencies whose float sum depends on the order of addition."""
    resources = [make_resource(0, ResourceKind.CLOUD, failure=0.0)]
    for colony, cells in ((3, 2), (0, 1), (7, 1)):
        resources.append(make_resource(len(resources), ResourceKind.FCM, colony=colony))
        for _ in range(cells):
            resources.append(make_resource(len(resources), ResourceKind.FC, colony=colony))
    return Landscape(tuple(resources), Latencies(fc_fcm_ms=0.1, fcm_fcm_ms=0.6, fcm_cloud_ms=0.7))


CELLED = celled_landscape()


def assert_matrix_matches(scape):
    mat = latency_matrix(scape)
    n = len(scape.resources)
    for i in range(n):
        for j in range(n):
            assert mat[i, j] == latency_ms(scape, i, j) == latency_ms(scape, j, i)


class TestLandscape:
    @pytest.mark.parametrize("kinds", [
        (ResourceKind.FC, ResourceKind.FC),
        (ResourceKind.FCM, ResourceKind.FCM),
    ], ids=["no-fcm", "two-fcms"])
    def test_colony_needs_exactly_one_fcm(self, kinds):
        resources = (
            make_resource(0, ResourceKind.CLOUD),
            make_resource(1, ResourceKind.FCM, colony=0),
            make_resource(2, kinds[0], colony=1),
            make_resource(3, kinds[1], colony=1),
        )
        with pytest.raises(ValueError, match="colony 1: [02] FCMs"):
            Landscape(resources, Latencies())

    @pytest.mark.parametrize("kinds", [
        (ResourceKind.CLOUD, ResourceKind.FCM, ResourceKind.CLOUD),
        (ResourceKind.FCM, ResourceKind.FC),
    ], ids=["second-cloud", "no-cloud"])
    def test_exactly_one_cloud(self, kinds):
        resources = tuple(
            make_resource(rid, kind, colony=None if kind is ResourceKind.CLOUD else 0)
            for rid, kind in enumerate(kinds)
        )
        with pytest.raises(ValueError, match=r"cloud resources \[.*\]: expected one"):
            Landscape(resources, Latencies())

    def test_cloud_is_the_cloud_resource(self):
        resources = (
            make_resource(0, ResourceKind.FCM, colony=0),
            make_resource(1, ResourceKind.CLOUD),
            make_resource(2, ResourceKind.FC, colony=0),
        )
        assert Landscape(resources, Latencies()).cloud == 1

    def test_negative_colony_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            make_resource(1, ResourceKind.FC, colony=-1)

    @pytest.mark.parametrize("bad", [-1.0, float("inf"), float("nan")])
    def test_negative_or_non_finite_latency_rejected(self, bad):
        for field in dataclasses.fields(Latencies):
            with pytest.raises(ParseError, match=f"{field.name}: latency must be finite and >= 0"):
                Latencies(**{field.name: bad})


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
        CELLED,
        # one colony: no FCM-to-FCM link
        scaled_scenario(ScenarioSpec(colonies=1, cells_per_colony=2), 1).landscape,
    ])
    def test_matrix_equals_pairwise_reference(self, scape):
        if scape is CELLED:
            # a cell-to-cell sum that took both hops first would round otherwise
            hop, inter = scape.latencies.fc_fcm_ms, scape.latencies.fcm_fcm_ms
            assert hop + inter + hop != hop + hop + inter
        assert_matrix_matches(scape)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0, 1000), min_size=3, max_size=3), st.integers(1, 3), st.integers(1, 3))
    def test_matrix_equals_pairwise_reference_drawn(self, latencies, colonies, cells):
        # drawn latencies round in their sums, so both orders of a pair are
        # checked on values where the order of addition could show
        spec = ScenarioSpec(colonies=colonies, cells_per_colony=cells)
        assert_matrix_matches(dataclasses.replace(build_landscape(spec), latencies=Latencies(*latencies)))

    def test_symmetry(self, two_colony_landscape):
        for a in range(6):
            for b in range(6):
                assert latency_ms(two_colony_landscape, a, b) == latency_ms(
                    two_colony_landscape, b, a
                )


class TestFiniteNumbers:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("build", [
        pytest.param(lambda v: make_resource(0, ResourceKind.FC, colony=0, cpu=v), id="resource-cpu"),
        pytest.param(lambda v: make_resource(0, ResourceKind.FC, colony=0, ram=v), id="resource-ram"),
        pytest.param(lambda v: make_resource(0, ResourceKind.FC, colony=0, storage=v), id="resource-storage"),
        pytest.param(lambda v: make_service(0, 0, cpu=v), id="service-cpu"),
        pytest.param(lambda v: make_service(0, 0, ram=v), id="service-ram"),
        pytest.param(lambda v: make_service(0, 0, storage=v), id="service-storage"),
        pytest.param(lambda v: chain_app(0, [make_service(0, 0)], deadline=v), id="app-deadline"),
        pytest.param(lambda v: chain_app(0, [make_service(0, 0)], rate=v), id="app-rate"),
    ])
    def test_non_finite_number_rejected(self, build, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            build(bad)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: make_resource(0, ResourceKind.CLOUD, failure=1.5),
                 "resource 0: failure probability outside [0, 1]", id="failure-1.5"),
    pytest.param(lambda: Landscape((make_resource(0, ResourceKind.CLOUD), make_resource(2, ResourceKind.FCM, colony=0)),
                                   Latencies()),
                 "resource ids must be unique and contiguous from 0", id="ids-0-2"),
    pytest.param(lambda: make_service(0, 0, avail=1.5),
                 "service (0, 0): availability requirement outside [0, 1]", id="availability-1.5"),
])
def test_out_of_range_input_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
        build()
    assert caught.type is ValueError
