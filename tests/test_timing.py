import numpy as np
import pytest

from conftest import chain_app, make_service
from fogplan.errors import Saturated
from fogplan.fsdp import ProblemInstance
from fogplan.model import Application
from fogplan.timing import (
    Md1Queue,
    md1_sojourn,
    resource_load,
    response_time_report,
)
from test_fsdp import single_colony_landscape


def app_rt(dep, prob, app_id=0):
    return response_time_report(dep, prob).app_rt[app_id]


class TestMd1Sojourn:
    def test_empty_queue_equals_service_time(self):
        assert md1_sojourn(Md1Queue(arrival_rate=0.0, service_time=1.0)) == 1.0

    def test_half_loaded(self):
        # rho = 0.5, D = 1: 1 + 0.5 / (2 * 0.5) = 1.5
        assert md1_sojourn(Md1Queue(arrival_rate=0.5, service_time=1.0)) == pytest.approx(1.5)

    def test_saturation_boundary(self):
        with pytest.raises(Saturated):
            md1_sojourn(Md1Queue(arrival_rate=1.0, service_time=1.0))

    def test_strictly_increasing_in_rate_and_service_time(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = float(rng.uniform(0.1, 1.0))
            lam = float(rng.uniform(0.01, 0.9 / d))
            base = md1_sojourn(Md1Queue(lam, d))
            assert md1_sojourn(Md1Queue(lam * 1.05, d)) > base
            assert md1_sojourn(Md1Queue(lam, d * 1.01)) > base

    def test_continuity_at_empty_limit(self):
        d = 0.7
        assert md1_sojourn(Md1Queue(1e-12, d)) == pytest.approx(d, rel=1e-9)


class TestResourceLoad:
    def _problem(self, n_apps=1, rate=0.5):
        scape = single_colony_landscape()
        apps = [
            chain_app(i, [make_service(i, 0, cpu=200)], rate=rate)
            for i in range(n_apps)
        ]
        return ProblemInstance(scape, apps)

    def test_empty_resource(self):
        prob = self._problem()
        assert resource_load([0], prob, 2) == (0.0, 0.0, 0.0)

    def test_single_service(self):
        prob = self._problem()
        lam, d, rho = resource_load([2], prob, 2)
        assert (lam, d, rho) == (0.5, pytest.approx(0.8), pytest.approx(0.4))

    def test_two_services_stack(self):
        prob = self._problem(n_apps=2)
        lam, d, rho = resource_load([2, 2], prob, 2)
        assert (lam, d, rho) == (1.0, pytest.approx(0.8), pytest.approx(0.8))


class TestResponseTime:
    def test_single_service_closed_form(self):
        scape = single_colony_landscape()
        apps = [chain_app(0, [make_service(0, 0, cpu=200)], rate=0.5)]
        prob = ProblemInstance(scape, apps)
        # D = 0.8, rho = 0.4: 0.8 + 0.5 * 0.64 / (2 * 0.6)
        assert app_rt([2], prob) == pytest.approx(16.0 / 15.0)

    def test_chain_on_one_resource_sums_sojourns(self):
        scape = single_colony_landscape()
        apps = [chain_app(0, [make_service(0, j, cpu=100) for j in range(3)], rate=0.2)]
        prob = ProblemInstance(scape, apps)
        dep = [1, 1, 1]
        lam, d, rho = resource_load(dep, prob, 1)
        sojourn = md1_sojourn(Md1Queue(lam, d))
        assert app_rt(dep, prob) == pytest.approx(3 * sojourn)

    def test_parallel_branches_take_slower(self):
        scape = single_colony_landscape()
        # diamond: 0 -> {1, 2} -> 3; service 2 is much heavier
        services = [
            make_service(0, 0, cpu=10),
            make_service(0, 1, cpu=10),
            make_service(0, 2, cpu=900),
            make_service(0, 3, cpu=10),
        ]
        app = Application(
            id=0,
            services=tuple(services),
            edges=((0, 1), (0, 2), (1, 3), (2, 3)),
            deadline=100.0,
            request_rate=0.1,
        )
        prob = ProblemInstance(scape, [app])
        # light services on cloud, heavy service alone on the FCM
        dep = [0, 0, 1, 0]
        rt = app_rt(dep, prob)
        heavy = md1_sojourn(Md1Queue(*resource_load(dep, prob, 1)[:2]))
        cloud_sojourn = md1_sojourn(Md1Queue(*resource_load(dep, prob, 0)[:2]))
        lat = prob.latency_s[0, 1]
        # critical path routes through the heavy FCM service: cloud node,
        # hop to FCM, heavy sojourn, hop back, final cloud node
        assert rt == pytest.approx(2 * cloud_sojourn + heavy + 2 * lat)

    def test_saturated_raises(self):
        scape = single_colony_landscape()
        apps = [chain_app(0, [make_service(0, 0, cpu=250)], rate=5.0)]
        prob = ProblemInstance(scape, apps)
        assert app_rt([2], prob) is None
        with pytest.raises(Saturated):
            md1_sojourn(Md1Queue(*resource_load([2], prob, 2)[:2]))

    def test_monotone_in_workload(self):
        scape = single_colony_landscape()
        rng = np.random.default_rng(7)
        for _ in range(50):
            cpu = float(rng.uniform(10, 100))
            apps = [chain_app(0, [make_service(0, j, cpu=cpu) for j in range(3)], rate=0.2)]
            heavier = [chain_app(0, [make_service(0, j, cpu=cpu * 1.5) for j in range(3)], rate=0.2)]
            dep = list(rng.integers(0, 3, 3))
            rt1 = app_rt(dep, ProblemInstance(scape, apps))
            rt2 = app_rt(dep, ProblemInstance(scape, heavier))
            assert rt2 >= rt1


class TestReport:
    def test_report_covers_all_apps(self, paper_problem):
        dep = [paper_problem.landscape.cloud] * paper_problem.n_services
        report = response_time_report(dep, paper_problem)
        assert set(report.app_rt) == {app.id for app in paper_problem.apps}
        assert all(rt is not None and rt >= 0 for rt in report.app_rt.values())
