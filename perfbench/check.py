"""The benchmark's own correctness check of fogplan's outputs.

Everything here is recomputed from the scenario's model objects
(resources, applications, services), not from the arrays that
``ProblemInstance`` precomputes for evaluation, so a bug in the
evaluation layer cannot hide itself.
"""

from __future__ import annotations

#: objectives are ratios of small integers; anything beyond float
#: rounding is a real mismatch
TOLERANCE = 1e-12


def _dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] >= b[0] and a[1] >= b[1] and (a[0] > b[0] or a[1] > b[1])


class Checker:
    """Checks solutions of one problem instance."""

    def __init__(self, prob):
        keep = 1.0 - prob.reserve_fraction
        resources = prob.landscape.resources
        self.n_resources = len(resources)
        self.up = [1.0 - r.failure_probability for r in resources]
        self.fog = [r.kind.value != "cloud" for r in resources]
        self.capacity = [
            (keep * r.cpu_capacity, keep * r.ram_capacity, keep * r.storage_capacity)
            for r in resources
        ]
        self.apps = [
            [(s.workload_cpu, s.ram_req, s.storage_req, s.availability_req) for s in app.services]
            for app in prob.apps
        ]
        self.n_services = sum(len(services) for services in self.apps)

    def objectives(self, genotype) -> tuple[float, float]:
        """(fog utilization, availability) recomputed from the genotype."""
        on_fog = sum(1 for host in genotype if self.fog[host])
        total = 0.0
        pos = 0
        for services in self.apps:
            met = 0
            for *_, required in services:
                met += required <= self.up[genotype[pos]]
                pos += 1
            total += met / len(services)
        return on_fog / self.n_services, total / len(self.apps)

    def capacity_ok(self, genotype) -> bool:
        """Every resource's cpu, ram and storage within its usable capacity."""
        used = [[0.0, 0.0, 0.0] for _ in range(self.n_resources)]
        pos = 0
        for services in self.apps:
            for cpu, ram, storage, _ in services:
                load = used[genotype[pos]]
                load[0] += cpu
                load[1] += ram
                load[2] += storage
                pos += 1
        return all(
            u <= c for load, cap in zip(used, self.capacity) for u, c in zip(load, cap)
        )

    def members(self, solutions) -> list[str]:
        """Problems found in a set of solutions that should form a front."""
        problems = []
        points = []
        for sol in solutions:
            g = sol.genotype
            if len(g) != self.n_services or not all(0 <= h < self.n_resources for h in g):
                problems.append(f"invalid genotype {g}")
                continue
            if not self.capacity_ok(g):
                problems.append(f"capacity exceeded by {g}")
            fog, avail = self.objectives(g)
            got = sol.objectives.as_tuple()
            if abs(got[0] - fog) > TOLERANCE or abs(got[1] - avail) > TOLERANCE:
                problems.append(f"objectives {got} != recomputed {(fog, avail)} for {g}")
            points.append(got)
        for i, a in enumerate(points):
            for b in points[i + 1:]:
                if _dominates(a, b) or _dominates(b, a):
                    problems.append(f"front members {a} and {b} dominate one another")
        return problems


def dominated_exact_points(members, exact) -> int:
    """Exact-front points that some archive member Pareto-dominates."""
    found = [m.objectives.as_tuple() for m in members]
    return sum(
        1 for e in exact if any(_dominates(p, e.objectives.as_tuple()) for p in found)
    )


def hypervolume(points, ref=(0.0, 0.0)) -> float:
    """Area dominated by maximized 2-D points above ``ref``."""
    area = 0.0
    best = ref[1]
    for x, y in sorted(points, key=lambda p: (-p[0], -p[1])):
        if y > best:
            area += (x - ref[0]) * (y - best)
            best = y
    return area
