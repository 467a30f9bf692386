"""Output checks written independently of the program under test.

The pricer below re-derives Equation 1 of the paper from first principles:
template base latencies times the VM type's speed factor give execution
times, a VM's start-up fee plus its per-second running price gives the
infrastructure cost, and the goal's penalty rate times its violation period
gives the penalty.  It reads goals through their plain ``to_dict`` fields and
never calls ``CostModel``, the simulator, or a goal's own ``penalty``.

Every check returns a list of problem strings; an empty list means the output
passed.  The workloads count each failing operation and turn any problem into
a non-zero exit.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

#: Relative tolerance between the program's reported cost and the re-pricing.
REL_TOL = 1e-9


def _violation(goal: dict, latencies: list[tuple[str, float]]) -> float:
    """Violation period (seconds) of ``(template, latency)`` pairs under *goal*."""
    kind = goal["kind"]
    if not latencies:
        return 0.0
    if kind == "max":
        return sum(max(0.0, value - goal["deadline"]) for _, value in latencies)
    if kind == "per_query":
        deadlines = goal["deadlines"]
        return sum(
            max(0.0, value - deadlines[template]) for template, value in latencies
        )
    if kind == "average":
        mean = sum(value for _, value in latencies) / len(latencies)
        return max(0.0, mean - goal["deadline"])
    if kind == "percentile":
        ordered = sorted(value for _, value in latencies)
        rank = max(1, math.ceil(goal["percent"] / 100.0 * len(ordered)))
        return max(0.0, ordered[rank - 1] - goal["deadline"])
    raise ValueError(f"no independent pricer for goal kind {kind!r}")


def execution_time(templates, vm_type, template_name: str) -> float:
    """Seconds *template_name* runs on *vm_type* (base latency x speed factor)."""
    factor = vm_type.speed_factors.get(template_name, vm_type.default_speed_factor)
    return templates[template_name].base_latency * factor


def _close(reported: float, expected: float) -> bool:
    return math.isclose(reported, expected, rel_tol=REL_TOL, abs_tol=1e-12)


def check_batch(outcome, workload, templates, goal) -> list[str]:
    """Re-price a batch outcome and check its placement properties.

    Batch queries all arrive at time zero and every VM runs its queue back to
    back from time zero, so completion times follow from the schedule alone.
    """
    problems = []
    placed = Counter(query.query_id for vm in outcome.schedule for query in vm.queries)
    expected = Counter(query.query_id for query in workload)
    if placed != expected:
        problems.append("batch: queries not placed exactly once")
    infrastructure = 0.0
    latencies = []
    for vm in outcome.schedule:
        vm_type = vm.vm_type
        clock = 0.0
        for query in vm.queries:
            runtime = execution_time(templates, vm_type, query.template_name)
            clock += runtime
            infrastructure += vm_type.running_cost * runtime
            latencies.append((query.template_name, clock))
        infrastructure += vm_type.startup_cost
    goal_fields = goal.to_dict()
    total = infrastructure + goal_fields["penalty_rate"] * _violation(
        goal_fields, latencies
    )
    if not _close(outcome.cost.total, total):
        problems.append(
            f"batch: reported cost {outcome.cost.total!r} != re-priced {total!r}"
        )
    problems += _check_records(outcome, templates)
    return problems


def _check_records(outcome, templates) -> list[str]:
    """Per-query records: no start before arrival, no overlap on one VM."""
    problems = []
    by_vm: dict[int, list] = {}
    vm_types = {vm.vm_type.name: vm.vm_type for vm in outcome.schedule}
    for record in outcome.query_outcomes:
        if record.start_time < record.arrival_time:
            problems.append(f"query {record.query_id} starts before it arrives")
        runtime = execution_time(
            templates, vm_types[record.vm_type_name], record.template_name
        )
        if not _close(record.completion_time - record.start_time, runtime):
            problems.append(f"query {record.query_id} ran for the wrong time")
        by_vm.setdefault(record.vm_index, []).append(record)
    for vm_index, records in by_vm.items():
        records.sort(key=lambda record: record.start_time)
        for before, after in zip(records, records[1:]):
            if after.start_time < before.completion_time - 1e-9:
                problems.append(f"queries overlap on VM {vm_index}")
                break
    return problems


def check_online(outcome, workload, templates, goal, faulted: bool) -> list[str]:
    """Check an online (or served) outcome; re-price it when fault-free.

    Every rented VM holds at least its first query, which starts the moment
    the VM is provisioned and so is never pulled back, so the VMs billed are
    exactly the distinct VM indices in the per-query records.
    """
    problems = []
    placed = Counter(record.query_id for record in outcome.query_outcomes)
    expected = Counter(query.query_id for query in workload)
    if placed != expected:
        problems.append("online: queries not placed exactly once")
    problems += _check_records(outcome, templates)
    cost = outcome.cost
    if not _close(cost.total, cost.failure_free_cost + cost.wasted_cost):
        problems.append("online: total != failure_free + wasted")
    if faulted:
        return problems
    vm_types = {vm.vm_type.name: vm.vm_type for vm in outcome.schedule}
    billed: dict[int, str] = {}
    infrastructure = 0.0
    latencies = []
    for record in outcome.query_outcomes:
        vm_type = vm_types[record.vm_type_name]
        billed[record.vm_index] = record.vm_type_name
        infrastructure += vm_type.running_cost * execution_time(
            templates, vm_type, record.template_name
        )
        latencies.append(
            (record.template_name, record.completion_time - record.arrival_time)
        )
    infrastructure += sum(vm_types[name].startup_cost for name in billed.values())
    goal_fields = goal.to_dict()
    total = infrastructure + goal_fields["penalty_rate"] * _violation(
        goal_fields, latencies
    )
    if not _close(cost.total, total):
        problems.append(f"online: reported cost {cost.total!r} != re-priced {total!r}")
    return problems


def outcome_digest(outcome) -> str:
    """A hash of everything a placement comparison needs: schedule, records, cost."""
    cost = outcome.cost
    fields = (
        outcome.schedule.signature(),
        tuple(
            (
                record.query_id,
                record.vm_index,
                record.start_time,
                record.completion_time,
            )
            for record in outcome.query_outcomes
        ),
        (cost.startup_cost, cost.execution_cost, cost.penalty_cost, cost.wasted_cost),
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()
