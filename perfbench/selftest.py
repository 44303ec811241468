"""Self-test of the benchmark's oracle: `python3 perfbench/run.py --self-test`.

Checks the closed forms and counts the oracle relies on against brute force,
then plants wrong answers (a coloring with a monochromatic solution, a wrong
forcing number, a dropped solution, a wrong blocking prime, a witness that is
not the least one, a non-progression, a family that does not vanish, a wrong
term equality, a bad envelope, a wrong exit code) into the same judging path
the passes use, and requires each to be counted as a failed job, while the
true answers of the same jobs pass.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

from prlab.core import Coloring
from prlab.search import SearchOutcome

from . import oracle, workloads


def _closed_forms() -> list[str]:
    errors = []
    for a, b in ((1, 1), (3, 1), (3, 2), (1, 2), (2, 3), (4, 1), (4, 3), (1, 3)):
        eq = oracle.linear((a, b, -a), ("x", "y", "z"))
        R = oracle.rado2(a, b)
        if oracle.forced(oracle.eq_solutions(eq, R - 1), R - 1, 2):
            errors.append(f"rado2({a}, {b}) = {R}, but [1, {R - 1}] is already forced")
        if not oracle.forced(oracle.eq_solutions(eq, R), R, 2):
            errors.append(f"rado2({a}, {b}) = {R}, but [1, {R}] has a good coloring")
    schur = oracle.linear((1, 1, -1), ("x", "y", "z"))
    if oracle.forced(oracle.eq_solutions(schur, 13), 13, 3) or not oracle.forced(
            oracle.eq_solutions(schur, 14), 14, 3):
        errors.append("S(3) is not 14 by brute force")
    if oracle.forced(oracle.ap_solutions(3, 8), 8, 2) or not oracle.forced(oracle.ap_solutions(3, 9), 9, 2):
        errors.append("W(3;2) is not 9 by brute force")
    irregular = sum(1 for row in workloads.sweep_rows() if not oracle.has_zero_sum(row))
    if irregular != 434:
        errors.append(f"{irregular} irregular sweep equations, expected 434")
    return errors


def _first(jobs, kind, pred=lambda job: True):
    return next(job for job in jobs if job.kind == kind and pred(job))


def _planted_cases(run_child, workdir):
    """(label, job, planted raw result, true raw result or None)."""
    cases = []
    jobs = workloads.build("coloring_search", 0, None)
    good = _first(jobs, "single-n", lambda j: j.spec[2] == 42)
    n = good.spec[2]
    cases.append(("all-ones coloring", good, SearchOutcome(False, Coloring(1, [1] * n), 0), good.run({})))
    forced = _first(jobs, "single-n", lambda j: j.spec[1] == "ap4")
    cases.append(("good coloring where forced", forced,
                  SearchOutcome(False, Coloring(1, [1, 2] * 17 + [1]), 0), None))
    sweep = _first(jobs, "forcing-sweep", lambda j: j.spec[2] == 2)
    cases.append(("forcing number off by one", sweep, sweep.run({}) + 1, sweep.run({})))

    jobs = workloads.build("enumerate_index", 0, None)
    enum = _first(jobs, "enumerate-poly", lambda j: j.spec[2] < 60)
    sols = enum.run({})
    cases.append(("dropped solution", enum, sols[:-1], sols))

    jobs = workloads.build("certify_batch", 0, None)
    row = _first(jobs, "sweep-linear", lambda j: j.spec[1] == (1, 1, -3))
    p = oracle.least_blocking_prime((1, 1, -3))
    cases.append(("wrong blocking prime", row, (False, False, p + 2, None), (False, False, p, None)))
    row = _first(jobs, "sweep-linear", lambda j: j.spec[1] == (1, 2, -3))
    cases.append(("regular row called irregular", row, (True, False, 2, None), (True, True, None, None)))
    wit = _first(jobs, "witness-nonlinear", lambda j: j.run({}) is not None)
    true_w = wit.run({})
    cases.append(("witness that is not the least", wit, tuple(x + 1 for x in true_w), true_w))
    ext = _first(jobs, "extract")
    cases.append(("non-progression", ext, (0, 1, 3), ext.run({})))
    par = _first(jobs, "parametric")
    ps = par.run({})
    bad = SimpleNamespace(j_vars=ps.j_vars, zs=(ps.zs[0] + 1,) + tuple(ps.zs[1:]), m=ps.m, other_vars=ps.other_vars)
    cases.append(("family that does not vanish", par, bad, ps))
    teq = _first(jobs, "omega", lambda j: j.spec[0] == "term_eq")
    cases.append(("wrong term equality", teq, not teq.run({}), teq.run({})))
    ledger = _first(jobs, "omega", lambda j: j.spec[:2] == ("verify_table_construction", (3, 2, 4)))
    true_ledger = ledger.run({})
    cases.append(("edited ledger", ledger,
                  SimpleNamespace(zero_check=True, distinct_check=True,
                                  ledger=[SimpleNamespace(text=lambda: "c1 = 0")] + list(true_ledger.ledger[1:])),
                  true_ledger))

    jobs = workloads.build("cli_mix", 0, workdir)
    cli = _first(jobs, "folkman", lambda j: j.argv[1] == "fs")
    code, out = run_child(cli.argv)[:2]
    env = json.loads(out)
    cases.append(("six-key envelope", cli, (code, json.dumps(dict(env, extra=1))), (code, out)))
    cases.append(("wrong exit code", cli, (1, out), None))
    return cases


def self_test(runner_cls, run_child, workdir) -> int:
    errors = _closed_forms()
    for label, job, planted, truth in _planted_cases(run_child, workdir):
        runner = runner_cls([job])
        if runner.judge([(planted, None)]) != 1:
            errors.append(f"planted {label} was not counted as a failure")
        if truth is not None and runner_cls([job]).judge([(truth, None)]) != 0:
            errors.append(f"true answer for {label} was counted as a failure")
    breach = _first(workloads.build("cli_mix", 0, workdir), "breach")
    runner = runner_cls([breach])
    if runner.judge([((1, ""), None)]) != 1 or runner.unexpected_failures != 0:
        errors.append("a known breach is not counted as an expected failure")
    for err in errors:
        print(f"SELF-TEST FAIL: {err}")
    print(f"self-test: {'ok' if not errors else f'{len(errors)} errors'}")
    return 1 if errors else 0
