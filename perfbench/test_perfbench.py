"""Tests of the benchmark itself: job lists, the golden gate and the tracer.

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import sys
import time

import pytest

import qcrit
import qcrit.cli as cli
from qcrit.finite_field import default_modulus

import run
import workloads
from tracer import LAYERS, SITES, Tracer


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


# -- job lists ---------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_job_list_is_a_function_of_the_seed(workload):
    for seed in (0, 5, 123):
        assert workloads.build(workload, seed) == workloads.build(workload, seed)
        assert (workloads.build(workload, seed)
                == workloads.build(workload, seed + workloads.VARIANTS))
    if workload in ("desk", "queries"):
        assert workloads.build(workload, 1) != workloads.build(workload, 2)


def test_queries_mix_is_large_enough_for_a_p90():
    jobs, docs = workloads.build("queries", 0)
    assert len(jobs) >= 100
    for job in jobs:
        refs = [a for a in job.get("golden_argv", job["argv"])
                if a.startswith(workloads.DOC_PREFIX)]
        assert all(r[len(workloads.DOC_PREFIX):] in docs for r in refs)


def test_inline_documents_small_or_too_long_for_a_file_name():
    jobs, _ = workloads.build("queries", 3)
    inline = [j for j in jobs if "golden_argv" in j]
    sizes = [max(len(a.encode()) for a in j["argv"]) for j in inline]
    assert any(s <= 255 for s in sizes) and any(s > 255 for s in sizes)
    assert all(s < 200 or s > 1000 for s in sizes)


def test_query_moduli_are_the_default_ones():
    for (p, n), modulus in workloads.MODULI.items():
        assert tuple(modulus) == default_modulus(p, n)


def test_golden_covers_every_workload_and_variant():
    golden = json.loads(run.GOLDEN.read_text())
    for workload in workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS):
            jobs, _ = workloads.WORKLOADS[workload](variant)
            assert len(golden[workload][str(variant)]) == len(jobs)


def test_percentile_interpolates_between_ranks():
    samples = list(range(1, 101))
    assert run.percentile(samples, 0.5) == pytest.approx(50.5)
    assert run.percentile(samples, 0.9) == pytest.approx(90.1)
    assert run.percentile([1.0, 2.0, 4.0], 0.9) == pytest.approx(3.6)
    assert run.percentile([3.0], 0.9) == 3.0


# -- golden gate -------------------------------------------------------------

def _outcome(rc, out):
    return {"rc": rc, "digest": workloads.digest(out),
            "vacuous": workloads.vacuous(out)}


def test_gate_accepts_the_recorded_answer_and_flags_a_planted_byte():
    argv = ["--format", "json", "lucas", "10", "3", "--p", "3"]
    rc, out = _main(argv)
    golden = [rc, workloads.digest(out)]
    assert workloads.judge(_outcome(rc, out), golden) == "ok"
    planted = out.replace('"value": ', '"value":  ')
    assert planted != out
    assert workloads.judge(_outcome(rc, planted), golden) == "wrong"
    assert workloads.judge(_outcome(1, out), golden) == "wrong"


def test_gate_flags_a_vacuous_report_even_when_the_bytes_match():
    rc, out = _main(["--format", "json", "verify", "logderiv", "--p", "2",
                     "--lambda", "1", "--prec", "8", "--trials", "-1"])
    assert rc == 0 and workloads.vacuous(out)
    assert workloads.judge(_outcome(rc, out), [rc, workloads.digest(out)]) == "wrong"


def test_gate_calls_a_crash_wrong_unless_the_job_is_a_known_defect():
    golden = [0, workloads.digest("{}\n")]
    raised = {"rc": None, "digest": "", "vacuous": False}
    assert workloads.judge(raised, golden) == "wrong"
    assert workloads.judge(_outcome(2, ""), golden) == "wrong"
    assert workloads.judge(raised, golden, known_defect=True) == "defect"
    assert workloads.judge(_outcome(2, ""), golden, known_defect=True) == "defect"
    assert workloads.judge(_outcome(1, ""), golden, known_defect=True) == "wrong"
    assert workloads.judge(_outcome(0, "{}\n"), golden, known_defect=True) == "ok"
    assert workloads.judge(_outcome(2, ""), [2, workloads.digest("")]) == "ok"


def test_known_defects_are_the_inline_documents_too_long_for_a_file_name():
    for variant in range(workloads.VARIANTS):
        jobs, _ = workloads.build("queries", variant)
        marked = [j for j in jobs if j.get("known_defect")]
        long_inline = [j for j in jobs if "golden_argv" in j
                       and max(len(a.encode()) for a in j["argv"]) > 255]
        assert marked == long_inline and len(marked) == 4
    for workload in ("desk", "wide-field", "deep-series"):
        jobs, _ = workloads.build(workload, 0)
        assert not any(j.get("known_defect") for j in jobs)


def test_long_inline_document_fails_today_and_its_file_form_does_not(tmp_path):
    jobs, docs = workloads.build("queries", 0)
    long_job = next(j for j in jobs if "golden_argv" in j
                    and max(map(len, j["argv"])) > 255)
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    rc_file, out_file = _main(workloads.resolve(long_job["golden_argv"], str(tmp_path)))
    rc_inline, _ = _main(long_job["argv"])
    assert rc_file == 0 and out_file
    assert rc_inline == 2


# -- tracer ------------------------------------------------------------------

def _namespaces():
    spaces = [m for name, m in sys.modules.items()
              if name == "qcrit" or name.startswith("qcrit.")]
    classes = [getattr(sys.modules[o.split(":")[0]], o.split(":")[1])
               for o, *_ in SITES if ":" in o]
    return spaces + classes


def _snapshot():
    return {(id(ns), k): v for ns in _namespaces() for k, v in vars(ns).items()}


def test_every_tracer_site_and_cache_resolves():
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.unresolved == []
    assert len({(owner, attr) for owner, attr, *_ in SITES}) == len(SITES)


def test_tracer_lists_a_site_that_does_not_resolve(monkeypatch):
    monkeypatch.setattr("tracer.SITES", SITES + [
        ("qcrit.digits", "no_such_helper", "digits.none", "counter")])
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.unresolved == ["qcrit.digits.no_such_helper"]


def test_tracer_restores_every_attribute_it_wrapped():
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert qcrit.theorems.verify_logderiv is not before[
            (id(qcrit.theorems), "verify_logderiv")]
        assert qcrit.theorems.log_deriv is not before[(id(qcrit.theorems), "log_deriv")]
        tracer.run_job(0, _main, ["--format", "json", "is-critical", "77",
                                  "--p", "2", "--lambda", "3"])
    finally:
        tracer.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_layer_self_times_add_up_to_the_job():
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        rc, out = tracer.run_job(0, _main, [
            "--format", "json", "verify", "equivariance", "--p", "2",
            "--lambda", "2", "--n", "2", "--prec", "32", "--trials", "5"])
        elapsed = time.perf_counter() - t0
    finally:
        tracer.restore()
    assert rc == 0
    layers = tracer.layer_self()
    assert set(layers) == set(LAYERS)
    assert sum(layers.values()) == pytest.approx(elapsed, rel=0.05)
    metrics = tracer.metrics()
    assert metrics["theorems.equivariance.checks"] == 5
    assert metrics["series.compose.calls"] >= 5
    assert all(s[4] == 0 for s in tracer.spans)  # every span belongs to job 0
