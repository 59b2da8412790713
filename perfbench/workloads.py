"""Job lists of the qcrit benchmark, and the golden gate that judges them.

A job is one in-process ``qcrit.cli.main(argv)`` call in JSON mode. Every
workload is generated from a variant number (the run seed modulo
``VARIANTS``), so the same seed always gives the same argv lists and the
same series documents, and the golden answers recorded in golden.json cover
every seed.

An argv entry of the form ``@doc:NAME`` stands for the path of the document
file NAME; the runner writes the documents and substitutes the paths.
"""

from __future__ import annotations

import hashlib
import json
import random

VARIANTS = 8

# Fields each workload uses, as (p, n); set-up time builds these.
FIELDS = {
    "desk": [(2, 2), (3, 1)],
    "wide-field": [(2, 8), (3, 5)],
    "deep-series": [(2, 2), (3, 2)],
    "queries": [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)],
}

# Default moduli of the small fields the query documents use (the lowest
# monic irreducible, as qcrit.finite_field.default_modulus picks it).
MODULI = {
    (2, 1): [0, 1], (2, 2): [1, 1, 1], (2, 3): [1, 1, 0, 1],
    (3, 1): [0, 1], (3, 2): [1, 0, 1], (5, 1): [0, 1],
}

DOC_PREFIX = "@doc:"


# The random instances of the wide-field and deep-series sweeps are fixed:
# their cost follows the shapes of the random composition series a seed
# draws (the F_256 Coleman sweep does 0.82M to 1.33M field operations across
# seeds 0-4), which would swamp the spread of their timings. The run seed
# varies desk's sweeps and the whole queries mix.
SWEEP_SEED = 7


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _job(*argv, golden_argv=None, known_defect=False) -> dict:
    job = {"argv": ["--format", "json", *map(str, argv)]}
    if golden_argv is not None:
        job["golden_argv"] = ["--format", "json", *map(str, golden_argv)]
    if known_defect:
        job["known_defect"] = True
    return job


# ---------------------------------------------------------------------------
# Sweep workloads: a few long jobs each
# ---------------------------------------------------------------------------

def _desk(v: int) -> tuple[list[dict], dict]:
    bounds = ("--m-bound", 2187, "--ell-bound", 7)
    jobs = [
        _job("verify", "all", "--p", 2, "--lambda", 2, "--n", 2,
             "--prec", 128, "--seed", v),
        _job("verify", "admissible-order", "--p", 3, "--lambda", 1, *bounds),
        _job("verify", "admissible-witness", "--p", 3, "--lambda", 1, *bounds),
    ]
    return jobs, {}


def _wide_field(_v: int) -> tuple[list[dict], dict]:
    # F_256 and F_243, both above the 128-element table limit. Coleman over
    # F_256 uses lambda = 2 (3 Teichmueller scalings, not 15).
    f256 = ("--p", 2, "--lambda", 4, "--n", 8)
    f256_coleman = ("--p", 2, "--lambda", 2, "--n", 8)
    f243 = ("--p", 3, "--lambda", 1, "--n", 5)
    common = ("--prec", 128, "--seed", SWEEP_SEED)
    jobs = []
    for field, coleman_field in ((f256, f256_coleman), (f243, f243)):
        jobs += [
            _job("verify", "equivariance", *field, *common, "--trials", 5),
            _job("verify", "logderiv", *field, *common, "--trials", 1),
            _job("verify", "coleman", *coleman_field, *common, "--trials", 5),
        ]
    return jobs, {}


def _deep_series(_v: int) -> tuple[list[dict], dict]:
    jobs = [
        _job("verify", "equivariance", "--p", 2, "--lambda", 2, "--n", 2,
             "--prec", 2048, "--trials", 5, "--seed", SWEEP_SEED),
        _job("verify", "logderiv", "--p", 3, "--lambda", 1, "--n", 2,
             "--prec", 2048, "--trials", 2, "--seed", SWEEP_SEED),
    ]
    return jobs, {}


# ---------------------------------------------------------------------------
# Queries: many short jobs from a seeded, stratified mix
# ---------------------------------------------------------------------------

def _field_json(p: int, n: int) -> dict:
    return {"p": p, "n": n, "modulus": MODULI[(p, n)]}


def _coords(rng: random.Random, p: int, n: int, nonzero: bool = False) -> list[int]:
    while True:
        cs = [rng.randrange(p) for _ in range(n)]
        if any(cs) or not nonzero:
            return cs


def _trunc_doc(rng, p, n, prec, unit=False, zero_const=False) -> dict:
    coeffs = [_coords(rng, p, n) for _ in range(prec + 1)]
    if unit:
        coeffs[0] = _coords(rng, p, n, nonzero=True)
    if zero_const:
        coeffs[0] = [0] * n
    return {"field": _field_json(p, n), "prec": prec, "coeffs": coeffs}


def _additive_doc(rng, p, lam, n, prec) -> dict:
    q = p ** lam
    terms = {"0": [1] + [0] * (n - 1)}
    i = 1
    while q ** i <= prec:
        if rng.random() < 0.7:
            terms[str(i)] = _coords(rng, p, n)
        i += 1
    return {"field": _field_json(p, n), "q": {"p": p, "lambda": lam},
            "prec": prec, "terms": terms}


def _compact(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _pairs(opts, values) -> list:
    return [x for pair in zip(opts, values) for x in pair]


def _admissible_quad(rng: random.Random, p: int) -> list[int]:
    """A random admissible quadruple (j, k, ell, m): the base-p digits of j
    lie at or below those of k-1 (Lucas), and m = k + j*(p^ell - 1) is
    coprime to p."""
    while True:
        ell = rng.randrange(1, 4)
        j = rng.randrange(1, 40)
        km1, place, rest = 0, 1, j
        for _ in range(rng.randrange(4, 8)):
            d = rest % p
            rest //= p
            km1 += rng.randrange(d, p) * place
            place *= p
        if rest:
            continue
        k = km1 + 1
        m = k + j * (p ** ell - 1)
        if m % p:
            return [j, k, ell, m]


def _coprime(rng: random.Random, p: int, lo: int, hi: int) -> int:
    while True:
        k = rng.randrange(lo, hi)
        if k % p:
            return k


# Fixed inputs whose golden answer is exit 2 with a message on stderr.
_BAD_INPUTS = [
    ("criticals", "--p", 4, "--lambda", 2),
    ("core", 12),
    ("witness", 1, 1, 1, 1, "--p", 2),
    ("mu", 0, "--p", 2, "--lambda", 2),
    ("series", "eval", "--kind", "twisted-orbit", "--p", 2, "--n", 2),
    ("verify", "equivariance", "--p", 2, "--lambda", 2, "--n", 2,
     "--modulus", "1,0,1", "--prec", 16, "--trials", 1),
    ("series", "logderiv", "--f", "{not json"),
]

_SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


def _queries(v: int) -> tuple[list[dict], dict]:
    rng = random.Random(f"qcrit-queries:{v}")
    jobs: list[dict] = []
    docs: dict[str, str] = {}

    def doc(name: str, body: dict) -> str:
        docs[name] = json.dumps(body)
        return DOC_PREFIX + name

    def pq() -> tuple[int, int]:
        p = rng.choice((2, 3, 5))
        return p, rng.randrange(1, {2: 11, 3: 7, 5: 5}[p])

    for _ in range(10):
        p, lam = pq()
        jobs.append(_job("is-critical", rng.randrange(1, 10 ** 6),
                         "--p", p, "--lambda", lam))
    for _ in range(8):
        p, lam = pq()
        jobs.append(_job("mu", rng.randrange(1, 10 ** 6), "--p", p,
                         "--lambda", lam))
    for i in range(8):
        p = rng.choice((2, 3, 5))
        lam = rng.randrange(1, {2: 9, 3: 6, 5: 4}[p])  # q <= 256
        extra = ("--base",) if i % 2 else ("--bound", rng.randrange(100, 20000))
        jobs.append(_job("criticals", "--p", p, "--lambda", lam, *extra))
    for cmd in ("core", "defect", "cmp", "lucas"):
        for _ in range(6):
            p = rng.choice((2, 3, 5, 7))
            arity = 1 if cmd in ("core", "defect") else 2
            nums = [rng.randrange(1, 10 ** 9) for _ in range(arity)]
            if cmd == "lucas":
                nums.sort(reverse=True)
            jobs.append(_job(cmd, *nums, "--p", p))
    for _ in range(8):
        p = rng.choice((2, 3, 5))
        jobs.append(_job("witness", *_admissible_quad(rng, p), "--p", p))
    for _ in range(6):
        p = rng.choice((2, 3, 5))
        jobs.append(_job("admissible", "--p", p, "--m-bound",
                         rng.randrange(32, 100), "--ell-bound", 4))

    # series eval: two of each named kind
    for kind in ("artin-hasse", "orbit", "twisted-orbit",
                 "projection-formula", "random-unit", "random-gamma"):
        for _ in range(2):
            p, n = rng.choice(_SMALL_FIELDS)
            prec = rng.randrange(16, 97)
            args = ["series", "eval", "--kind", kind, "--p", p, "--n", n,
                    "--prec", prec]
            if kind in ("twisted-orbit", "projection-formula", "random-gamma"):
                args += ["--lambda", rng.randrange(1, 3)]
            if kind in ("orbit", "twisted-orbit", "projection-formula"):
                args += ["--k", _coprime(rng, p, 1, 40),
                         "--alpha", rng.randrange(1, p ** n)]
            if kind in ("twisted-orbit", "projection-formula"):
                args += ["--ell", rng.randrange(1, 3),
                         "--beta", rng.randrange(1, p ** n)]
            if kind in ("random-unit", "random-gamma"):
                args += ["--seed", rng.randrange(1000)]
            if kind == "random-gamma":
                args += ["--factors", rng.randrange(0, 5)]
            jobs.append(_job(*args))

    # series operations on documents: as files, inline when small, and
    # inline when too long to be a file name (see NOTES.md, inline JSON)
    flags = {"compose": ("--f", "--g"), "invert": ("--g",)}

    def series_job(op, bodies, form, extra=(), known_defect=False):
        names = [f"{op}-{len(docs)}-{i}.json" for i in range(len(bodies))]
        refs = [doc(name, body) for name, body in zip(names, bodies)]
        opts = flags.get(op, ("--f",))
        file_argv = ["series", op, *_pairs(opts, refs), *extra]
        if form == "file":
            jobs.append(_job(*file_argv))
        else:
            jobs.append(_job("series", op,
                             *_pairs(opts, map(_compact, bodies)), *extra,
                             golden_argv=file_argv, known_defect=known_defect))

    def trunc(form, **kw):
        if form == "file":
            p, n = rng.choice(_SMALL_FIELDS)
            prec = rng.randrange(64, 129)
        else:
            p, n = rng.choice(((2, 1), (3, 1), (5, 1)))
            prec = rng.randrange(2, 7)
        return _trunc_doc(rng, p, n, prec, **kw)

    def additive(form):
        if form == "file":
            p, n = rng.choice(_SMALL_FIELDS)
            return _additive_doc(rng, p, 1, n, rng.randrange(64, 257))
        return _additive_doc(rng, 2, 1, 1, rng.randrange(4, 40))

    for form, number in (("file", 8), ("inline", 4)):
        for _ in range(number):
            series_job("logderiv", [trunc(form, unit=True)], form)
    # prec-256 series over F_4, passed inline: longer than 255 bytes, so
    # they fail until cli._load_json stops taking them for file names
    for _ in range(4):
        series_job("logderiv", [_trunc_doc(rng, 2, 2, 256, unit=True)], "inline",
                   known_defect=True)
    for form, number in (("file", 6), ("inline", 2)):
        for _ in range(number):
            # dense composition is cubic in the precision: the file jobs
            # compose at one size, so that their cost does not follow the seed
            f = trunc(form) if form == "inline" else _trunc_doc(rng, 2, 2, 80)
            g = _trunc_doc(rng, f["field"]["p"], f["field"]["n"], f["prec"],
                           zero_const=True)
            g["coeffs"][1] = _coords(rng, f["field"]["p"], f["field"]["n"],
                                     nonzero=True)  # valuation 1: full cost
            series_job("compose", [f, g], form)
    for form, number in (("file", 4), ("inline", 4)):
        for _ in range(number):
            series_job("invert", [additive(form)], form)
    for form, number in (("file", 6), ("inline", 2)):
        for _ in range(number):
            f = trunc(form, zero_const=True)
            series_job("psi", [f], form, extra=("--p", f["field"]["p"],
                                               "--lambda", rng.randrange(1, 3)))

    # single-suite verify runs: the heaviest jobs of the mix, at fixed
    # sizes and seeds, so that the jobs above the p90 are the same on
    # every run seed
    s = SWEEP_SEED
    jobs += [
        _job("verify", "admissible-order", "--p", 3, "--lambda", 1,
             "--m-bound", 243, "--ell-bound", 4),
        _job("verify", "admissible-witness", "--p", 3, "--lambda", 1,
             "--m-bound", 243, "--ell-bound", 4),
        _job("verify", "orbit-min", "--p", 3, "--lambda", 2,
             "--c-bound", 200, "--oracle-bound", 3000),
        _job("verify", "cyclic-digits", "--p", 3, "--lambda", 2,
             "--bound", 1200),
        _job("verify", "equivariance", "--p", 2, "--lambda", 2, "--n", 2,
             "--prec", 96, "--trials", 5, "--seed", s),
        _job("verify", "logderiv", "--p", 3, "--lambda", 1, "--prec", 96,
             "--trials", 3, "--seed", s),
        _job("verify", "projection", "--p", 2, "--lambda", 1, "--n", 2,
             "--proj-prec", 64, "--k-bound", 7, "--proj-ell-bound", 2),
        _job("verify", "coleman", "--p", 2, "--lambda", 1, "--n", 2,
             "--prec", 96, "--trials", 5, "--seed", s),
    ]
    jobs += [_job(*bad) for bad in _BAD_INPUTS]
    rng.shuffle(jobs)
    return jobs, docs


WORKLOADS = {
    "desk": _desk,
    "wide-field": _wide_field,
    "deep-series": _deep_series,
    "queries": _queries,
}


def build(workload: str, seed: int) -> tuple[list[dict], dict[str, str]]:
    """Jobs and document files of one workload for a run seed."""
    return WORKLOADS[workload](variant_of(seed))


def resolve(argv: list[str], docdir: str) -> list[str]:
    """Replace document references by paths under docdir."""
    return [f"{docdir}/{a[len(DOC_PREFIX):]}" if a.startswith(DOC_PREFIX) else a
            for a in argv]


# ---------------------------------------------------------------------------
# Outputs and the golden gate
# ---------------------------------------------------------------------------

def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def vacuous(stdout: str) -> bool:
    """True when the output holds a verification report with checks == 0."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return False
    reports = payload.get("reports", []) if isinstance(payload, dict) else []
    return any(r.get("checks") == 0 for r in reports)


def judge(outcome: dict, golden: list, known_defect: bool = False) -> str:
    """Classify one job against its golden [exit code, digest].

    Returns "ok" when the exit code and the bytes match and no report has
    checks == 0. A mismatch is "defect" for a job marked known_defect that
    raised or exited 2 (the inline-JSON defect, see NOTES.md), and "wrong"
    otherwise: a crash of any other job is a wrong verdict.
    """
    code, want = golden
    rc = outcome["rc"]
    if rc == code and outcome["digest"] == want and not outcome["vacuous"]:
        return "ok"
    if known_defect and (rc is None or rc == 2):
        return "defect"
    return "wrong"
