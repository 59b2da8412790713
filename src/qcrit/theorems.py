"""Verification harness: each checker sweeps one identity or combinatorial
statement over a bounded or randomized domain and returns a structured
report. Failures are data, not exceptions; a report carries minimal
counterexamples with everything needed to reproduce them.

All sweeps are deterministic given their parameters and seed. A randomized
sweep draws every trial from one random.Random(seed) stream. A trial takes
all of its draws before it checks them, so a process reaches trial t by
drawing the trials before it without checking them: this is how forked
workers share a sweep's trials (_run_trials).

SUITES is the one list of sweeps and of the options that each reads:
`qcrit verify` and verify_all take their statements and options from it.
"""

from __future__ import annotations

import random
import time
from contextlib import suppress
from contextvars import ContextVar, copy_context
from dataclasses import dataclass, field
from functools import partial

from . import digits
from .digits import (PrimePower, critical_base_set, critical_members,
                     digital_cmp, min_residue, coprime_part,
                     orbit_id, orbit_min, orbit_residues, p_core, GREATER)
from .finite_field import FieldSpec, check_prime, field_make
from .series import (TruncSeries, _draws, _random_gamma, _random_unit,
                     _series, artin_hasse, check_prec, critical_projection,
                     critical_projection_formula, log_deriv, orbit_series,
                     solve_log_deriv, twisted_orbit_series)

_MAX_COUNTEREXAMPLES = 25


@dataclass
class VerifyReport:
    """Outcome of one verification sweep. Passes exactly when no
    counterexample was found."""

    statement: str
    params: dict
    scope: str
    checks: int
    counterexamples: list = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self, include_timing: bool = True) -> dict:
        return {
            "statement": self.statement,
            "params": self.params,
            "scope": self.scope,
            "checks": self.checks,
            "pass": self.passed,
            "counterexamples": self.counterexamples,
            "elapsed_ms": round(self.elapsed_ms, 3) if include_timing else None,
        }

    def summary(self, include_timing: bool = True) -> str:
        tag = "PASS" if self.passed else "FAIL"
        timing = f" ({self.elapsed_ms:.0f} ms)" if include_timing else ""
        return f"{tag} {self.statement} [{self.scope}] checks={self.checks}{timing}"


_admitting = ContextVar("_admitting", default=False)


class _Admitted(Exception):
    """A sweep got past all of its refusals while _admitting was set."""


class _Collector:
    """Accumulates counterexamples with a cap so a badly broken build does
    not flood the report, and times the sweep from its own creation.

    Without a key it keeps the first ones added; with one, the smallest
    under the key, in key order, so that the report does not depend on the
    order in which a sweep finds them. Every sweep makes all of its
    refusals, and only the work that they need, before it builds its
    collector; while _admitting is set, building one raises _Admitted."""

    def __init__(self, key=None):
        if _admitting.get():
            raise _Admitted
        self.t0 = time.perf_counter()
        self.items: list = []
        self.total = 0
        self.key = key

    def add(self, payload: dict) -> None:
        self.total += 1
        self.items.append(payload)
        if len(self.items) == 2 * _MAX_COUNTEREXAMPLES:
            self.items = self._kept()

    def _kept(self) -> list:
        kept = self.items if self.key is None else sorted(
            self.items, key=self.key)
        return kept[:_MAX_COUNTEREXAMPLES]

    def report(self, statement: str, params: dict, scope: str,
               checks: int) -> VerifyReport:
        items = self._kept()
        if self.total > _MAX_COUNTEREXAMPLES:
            items.append({"truncated": True, "total_failures": self.total})
        return VerifyReport(statement, params, scope, checks, items,
                            (time.perf_counter() - self.t0) * 1e3)


def _first_mismatch(a: TruncSeries, b: TruncSeries) -> dict:
    n = min(a.prec, b.prec)
    for i in range(n + 1):
        lhs, rhs = a.coefficient(i), b.coefficient(i)
        if lhs != rhs:
            return {"degree": i, "lhs": lhs.to_json(), "rhs": rhs.to_json()}
    return {}


def desk_bounds(p: int) -> tuple[int, int]:
    """Default exhaustive-sweep bounds: the largest power of p at most 4096
    and its exponent. Where that power is p itself (64 < p <= 4096), which
    bounds no admissible quadruple, (4096, 1). p must be prime."""
    check_prime(p)
    bound, exp = p, 1
    while bound * p <= 4096:
        bound *= p
        exp += 1
    return (4096, 1) if bound == p <= 4096 else (bound, exp)


# ---------------------------------------------------------------------------
# Tasks shared with forked workers
# ---------------------------------------------------------------------------

_pooling = False  # set while a pool that forked drains: no pool nests in it


def _workers(tasks: int) -> int:
    """The worker processes a pool of tasks forks beside this one: one per
    usable CPU but this one's, and at most one per task but the first.
    None where os.fork is missing, off the main thread (only there can
    _pool set its SIGTERM handler), where another thread is alive (a fork
    would copy its locks held), or under sys.settrace or sys.setprofile,
    whose tracer or profiler would not see the workers' tasks."""
    import os
    import sys
    import threading
    if (not hasattr(os, "fork") or threading.active_count() > 1
            or threading.current_thread() is not threading.main_thread()
            or sys.gettrace() or sys.getprofile()):
        return 0
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(cpus, tasks) - 1


def _terminate(signum, frame):
    """_pool's SIGTERM handler: exit through the pool's reaping, which a
    second SIGTERM then leaves alone."""
    import signal
    signal.signal(signum, signal.SIG_IGN)
    raise SystemExit(128 + signum)


def _pool(run, order, fork: bool = True) -> list:
    """run(i) for each task index i of order, a permutation of range(n)
    with n at most 256, in this process and in _workers(n) forked workers.
    There are none when fork is false, and none in a pool opened while a
    pool with workers drains, in its process or in a worker, so that pools
    do not nest. _pooling is set only where _workers found one thread.

    Every process takes indices from one queue, a pipe of index bytes
    written in the given order. Each worker sends back its results and
    exceptions pickled, and ends with os._exit. The results come back in
    index order; as in a serial loop, the exception of the lowest failing
    index is raised. A worker that ends before it reports makes this raise
    RuntimeError, and every worker is reaped on every path: while there
    are workers, a SIGTERM raises SystemExit(143) here, so that it too
    unwinds through the reaping."""
    import os
    import pickle
    import signal
    global _pooling
    order = bytes(order)
    queue, queue_w = os.pipe()
    os.write(queue_w, order)
    os.close(queue_w)

    def drain() -> dict:
        done = {}
        while index := os.read(queue, 1):
            try:
                done[index[0]] = run(index[0])
            except Exception as exc:  # raised in index order below
                done[index[0]] = exc
        return done

    results, workers, reported, nested = {}, [], False, _pooling
    forks = _workers(len(order)) if fork and not nested else 0
    if forks:  # SIGTERM is held until every worker's pid is in workers
        sigterm = signal.signal(signal.SIGTERM, _terminate)
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        for _ in range(forks):
            _pooling = True
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(result_r)
                os.close(result_w)
                break
            if pid == 0:
                code = 1
                try:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    with open(result_w, "wb") as out:
                        out.write(pickle.dumps(drain()))
                    code = 0
                finally:
                    os._exit(code)
            os.close(result_w)
            workers.append((pid, open(result_r, "rb")))
        if forks:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results.update(drain())
        for pid, pipe in workers:
            try:
                results.update(pickle.loads(pipe.read()))
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"worker process {pid} ended before it "
                                   "reported") from None
        reported = True
    finally:
        if not nested:
            _pooling = False
        os.close(queue)
        for pid, pipe in workers:
            pipe.close()
            if not reported:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if forks:
            signal.signal(signal.SIGTERM, sigterm)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    results = [results[i] for i in range(len(order))]
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


# ---------------------------------------------------------------------------
# Series-level statements
# ---------------------------------------------------------------------------

def _check_prec(prec: int) -> None:
    """Refuse a precision below 1, which leaves a sweep no term of degree 1
    to check, or above series.MAX_PREC."""
    if prec < 1:
        raise ValueError("precision must be at least 1")
    check_prec(prec)


# The most work, checks * (prec + 32)^2, that a randomized sweep takes on,
# counting the checks of its trials as its report does: one per equivariance
# trial, six per logderiv trial and one per Teichmueller scaling of a
# Coleman trial. A check costs about (prec + 1)^2 units and, at any
# precision, about 1,000 more: at prec 1 or 2 a check took 5 to 50 us. At
# this bound the sweeps ran for 0.2 to 12.5 s in one process on fields of
# at most 256 elements (BENCH_21.json `work_limit`).
_MAX_WORK = 2 ** 28


def _check_work(sweep: str, trials: int, checks_per_trial: int, prec: int) -> None:
    """Refuse, before any work, a randomized sweep above _MAX_WORK."""
    work = max(trials, 0) * checks_per_trial * (prec + 32) ** 2
    if work > _MAX_WORK:
        raise ValueError(
            f"verify {sweep}: {trials} trials at precision {prec} are {work} "
            f"units of work (checks x (prec+32)^2), above the limit {_MAX_WORK}")


# The work, trials * prec^2, from which a randomized sweep shares its trials
# with forked workers. A fork costs about 2 ms. At 4 trials of prec 128 on
# F_4 forking lost on equivariance and Coleman and won on logderiv; from 5
# trials it won on every sweep measured (BENCH_14.json `break_even`).
_FORK_WORK = 5 * 128 ** 2


def _run_trials(bad: _Collector, trials: int, seed: int, prec: int,
                trial) -> None:
    """Run trial(rng, t) for t = 0 .. trials-1 on one random.Random(seed)
    stream. A call takes all of the trial's draws from rng and returns an
    iterator over (check, payload) for each check that fails; each
    counterexample gets the trial, the check and the seed.

    The trials run on _pool in at most 255 contiguous chunks, shared with
    forked workers once trials * prec^2 reaches _FORK_WORK. Each process
    has its own stream and pulls chunks in ascending order; it reaches the
    chunk it pulled by drawing the trials it skips, without checking them.
    A chunk gives back its first _MAX_COUNTEREXAMPLES counterexamples and
    its failure count, added here in chunk order as the serial loop would
    add them."""
    rng, drawn = random.Random(seed), 0
    n = max(trials, 0)
    chunks = min(n, 255)

    def run(i: int) -> tuple[list, int]:
        nonlocal drawn
        start, stop = n * i // chunks, n * (i + 1) // chunks
        for t in range(drawn, start):
            trial(rng, t)
        kept, failures = [], 0
        for t in range(start, stop):
            for check, payload in trial(rng, t):
                failures += 1
                if failures <= _MAX_COUNTEREXAMPLES:
                    kept.append({"trial": t, "check": check, "seed": seed,
                                 **payload})
        drawn = stop
        return kept, failures

    for kept, failures in _pool(run, range(chunks),
                                n * prec * prec >= _FORK_WORK):
        for payload in kept:
            bad.add(payload)
        bad.total += failures - len(kept)


def _action_trial(pq: PrimePower, spec: FieldSpec, prec: int, check: str,
                  omegas: list, pool: list | None = None):
    """The trial of verify_coleman's action identity at each omega of
    omegas. It draws a unit h, then gamma: X at trial 0, else 1 to 4
    series X + beta*X^(q^ell) with beta from pool (None: all of spec^*).
    A counterexample replays from its unit, gamma and omega alone."""
    def trial(rng, t):  # the draws now, the checks as they are iterated
        factors = 0 if t == 0 else 1 + (t - 1) % 4
        return checks(factors, _random_unit(spec, prec, rng),
                      _random_gamma(pq, spec, prec, rng, factors, pool=pool))

    def checks(factors, h, gamma):
        inner, gamma_inv = gamma.as_trunc(), gamma.inverse()
        psi_h = critical_projection(log_deriv(h), pq)
        for omega in omegas:
            lhs = critical_projection(
                log_deriv(h.scale_arg(omega).compose(inner)), pq)
            rhs = gamma_inv.apply_to(
                psi_h.scale_arg(omega).scale(omega.inverse()))
            if not lhs.agrees(rhs):
                yield check, {"factors": factors, "omega": omega.to_json(),
                              "gamma": gamma.to_json()["terms"],
                              "unit": [c.to_json() for c in h.coeffs],
                              **_first_mismatch(lhs, rhs)}
    return trial


def verify_equivariance(pq: PrimePower, spec: FieldSpec, prec: int = 128,
                        trials: int = 50, seed: int = 0) -> VerifyReport:
    """Flagship identity: projecting the logarithmic derivative onto
    critical exponents intertwines composition on the unit side with the
    compositional inverse acting on the projection side.

    Random units are composed with random members of the q-power
    composition group: the identity, single series X + beta*X^(q^ell), and
    products of up to four of them. This is the action check of
    verify_coleman at omega = 1.
    """
    if spec.p != pq.p:
        raise ValueError("field characteristic does not match the prime power")
    _check_prec(prec)
    if pq.q > prec:  # no X + beta*X^(q^ell) fits below the precision
        raise ValueError(f"q = {pq.q} exceeds the precision {prec}: "
                         "every gamma would be X")
    _check_work("equivariance", trials, 1, prec)
    bad = _Collector()
    _run_trials(bad, trials, seed, prec, _action_trial(
        pq, spec, prec, "equivariance", [spec.one()]))
    return bad.report(
        "projection_equivariance",
        {"p": pq.p, "lambda": pq.lam, "q": pq.q, "n": spec.n, "prec": prec,
         "trials": trials, "seed": seed},
        f"{trials} random (unit, gamma) pairs at precision {prec}", max(trials, 0))


def verify_logderiv(spec: FieldSpec, prec: int = 128, trials: int = 100,
                    seed: int = 0) -> VerifyReport:
    """Structure of the logarithmic derivative D[f] = X f'/f:

    - kernel: units supported on multiples of p map to 0, and units with a
      coefficient off the multiples of p do not;
    - homomorphism: D[f*g] = D[f] + D[g];
    - image constraint: coefficients satisfy a_(p*i) = a_i^p;
    - surjectivity onto that constraint, via the explicit section;
    - substitution of alpha*X commutes with D.
    """
    _check_prec(prec)
    _check_work("logderiv", trials, 6, prec)
    bad = _Collector()
    p, q, frob1 = spec.p, spec.order, spec._frob1
    zero = TruncSeries.zero(spec, prec)
    off_p = [i for i in range(1, prec + 1) if i % p]

    def trial(rng, t):  # all draws now, in this order
        # a unit supported on multiples of p
        ker = [0] * (prec + 1)
        ker[0] = rng.randrange(1, q)
        ker[p::p] = _draws(rng, q, prec // p)
        # a unit forced to have a coefficient off the multiples of p
        cs = list(_random_unit(spec, prec, rng).idx)
        i0 = rng.choice(off_p)
        cs[i0] = rng.randrange(1, q)
        g = _random_unit(spec, prec, rng)
        # a target that meets the image constraint
        aim = [0] * (prec + 1)
        drawn = iter(_draws(rng, q, len(off_p)))
        for i in range(1, prec + 1):
            aim[i] = next(drawn) if i % p else frob1[aim[i // p]]
        alpha = spec.random_nonzero(rng)
        return checks(ker, cs, i0, g, aim, alpha)

    def checks(ker, cs, i0, g, aim, alpha):  # the six checks, in order
        if not log_deriv(_series(spec, prec, ker)).agrees(zero):
            yield "kernel_in", {}
        f = _series(spec, prec, cs)
        df = log_deriv(f)
        if df.agrees(zero):
            yield "kernel_out", {"index": i0}
        i = next((i for i in range(1, prec // p + 1)
                  if df.idx[p * i] != frob1[df.idx[i]]), None)
        if i is not None:
            yield "image_constraint", {"index": i}
        if not log_deriv(f * g).agrees(df + log_deriv(g)):
            yield "homomorphism", {}
        target = _series(spec, prec, aim)
        if not log_deriv(solve_log_deriv(target)).agrees(target):
            yield "section", {}
        if not log_deriv(f.scale_arg(alpha)).agrees(df.scale_arg(alpha)):
            yield "argument_scaling", {"alpha": alpha.to_json()}

    _run_trials(bad, trials, seed, prec, trial)
    return bad.report(
        "logderiv_structure",
        {"p": p, "n": spec.n, "prec": prec, "trials": trials, "seed": seed},
        f"{trials} trials x 6 checks at precision {prec}", 6 * max(trials, 0))


# ---------------------------------------------------------------------------
# Digit-combinatorial statements
# ---------------------------------------------------------------------------

def _check_nonempty(sweep: str, **bounds: int) -> None:
    """Refuse, before any work, a bound below 1: the sweep would check
    nothing and pass."""
    for name, bound in bounds.items():
        if bound < 1:
            raise ValueError(f"{sweep}: {name} = {bound} leaves nothing to "
                             "check; it must be at least 1")


def _admissible_bounds(p: int, m_bound: int | None,
                       ell_bound: int | None) -> tuple[int, int]:
    """The given bounds, with desk_bounds(p) standing in for a missing one.
    Bounds that admit no quadruple are refused: every admissible quadruple
    has m >= p + 1 and ell >= 1, and (1, 2, 1, p + 1) is admissible."""
    default_m, default_ell = desk_bounds(p)
    m_bound = default_m if m_bound is None else m_bound
    ell_bound = default_ell if ell_bound is None else ell_bound
    digits.check_m_bound(m_bound)
    if m_bound <= p or ell_bound < 1:
        raise ValueError(f"m_bound = {m_bound}, ell_bound = {ell_bound}: no "
                         f"admissible quadruple, which needs m_bound > p = "
                         f"{p} and ell_bound >= 1")
    return m_bound, ell_bound


def _quad_order(payload: dict) -> tuple[int, int, int]:
    """(m, ell, j) of the quadruple of a counterexample: the order in which
    the admissible sweeps report them."""
    j, _, ell, m = payload["quad"]
    return m, ell, j


def _admissible_report(bad: _Collector, statement: str, p: int, m_bound: int,
                       ell_bound: int, count: int) -> VerifyReport:
    return bad.report(
        statement, {"p": p, "m_bound": m_bound, "ell_bound": ell_bound},
        f"all {count} admissible quadruples with m <= {m_bound}, "
        f"ell <= {ell_bound}", count)


def verify_admissible_order(p: int, m_bound: int | None = None,
                            ell_bound: int | None = None) -> VerifyReport:
    """Every admissible quadruple (j, k, ell, m) has k strictly below m in
    the digital well-ordering; and when the digit cores agree, j is forced
    to equal (p^ord(k) - 1)/(p^ell - 1), so ell divides ord(k) > 0. Each
    quadruple of admissible_blocks is checked on the digit tables."""
    m_bound, ell_bound = _admissible_bounds(p, m_bound, ell_bound)
    bad = _Collector(key=_quad_order)
    tables = digits.digit_tables(p, m_bound)
    rank, core, ordp = tables.rank, tables.core, tables.ordp
    count = 0
    for ell, j, step, ks in digits.admissible_blocks(p, m_bound, ell_bound):
        count += len(ks)
        shift = j * step
        for k in ks:
            m = k + shift
            if rank[k] >= rank[m]:
                bad.add({"quad": [j, k, ell, m], "check": "digital_order",
                         "key_k": digits.digital_key(k, p),
                         "key_m": digits.digital_key(m, p)})
            elif core[k] == core[m] and shift != p ** ordp[k] - 1:
                bad.add({"quad": [j, k, ell, m], "check": "forced_j",
                         "ord_k": ordp[k]})
    return _admissible_report(bad, "admissible_order", p, m_bound, ell_bound,
                              count)


def verify_admissible_witness(p: int, m_bound: int | None = None,
                              ell_bound: int | None = None) -> VerifyReport:
    """Every admissible quadruple admits the unique congruence witness r
    and satisfies both derived inequalities; any violation surfaces as a
    counterexample, with its payload from the public admissible_witness.
    Each quadruple is checked on the digit tables: per block, the e at
    which j has no unique witness are found once, and f + g is one table."""
    m_bound, ell_bound = _admissible_bounds(p, m_bound, ell_bound)
    bad = _Collector(key=_quad_order)
    tables = digits.digit_tables(p, m_bound)
    ordp, core = tables.ordp, tables.core
    fg = [f + g for f, g in zip(ordp, tables.gord)]
    found = {}  # by ell, then by each e in ordp: p^e and the witnesses
    count = 0
    for ell, j, step, ks in digits.admissible_blocks(p, m_bound, ell_bound):
        count += len(ks)
        shift = j * step
        if ell not in found:
            found[ell] = {e: (p ** e, digits.witness_candidates(p, e, ell))
                          for e in set(ordp)}
        no_witness = {e for e, (pe, cands) in found[ell].items()
                      if len(cands.get(j % pe, ())) != 1}
        for k in ks:
            m = k + shift
            e = ordp[m + 1]
            if e in no_witness or fg[k] < e or core[k] > core[m]:
                try:  # the public derivation gives the payload
                    digits.admissible_witness(
                        digits.AdmissibleQuadruple(j, k, ell, m), p)
                except digits.WitnessError as err:
                    bad.add(err.payload)
    return _admissible_report(bad, "admissible_witness", p, m_bound,
                              ell_bound, count)


def _check_orbit_scans(pq: PrimePower, c_bound: int = 0,
                       oracle_bound: int = 0, bound: int = 0) -> None:
    """Refuse, before any scan, a q whose orbit-minimum table, over
    [1, q*p^(2*lambda)], is above digits.MAX_ORBIT_TABLE, and user bounds
    that scan more than digits.MAX_BASE_SCAN integers. The cyclic-digits
    sweep takes lambda rotations of each c <= bound, so its bound counts
    lambda times."""
    digits.check_orbit_scan(pq.q * pq.p ** (2 * pq.lam),
                            digits.MAX_ORBIT_TABLE,
                            f"the orbit-minimum table for q = {pq.q}")
    for n, what in ((c_bound, "the orbit minima up to c_bound"),
                    (oracle_bound, "the set windows up to oracle_bound"),
                    (bound * pq.lam, "the rotations of c up to bound")):
        digits.check_orbit_scan(n, digits.MAX_BASE_SCAN, what)


def verify_orbit_min(pq: PrimePower, c_bound: int = 1000,
                     oracle_bound: int = 10000) -> VerifyReport:
    """Orbit minima stay below q; the integers of the form
    (orbit_min+1)*q^i - 1 are exactly those coprime to p whose digit core
    is minimal in their orbit; and the critical sets coincide with their
    direct-definition scans."""
    _check_nonempty("orbit-min", c_bound=c_bound, oracle_bound=oracle_bound)
    _check_orbit_scans(pq, c_bound=c_bound, oracle_bound=oracle_bound)
    bad = _Collector()
    p, lam, q = pq.p, pq.lam, pq.q
    checks = 0
    mus: dict[int, int] = {}
    for c in range(1, max(c_bound, q - 1) + 1):
        mu = orbit_min(c, pq)
        checks += 1
        if c <= c_bound and mu >= q:
            bad.add({"check": "minimum_below_q", "c": c, "mu": mu})
        if mu % p == 0 or mu % (q - 1) not in orbit_residues(c, pq):
            bad.add({"check": "minimum_in_orbit", "c": c, "mu": mu})
        if c < q:
            mus[c] = mu

    # Window comparison of the two descriptions of core-minimal integers.
    # The digital minimum of an orbit has its least core.
    scan_bound = max(oracle_bound, q * p ** (2 * lam))
    core_min = {oid: p_core(n, p)
                for oid, n in digits._orbit_min_table(pq, scan_bound).items()}
    lhs = set(digits._closure(mus.values(), q, oracle_bound))
    rhs = {n for n in range(1, oracle_bound + 1)
           if n % p and p_core(n, p) == core_min[orbit_id(n, pq)]}
    checks += 1
    if lhs != rhs:
        diff = sorted(lhs.symmetric_difference(rhs))[:10]
        bad.add({"check": "core_minimal_window", "bound": oracle_bound,
                 "difference_sample": diff})

    # The base set equals the set of orbit minima, and the full critical
    # set matches its closure under k -> q*(k+1) - 1.
    base_def = critical_base_set(pq)
    base_mu = sorted(set(mus.values()))
    checks += 1
    if base_def != base_mu:
        bad.add({"check": "base_set", "scan": base_def[:20], "minima": base_mu[:20]})
    closure = set(critical_members(pq, oracle_bound))
    by_core = {n for n in range(1, oracle_bound + 1)
               if digits.is_critical(n, pq)}
    checks += 1
    if closure != by_core:
        diff = sorted(closure.symmetric_difference(by_core))[:10]
        bad.add({"check": "critical_closure", "difference_sample": diff})

    return bad.report(
        "orbit_min_critical",
        {"p": p, "lambda": lam, "q": q, "c_bound": c_bound,
         "oracle_bound": oracle_bound},
        f"minima for c <= {c_bound}; set windows up to {oracle_bound}", checks)


def verify_cyclic_digits(pq: PrimePower, bound: int = 10000) -> VerifyReport:
    """Bounds relating reduced rotations, digit cores and orbit minima:

    - a rotation below p^i forces the rotated value to dominate the
      zero-stripped original (checked for 0 < i < lam);
    - min over rotations of the zero-stripped successor equals one plus the
      minimal rotation core, which equals one plus the core of the orbit
      minimum (the minimum taken from an independent bounded scan);
    - p^i*(orbit_min+1) - 1 leaves the orbit when i is not a multiple of
      lam;
    - the successor inequality: the zero-stripped reduced successor is at
      least one plus the core of the reduced value.

    For lam = 1 the first and third families are vacuous and reported as
    trivially passing.
    """
    _check_nonempty("cyclic-digits", bound=bound)
    _check_orbit_scans(pq, bound=bound)
    bad = _Collector()
    p, lam, q = pq.p, pq.lam, pq.q
    table = digits._orbit_min_table(pq, q * p ** (2 * lam))
    checks = 0
    for c in range(1, bound + 1):
        brs = [min_residue(c * p ** i, pq) for i in range(lam)]
        for i in range(1, lam):
            checks += 1
            if brs[i] <= p ** i - 1 and coprime_part(brs[0], p) > brs[i]:
                bad.add({"check": "rotation_bound", "c": c, "i": i,
                         "rotation": brs[i]})
        mu = table[orbit_id(c, pq)]
        lhs = min(coprime_part(min_residue(c * p ** i + 1, pq), p)
                  for i in range(lam))
        mid = 1 + min(p_core(b, p) for b in brs)
        checks += 1
        if not (lhs == mid == 1 + p_core(mu, p)):
            bad.add({"check": "successor_min", "c": c, "lhs": lhs,
                     "mid": mid, "mu": mu})
        res = orbit_residues(c, pq)
        for i in range(1, lam):
            checks += 1
            if (p ** i * (mu + 1) - 1) % (q - 1) in res:
                bad.add({"check": "shifted_min_escapes", "c": c, "i": i,
                         "mu": mu})
        checks += 1
        if coprime_part(min_residue(c + 1, pq), p) < 1 + p_core(min_residue(c, pq), p):
            bad.add({"check": "successor_inequality", "c": c})
    scope = f"all statements for c <= {bound}"
    if lam == 1:
        scope += " (rotation families vacuous at lambda=1)"
    return bad.report("cyclic_digit_bounds",
                      {"p": p, "lambda": lam, "q": q, "bound": bound},
                      scope, checks)


# ---------------------------------------------------------------------------
# The reduction identity on generators
# ---------------------------------------------------------------------------

def _coeff_pool(spec: FieldSpec) -> list:
    """Generator coefficients: every nonzero element of a field of at most
    9 elements, else g, g^2 and g^3 for the basis root g, or for g = 2 in
    a prime field (p >= 11, so the three are distinct)."""
    if spec.order <= 9:
        return list(spec.nonzero_elements())
    g = spec.gen() if spec.n > 1 else spec.scalar(2)
    return [g, g * g, g * g * g]


def verify_projection_formula(pq: PrimePower, spec: FieldSpec, prec: int = 256,
                              k_bound: int = 31, ell_bound: int = 3,
                              coeff_pool=None) -> VerifyReport:
    """On every grid generator the critical projection of the twisted orbit
    series matches its closed form; the twisted orbit series itself is
    computed twice (binomial closed form versus composing the Artin-Hasse
    series and taking the logarithmic derivative); and off the multiples of
    p every non-leading term sits in the orbit of k, strictly above k in
    the digital order."""
    p = pq.p
    if spec.p != p:
        raise ValueError("field characteristic does not match the prime power")
    _check_prec(prec)
    _check_nonempty("projection", k_bound=k_bound, ell_bound=ell_bound)
    bad = _Collector()
    if coeff_pool is None:
        coeff_pool = _coeff_pool(spec)
    ah = artin_hasse(p, prec, spec)
    checks = 0
    for k in range(1, k_bound + 1):
        if k % p == 0:
            continue
        kres = orbit_residues(k, pq)
        for ell in range(1, ell_bound + 1):
            qell = pq.q ** ell
            powers = {}  # (X + beta X^(q^ell))^k by beta
            for alpha in coeff_pool:
                for beta in coeff_pool:
                    point = {"k": k, "ell": ell, "alpha": alpha.to_json(),
                             "beta": beta.to_json()}
                    closed = twisted_orbit_series(k, alpha, ell, beta, pq, prec)
                    # definitional route: k^-1 D[E(alpha (X + beta X^(q^ell))^k)]
                    power = powers.get(beta.idx)
                    if power is None:
                        base = [0] * (prec + 1)
                        base[1] = 1
                        if qell <= prec:
                            base[qell] = beta.idx
                        power = powers[beta.idx] = _series(spec, prec, base) ** k
                    definitional = log_deriv(ah.compose(power.scale(alpha))).scale(
                        spec.scalar(k).inverse())
                    checks += 3
                    if closed != definitional:
                        bad.add({**point, "check": "dual_route",
                                 **_first_mismatch(closed, definitional)})
                    projected = critical_projection(closed, pq)
                    formula = critical_projection_formula(
                        k, alpha, ell, beta, pq, prec + 1)
                    if projected != formula:
                        bad.add({**point, "check": "projection_formula",
                                 **_first_mismatch(projected, formula)})
                    # the first term off the multiples of p out of shape
                    m = next((m for m in closed.support() if m % p and (
                        closed.idx[m] != alpha.idx if m == k
                        else m % (pq.q - 1) not in kres
                        or digital_cmp(m, k, p) != GREATER)), None)
                    if m is not None:
                        bad.add({**point, "check": "term_shape", "m": m})
    return bad.report(
        "projection_formula",
        {"p": p, "lambda": pq.lam, "q": pq.q, "n": spec.n, "prec": prec,
         "k_bound": k_bound, "ell_bound": ell_bound,
         "pool_size": len(coeff_pool)},
        f"grid k <= {k_bound} coprime to {p}, ell <= {ell_bound}, "
        f"{len(coeff_pool)}^2 coefficient pairs, precision {prec}", checks)


# ---------------------------------------------------------------------------
# Unit-group action over an unramified extension
# ---------------------------------------------------------------------------

def verify_coleman(pq: PrimePower, ext_degree: int = 1, prec: int = 128,
                   trials: int = 25, seed: int = 0) -> VerifyReport:
    """Residue model of the natural action on Coleman power series.

    Over K = F_{q^m}, units h are composed with omega*X (omega running over
    all of F_q^*, the Teichmueller representatives) and with group elements
    gamma having coefficients in F_q. The projected logarithmic derivative
    must transform by the inverse substitution and conjugation by omega:

        Psi[h(omega * gamma(X))] = gamma^{-1}(omega^{-1} Psi[h](omega X))

    Surjectivity of Psi is witnessed by hitting each basis monomial
    X^(c+1) for c in the critical base set.
    """
    p, lam, q = pq.p, pq.lam, pq.q
    if ext_degree < 1:
        raise ValueError(f"ext_degree must be >= 1, got {ext_degree}")
    _check_prec(prec)
    _check_work("coleman", trials, q - 1, prec)
    spec = field_make(p, lam * ext_degree)
    spec.elements()  # refuses a K above 4096 elements, before enumerating
    bad = _Collector()
    sub = spec.subfield_elements(lam)
    if len(sub) != q:
        raise AssertionError("subfield enumeration did not find q elements")
    sub_nonzero = [a for a in sub if a]
    _run_trials(bad, trials, seed, prec, _action_trial(
        pq, spec, prec, "action", sub_nonzero, sub_nonzero))
    witnessed = [c for c in critical_base_set(pq) if c + 1 <= prec]
    for c in witnessed:
        h = solve_log_deriv(orbit_series(c, spec.one(), prec))
        image = critical_projection(log_deriv(h), pq)
        target = TruncSeries.monomial(spec, prec + 1, c + 1, spec.one())
        if not image.agrees(target):
            bad.add({"check": "surjectivity", "c": c,
                     **_first_mismatch(image, target)})
    return bad.report(
        "coleman_equivariance",
        {"p": p, "lambda": lam, "q": q, "ext_degree": ext_degree,
         "prec": prec, "trials": trials, "seed": seed},
        f"{trials} trials x {len(sub_nonzero)} Teichmueller scalings; "
        f"{len(witnessed)} surjectivity witnesses",
        max(trials, 0) * len(sub_nonzero) + len(witnessed))


# ---------------------------------------------------------------------------
# Exploration (no pass/fail): digital leading terms of generator images
# ---------------------------------------------------------------------------

def explore_generators(pq: PrimePower, spec: FieldSpec, k_bound: int = 63,
                       prec: int = 128) -> list[dict]:
    """For each candidate generator E(alpha*X^k) of the unit group, k <=
    min(k_bound, prec) coprime to p, tabulate the digitally least exponent
    coprime to p carrying a nonzero coefficient in the logarithmic
    derivative, with its core, defect and criticality. Exploratory output
    only; draws no conclusion.

    That exponent is k, so no series is computed: E is the Artin-Hasse
    series, whose logarithmic derivative is sum_i Y^(p^i), and by the chain
    rule D[E(alpha X^k)] = k * sum_i alpha^(p^i) X^(k p^i). Its exponents
    are the k p^i, of which only k is coprime to p, and its coefficient
    k alpha is nonzero since p divides neither k nor alpha != 0."""
    p = pq.p
    if spec.p != p:
        raise ValueError("field characteristic does not match the prime power")
    pool = _coeff_pool(spec)
    rows = []
    for k in range(1, min(k_bound, prec) + 1):
        if k % p == 0:
            continue
        lead = {"lead_exponent": k, "core": p_core(k, p),
                "defect": digits.p_defect(k, p),
                "critical": digits.is_critical(k, pq)}
        rows += [{"k": k, "alpha": alpha.to_json(), **lead} for alpha in pool]
    return rows


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def _given(trials=None, **kwargs) -> dict:
    """The keyword arguments that are set, where trials of 0 is not; the
    sweep supplies the rest."""
    kwargs["trials"] = trials or None
    return {k: v for k, v in kwargs.items() if v is not None}


# Statement -> (the options its sweep reads, named as in `qcrit verify`, and
# runner(pq, spec, **options), which gets each, None where not given), in
# the order of `verify all`. None leaves the sweep's default in force, as 0
# does for trials and ell_bound. The runners look the verify_* functions up
# when they run, so a rebinding of those module attributes reaches them.
_RANDOMIZED = ("prec", "seed", "trials")
SUITES = {
    "equivariance": (_RANDOMIZED, lambda pq, spec, **o: verify_equivariance(
        pq, spec, **_given(**o))),
    "logderiv": (_RANDOMIZED, lambda pq, spec, **o: verify_logderiv(
        spec, **_given(**o))),
    "admissible-order": (("m_bound", "ell_bound"), lambda pq, spec, m_bound,
                         ell_bound: verify_admissible_order(
                             pq.p, m_bound, ell_bound or None)),
    "admissible-witness": (("m_bound", "ell_bound"), lambda pq, spec, m_bound,
                           ell_bound: verify_admissible_witness(
                               pq.p, m_bound, ell_bound or None)),
    "orbit-min": (("c_bound", "oracle_bound"), lambda pq, spec, **o:
                  verify_orbit_min(pq, **_given(**o))),
    "cyclic-digits": (("bound",), lambda pq, spec, **o: verify_cyclic_digits(
        pq, **_given(**o))),
    "projection": (("k_bound", "proj_ell_bound", "proj_prec"),
                   lambda pq, spec, proj_ell_bound, proj_prec, **o:
                   verify_projection_formula(pq, spec, **_given(
                       prec=proj_prec, ell_bound=proj_ell_bound, **o))),
    # the given extension degree, else n / lambda if lambda divides n, else 1
    "coleman": (("ext_degree", *_RANDOMIZED), lambda pq, spec, ext_degree, **o:
                verify_coleman(pq, ext_degree if ext_degree is not None else
                               spec.n // pq.lam if spec.n % pq.lam == 0 else 1,
                               **_given(**o))),
}
OPTIONS = tuple(dict.fromkeys(n for r, _ in SUITES.values() for n in r))


def _runs(statements, pq: PrimePower, spec: FieldSpec, options: dict) -> list:
    """The runner of each of statements as a call of no arguments, with the
    options of its row. options are named as in OPTIONS, else TypeError,
    and None where not given; one given that no row reads is refused."""
    rows = [SUITES[statement] for statement in statements]
    for name, value in options.items():
        if name not in OPTIONS:
            raise TypeError(f"unknown option {name!r}")
        if value is not None and all(name not in r for r, _ in rows):
            flags = ", ".join("--" + n.replace("_", "-") for n in rows[0][0])
            raise ValueError(f"verify {statements[0]} does not read "
                             f"--{name.replace('_', '-')}; it reads {flags}")
    return [partial(run, pq, spec, **{name: options.get(name) for name in r})
            for r, run in rows]


def verify_suite(statement: str, pq: PrimePower, spec: FieldSpec,
                 **options) -> VerifyReport:
    """Run the sweep of statement; `qcrit verify STATEMENT` is this run.
    An option given that the sweep does not read is refused (_runs)."""
    return _runs([statement], pq, spec, options)[0]()


def verify_all(pq: PrimePower, spec: FieldSpec,
               **options) -> list[VerifyReport]:
    """Run every suite of SUITES; `qcrit verify all` is this run. Each
    suite reads the options of its row.

    First each runner runs up to its sweep's _Collector, last suite first,
    with _admitting set: a refused option raises before any suite works.
    Then the suites run on _pool, in this process and in forked workers;
    a randomized suite runs all of its trials where it was taken. Reports
    come in SUITES order; the lowest failing suite's error is raised."""
    runs = _runs(SUITES, pq, spec, options)
    refusals = copy_context()  # a context in which _admitting is set
    refusals.run(_admitting.set, True)
    for run in reversed(runs):
        with suppress(_Admitted):
            refusals.run(run)
    # Last suite first: SUITES order leaves projection, the longest suite,
    # to the end. On two cores desk's verify all (F_4, prec 128, seeds 1
    # and 6) took 0.77 s in this order and 0.88 s in SUITES order (medians
    # of 12 alternating runs; this order faster in 9). It also keeps the
    # serial rule that no suite after a failing one starts: every later
    # suite was taken before it, and the earlier ones run to find the
    # lowest failure.
    return _pool(lambda i: runs[i](), reversed(range(len(runs))))
