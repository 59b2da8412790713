"""Command-line front end: digit queries, verification sweeps, exploration
and series arithmetic, with text or JSON output.

Exit codes: 0 for success (and for verification sweeps that pass), 1 when
a verification sweep finds a counterexample, 2 for usage errors. In JSON
mode exactly one JSON document is written to standard output. Reports
omit wall-clock timings unless --timing is given, so identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from itertools import islice
from pathlib import Path

from . import digits as dg
from . import series as sr
from . import theorems as th
from .digits import PrimePower
from .finite_field import field_make


def _prime_power(args) -> PrimePower:
    return PrimePower(args.p, args.lam)


def _field(args):
    modulus = None
    if getattr(args, "modulus", None):
        modulus = [int(c) for c in args.modulus.split(",")]
    return field_make(args.p, getattr(args, "n", 1), modulus)


def _parse_element(spec, text: str):
    if "," in text:
        return spec.element([int(c) for c in text.split(",")])
    return spec.from_index(int(text))


def _load_json(value: str) -> dict:
    if value == "-":
        return json.load(sys.stdin)
    path = Path(value)
    if path.exists():
        return json.loads(path.read_text())
    return json.loads(value)


def _digit_str(ds: list[int]) -> str:
    sep = "" if not ds or max(ds) < 10 else "."
    return sep.join(str(d) for d in ds)


# ---------------------------------------------------------------------------
# Handlers: each returns (exit_code, json_payload, text)
# ---------------------------------------------------------------------------

def _cmd_criticals(args):
    pq = _prime_power(args)
    if args.base:
        members = dg.critical_base_set(pq)
        kind = "base"
    else:
        members = dg.critical_members(pq, args.bound or pq.q)
        kind = "closure"
    payload = {"p": pq.p, "lambda": pq.lam, "q": pq.q, "kind": kind,
               "set": members}
    if kind == "closure":
        payload["bound"] = args.bound or pq.q
    label = "base critical set" if args.base else "critical integers"
    text = f"{label} for q={pq.q}: " + "{" + ", ".join(map(str, members)) + "}"
    return 0, payload, text


def _cmd_is_critical(args):
    pq = _prime_power(args)
    k = args.k
    verdict = dg.is_critical(k, pq)
    mu = dg.orbit_min(k, pq)
    rows = []
    for i in range(pq.lam):
        r = dg.min_residue(k * pq.p ** i, pq)
        row = {"i": i, "value": r,
               "digits": dg.to_digits(r, pq.p, width=pq.lam)}
        if r % pq.p:
            v = dg.coprime_part(r + 1, pq.p) - 1
            row["kept"] = True
            row["struck_value"] = v
            row["struck_digits"] = dg.to_digits(v, pq.p)
        else:
            row["kept"] = False
        rows.append(row)
    payload = {"p": pq.p, "lambda": pq.lam, "q": pq.q, "k": k,
               "critical": verdict, "mu": mu,
               "core_k": dg.p_core(k, pq.p),
               "core_mu": dg.p_core(mu, pq.p),
               "cyclic_class": rows}
    lines = [f"{k} is {''if verdict else 'not '}{pq.q}-critical "
             f"(orbit minimum {mu})"]
    for row in rows:
        s = _digit_str(row["digits"])
        if row["kept"]:
            lines.append(f"  rotate {s} -> strike -> "
                         f"{_digit_str(row['struck_digits'])} = {row['struck_value']}")
        else:
            lines.append(f"  rotate {s} -> ignore: ends in 0")
    return 0, payload, "\n".join(lines)


def _cmd_mu(args):
    pq = _prime_power(args)
    mu = dg.orbit_min(args.c, pq)
    payload = {"p": pq.p, "lambda": pq.lam, "q": pq.q, "c": args.c, "mu": mu,
               "core": dg.p_core(mu, pq.p)}
    return 0, payload, f"orbit minimum of {args.c} for q={pq.q}: {mu}"


def _cmd_core(args):
    v = dg.p_core(args.n, args.p)
    return 0, {"p": args.p, "n": args.n, "core": v}, \
        f"{args.p}-core of {args.n}: {v}"


def _cmd_defect(args):
    v = dg.p_defect(args.n, args.p)
    return 0, {"p": args.p, "n": args.n, "defect": v}, \
        f"{args.p}-defect of {args.n}: {v}"


def _cmd_cmp(args):
    c = dg.digital_cmp(args.m, args.n, args.p)
    rel = {dg.LESS: "<", dg.EQUAL: "=", dg.GREATER: ">"}[c]
    return 0, {"p": args.p, "m": args.m, "n": args.n, "cmp": c,
               "relation": rel}, f"{args.m} {rel}_{args.p} {args.n}"


def _cmd_lucas(args):
    v = dg.lucas_binom(args.m, args.k, args.p)
    return 0, {"p": args.p, "m": args.m, "k": args.k, "value": v}, \
        f"binomial({args.m}, {args.k}) mod {args.p} = {v}"


def _cmd_admissible(args):
    quads = [list(quad) for quad in islice(dg.admissible_quadruples(
        args.p, args.m_bound, args.ell_bound), args.limit or None)]
    payload = {"p": args.p, "m_bound": args.m_bound,
               "ell_bound": args.ell_bound, "count": len(quads),
               "quadruples": quads}
    lines = [f"{len(quads)} admissible quadruples (j, k, ell, m):"]
    lines += [f"  {tuple(qd)}" for qd in quads[:50]]
    if len(quads) > 50:
        lines.append(f"  ... {len(quads) - 50} more")
    return 0, payload, "\n".join(lines)


def _cmd_witness(args):
    quad = dg.AdmissibleQuadruple(args.j, args.k, args.ell, args.m)
    w = dg.admissible_witness(quad, args.p)
    payload = {"quad": list(quad),
               "witness": {"e": w.e, "f": w.f, "g": w.g, "r": w.r}}
    return 0, payload, (f"witness for {tuple(quad)}: "
                        f"e={w.e} f={w.f} g={w.g} r={w.r}")


def _cmd_verify(args):
    pq = _prime_power(args)
    spec = _field(args)
    options = {name: getattr(args, name) for name in th.OPTIONS}
    reports = (th.verify_all(pq, spec, **options) if args.statement == "all"
               else [th.verify_suite(args.statement, pq, spec, **options)])
    ok = all(r.passed for r in reports)
    payload = {"pass": ok,
               "reports": [r.to_json_dict(include_timing=args.timing)
                           for r in reports]}
    lines = []
    for r in reports:
        lines.append(r.summary(include_timing=args.timing))
        for ce in r.counterexamples[:5]:
            lines.append(f"    counterexample: {json.dumps(ce, sort_keys=True)}")
    lines.append("ALL PASS" if ok else "FAILURES FOUND")
    return (0 if ok else 1), payload, "\n".join(lines)


def _cmd_explore(args):
    sr.check_prec(args.prec)
    pq = _prime_power(args)
    spec = _field(args)
    rows = th.explore_generators(pq, spec, args.k_bound, args.prec)
    payload = {"p": pq.p, "lambda": pq.lam, "q": pq.q, "n": spec.n,
               "k_bound": args.k_bound, "prec": args.prec, "rows": rows}
    lines = [f"{len(rows)} generator rows (k, alpha, lead, core, defect, critical):"]
    for row in rows:
        lines.append(f"  k={row['k']:>5} alpha={row['alpha']} "
                     f"lead={row['lead_exponent']:>6} core={row['core']:>5} "
                     f"defect={row['defect']:>2} "
                     f"{'critical' if row['critical'] else ''}")
    return 0, payload, "\n".join(lines)


# series eval --kind: name -> (whether it needs --lambda, builder)
_SERIES_KINDS = {
    "artin-hasse": (False, lambda args, spec, pq: sr.artin_hasse(
        args.p, args.prec, spec)),
    "orbit": (False, lambda args, spec, pq: sr.orbit_series(
        args.k, _parse_element(spec, args.alpha), args.prec)),
    "twisted-orbit": (True, lambda args, spec, pq: sr.twisted_orbit_series(
        args.k, _parse_element(spec, args.alpha), args.ell,
        _parse_element(spec, args.beta), pq, args.prec)),
    "projection-formula": (True, lambda args, spec, pq: (
        sr.critical_projection_formula(
            args.k, _parse_element(spec, args.alpha), args.ell,
            _parse_element(spec, args.beta), pq, args.prec))),
    "random-unit": (False, lambda args, spec, pq: sr.random_unit(
        spec, args.prec, args.seed)),
    "random-gamma": (True, lambda args, spec, pq: sr.random_gamma(
        pq, spec, args.prec, args.seed, args.factors)),
}


def _trunc(document: str) -> sr.TruncSeries:
    return sr.TruncSeries.from_json(_load_json(document))


# the other series operations, on documents that carry their own field
_SERIES_OPS = {
    "compose": lambda args: _trunc(args.f).compose(_trunc(args.g)),
    "invert": lambda args: sr.AdditiveSeries.from_json(
        _load_json(args.g)).inverse(),
    "logderiv": lambda args: sr.log_deriv(_trunc(args.f)),
    # keywords are evaluated as written: q is checked before the document
    "psi": lambda args: sr.critical_projection(pq=_prime_power(args),
                                               t=_trunc(args.f)),
}


def _cmd_series(args):
    if args.series_op == "eval":
        sr.check_prec(args.prec)
        pq = None if args.lam is None else _prime_power(args)
        spec = _field(args)
        needs_lambda, build = _SERIES_KINDS[args.kind]
        if pq is None and needs_lambda:
            raise ValueError(f"series kind {args.kind!r} requires --lambda")
        out = build(args, spec, pq)
    else:
        out = _SERIES_OPS[args.series_op](args)
    return 0, out.to_json(), str(out)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_INT = {"type": int}
_P = ("--p", {"type": int, "required": True, "help": "prime"})
_LAMBDA = ("--lambda", {"dest": "lam", "type": int, "required": True,
                        "help": "exponent: q = p^lambda"})
_FIELD = (("--n", {"type": int, "default": 1,
                   "help": "coefficient field degree over F_p"}),
          ("--modulus", {"help": "comma-separated modulus coefficients, ascending"}))
_DOC = {"required": True, "help": "JSON document, file path, or - for stdin"}

# command -> (help, arguments), each argument a name and its add_argument
# keywords; a command whose second item is a dict has subcommands, and
# that dict is their table. Each command runs the _cmd_* of its name.
_COMMANDS = {
    "criticals": ("list critical integers", [
        _P, _LAMBDA, ("--base", {"action": "store_true",
                                 "help": "base set only (members below q)"}),
        ("--bound", {"type": int, "default": None,
                     "help": "upper bound for the full set (default q)"})]),
    "is-critical": ("criticality test with the cyclic digit table",
                    [("k", _INT), _P, _LAMBDA]),
    "mu": ("digital minimum of a residue orbit", [("c", _INT), _P, _LAMBDA]),
    "core": ("digit core", [("n", _INT), _P]),
    "defect": ("digit defect", [("n", _INT), _P]),
    "cmp": ("digital well-ordering comparison", [("m", _INT), ("n", _INT), _P]),
    "lucas": ("binomial coefficient mod p", [("m", _INT), ("k", _INT), _P]),
    "witness": ("carry witness of an admissible quadruple", [
        ("j", _INT), ("k", _INT), ("ell", _INT), ("m", _INT), _P]),
    "admissible": ("enumerate admissible quadruples", [
        _P, ("--m-bound", {"type": int, "default": 64}),
        ("--ell-bound", {"type": int, "default": 8}),
        ("--limit", {"type": int, "default": 0,
                     "help": "stop after this many (0 = no limit)"})]),
    "verify": ("run verification sweeps", [
        ("statement", {"choices": ("all", *th.SUITES)}), _P, _LAMBDA, *_FIELD,
        # unset options leave each sweep's own default in force
        *[("--" + name.replace("_", "-"), {"type": int, "default": None,
            "help": "read by " + ", ".join(
                s for s, (reads, _) in th.SUITES.items() if name in reads)})
          for name in th.OPTIONS],
        ("--timing", {"action": "store_true",
                      "help": "include wall-clock timings in text and JSON output"})]),
    "explore": ("tabulate digital leading terms of generator images", [
        _P, _LAMBDA, *_FIELD, ("--k-bound", {"type": int, "default": 63}),
        ("--prec", {"type": int, "default": 128})]),
    "series": ("series arithmetic on JSON documents", {
        "eval": ("build a named series", [
            ("--kind", {"required": True, "choices": tuple(_SERIES_KINDS)}),
            _P, ("--lambda", {"dest": "lam", "type": int, "default": None}),
            *_FIELD, ("--prec", {"type": int, "default": 32}),
            ("--k", {"type": int, "default": 1}),
            ("--ell", {"type": int, "default": 1}),
            ("--alpha", {"default": "1", "help": "element: index or "
                         "comma-separated coordinates"}),
            ("--beta", {"default": "1"}), ("--seed", {"type": int, "default": 0}),
            ("--factors", {"type": int, "default": 2})]),
        "compose": ("composition f(g)", [("--f", _DOC), ("--g", _DOC)]),
        "invert": ("compositional inverse", [("--g", _DOC)]),
        "logderiv": ("logarithmic derivative X f'/f", [("--f", _DOC)]),
        "psi": ("critical projection", [("--f", _DOC), _P, _LAMBDA])}),
}


def _add_commands(parser, table: dict, dest: str, out_opts) -> None:
    """A subparser under dest for each command of table and its arguments."""
    cmds = parser.add_subparsers(dest=dest, required=True)
    for name, (text, arguments) in table.items():
        sub = cmds.add_parser(name, parents=[out_opts], help=text)
        if isinstance(arguments, dict):
            _add_commands(sub, arguments, name + "_op", out_opts)
        else:
            for flag, keywords in arguments:
                sub.add_argument(flag, **keywords)


def build_parser() -> argparse.ArgumentParser:
    # The output options are accepted both before and after the subcommand;
    # the subcommand copies use SUPPRESS so they never clobber a value
    # parsed at the top level.
    out_opts = argparse.ArgumentParser(add_help=False)
    out_opts.add_argument("--format", choices=("text", "json"),
                          default=argparse.SUPPRESS,
                          help="output format (env QCRIT_FORMAT)")
    out_opts.add_argument("--output", type=str, default=argparse.SUPPRESS,
                          help="write output to this file instead of stdout")
    parser = argparse.ArgumentParser(
        prog="qcrit",
        description="Digit combinatorics and power series over finite "
                    "fields, with verification sweeps.")
    # no default: main reads QCRIT_FORMAT on every call
    parser.add_argument("--format", choices=("text", "json"),
                        help="output format (env QCRIT_FORMAT)")
    parser.add_argument("--output", type=str, default=None,
                        help="write output to this file instead of stdout")
    _add_commands(parser, _COMMANDS, "command", out_opts)
    return parser


@lru_cache(maxsize=1)
def _parser_built_by(build) -> argparse.ArgumentParser:
    return build()


def main(argv=None) -> int:
    # Parsing leaves the parser as it was, so one serves every call. It is
    # keyed on the current build_parser, so that rebinding that name (as a
    # tracer does) gets a parser built through the new binding.
    parser = _parser_built_by(build_parser)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # found by name on every call, so a rebound _cmd_* takes effect
        handler = globals()["_cmd_" + args.command.replace("-", "_")]
        code, payload, text = handler(args)
    except (ValueError, ZeroDivisionError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fmt = args.format or os.environ.get("QCRIT_FORMAT", "text")
    rendered = json.dumps(payload, sort_keys=True) if fmt == "json" else text
    if args.output:
        Path(args.output).write_text(rendered + "\n")
    else:
        print(rendered)
    return code
