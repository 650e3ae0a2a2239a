"""Batch experiment runner.

Each subcommand is declared once in COMMANDS: typed parameters (coercer from
text, default, canonical printer) beside a handler that returns result rows.
The parser, key=value tokens, --config and `sweep` derive from that table.
Simple queries (classify, solve, obstruct, verify-coloring, omega, distance,
ring, weights, divstat, folner) take flags; experiments (concentrate, tk,
ldelta, probe-nonneg, correlate, levelset) read key=value tokens and/or a
--config file, with unknown keys rejected.  `sweep --sub SUB` runs any
subcommand over comma-listed values of one parameter, the others given as
key=value tokens named like the flags with dashes turned into underscores.

Each row's run id hashes the subcommand and its canonical typed values
(n=0150 and n=150 share one), not --out, --format, --threads, --cap-n or the
--config path; reruns of a spec give identical bytes.  Floats print with
shortest round-trip formatting.  Exit codes: 0 ok, 2 usage (malformed values
included), 3 resource cap, 4 internal invariant.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from types import SimpleNamespace
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from . import averaging, experiments, multfunc, quadrings, regularity
from . import caps
from .errors import DomainError, InvariantError, ResourceError
from .multfunc import TwistData, dirichlet_character, function_from_name
from .quadforms import (
    construct_congruence_pair,
    hensel_lift,
    local_root_count,
    local_root_count_fast,
    parse_form,
    parse_linear_form,
    partner_prime_sets,
)


# --------------------------------------------------------------------------
# spec handling: parameter kinds (text -> typed value -> canonical text),
# parameters, the command table and the resolver
# --------------------------------------------------------------------------


class Kind(NamedTuple):
    """Text -> typed value (parse) -> canonical text for the run id (show).
    nargs: words a flag takes if not one; 0 is a switch (its text "true"),
    2 a pair (its words joined with ';')."""

    parse: Callable[[str], Any]
    show: Callable[[Any], str] = str
    choices: tuple = ()
    nargs: int | None = None


def _ints(s: str, count: int, sep: str = ",") -> tuple[int, ...]:
    items = tuple(int(x) for x in s.split(sep))
    if len(items) != count:
        raise ValueError(f"expected {count} integers separated by {sep!r}")
    return items


def _factors(s: str) -> list[tuple]:
    """liouville@[1,0];liouville@[0,1]"""
    out = []
    for item in s.split(";"):
        if item.strip():
            fname, lform = item.split("@")
            out.append((function_from_name(fname.strip()), parse_linear_form(lform.strip())))
    return out


def _chi(s: str):
    q, idx = _ints(s, 2, ":")
    return dirichlet_character(q, idx)


def _pair(kind: Kind) -> Kind:
    """Two values of kind, written F1;F2 (two words as a flag)."""

    def parse(s: str) -> tuple:
        first, second = s.split(";")
        return kind.parse(first), kind.parse(second)

    return Kind(parse, lambda pair: ";".join(map(kind.show, pair)), nargs=2)


def _join(show: Callable[[Any], str], sep: str = ",") -> Callable[[Sequence], str]:
    return lambda items: sep.join(map(show, items))


INT = Kind(int)
FLOAT = Kind(float, repr)
TEXT = Kind(str)
COMPLEX = Kind(complex, repr)
FORM = Kind(parse_form)
FUNC = Kind(function_from_name, lambda f: f.description)
COLORING = Kind(regularity.coloring_from_name, lambda c: c.spec_string())
# every list of integers is read as a set: a repeat is dropped, so it cannot move the run id
INTS = Kind(lambda s: list(dict.fromkeys(int(x) for x in s.split(",") if x.strip())), _join(str))
FLOATS = Kind(lambda s: [float(x) for x in s.split(",")], _join(repr))
CHI = Kind(_chi, lambda chi: chi.label.split(":", 1)[1])  # q:index
FACTORS = Kind(_factors, _join(lambda fl: f"{fl[0].description}@{fl[1]}", ";"))
ELEMENT = Kind(quadrings.parse_element, lambda e: f"{e[0]}{e[1]:+d}*tau")
HENSEL = Kind(lambda s: _ints(s, 3), _join(str))
EXPONENTS = Kind(  # p:l,p:l
    lambda s: dict(_ints(x, 2, ":") for x in s.split(",") if x.strip()),
    lambda e: ",".join(f"{p}:{l}" for p, l in e.items()),
)
REGION = Kind(  # u,v;u,v: half-planes u*x + v*y >= 0; none is the full quadrant
    lambda s: experiments.RegionSpec(tuple(_ints(x, 2) for x in s.split(";")) if s.strip() else ()),
    lambda r: ";".join(f"{u},{v}" for u, v in r.halfplanes),
)
SWITCH = Kind({"true": True, "false": False}.__getitem__, lambda b: str(b).lower(), nargs=0)

REQUIRED: Any = object()  # the default of a parameter that must be given


class Param(NamedTuple):
    """One parameter: its key=value name (the flag is --name with dashes),
    its kind, and its default text (None: absent unless given)."""

    name: str
    kind: Kind
    default: Any = REQUIRED
    positional: bool = False
    help: str | None = None


class Command(NamedTuple):
    handler: Callable[[SimpleNamespace, int], list[dict]]  # (values, threads) -> rows
    params: tuple[Param, ...]
    key_value: bool  # key=value tokens and --config rather than flags
    modes: tuple[str, ...]  # flag parameters that each pick a mode: at most one may be given


COMMANDS: dict[str, Command] = {}


def command(name: str, *params: Param, key_value: bool = False, modes: tuple[str, ...] = ()):
    """Register the decorated handler(values, threads) -> rows as `name`."""

    def register(handler):
        COMMANDS[name] = Command(handler, params, key_value, modes)
        return handler

    return register


def _abc(default: Any = REQUIRED) -> tuple[Param, ...]:
    return tuple(Param(x, INT, default, positional=True) for x in "abc")


def _triple(v) -> regularity.EquationTriple:
    return regularity.EquationTriple(v.a, v.b, v.c)


def parse_kv_text(text: str) -> dict[str, str]:
    """key = value lines; blank lines and # comments are skipped."""
    return _key_value_items(line.split("#", 1)[0] for line in text.splitlines())


def _key_value_items(items) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in items:
        if not item.strip():
            continue
        if "=" not in item:
            raise DomainError(f"expected key=value, got {item.strip()!r}")
        key, val = item.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def resolve_spec(subcommand: str, raw: Mapping[str, str]) -> tuple[SimpleNamespace, str, str]:
    """Coerce raw texts against the subcommand's parameters.

    Returns (typed values, canonical spec text, run id).  Unknown keys, two
    of the command's modes, missing required keys and malformed values are
    usage errors.  The canonical text lists each parameter that has a value,
    sorted by name, as its kind prints it; the run id hashes that text.
    """
    cmd = COMMANDS[subcommand]
    unknown = set(raw) - {p.name for p in cmd.params}
    if unknown:
        raise DomainError(f"unknown keys for {subcommand}: {sorted(unknown)}")
    given = ["--" + name.replace("_", "-") for name in cmd.modes if name in raw]
    if len(given) > 1:  # the handler would use one of them, yet the run id would hash all
        raise DomainError(f"{' and '.join(given)} exclude each other")
    values: dict[str, Any] = {}
    lines = [subcommand + "\n"]
    for p in sorted(cmd.params, key=lambda p: p.name):
        text = raw.get(p.name, p.default)
        if text is REQUIRED:
            raise DomainError(f"{subcommand} requires {p.name}=")
        values[p.name] = None
        if text is None:
            continue
        try:
            value = p.kind.parse(text)
        except (ValueError, LookupError) as exc:  # DomainError is a ValueError
            raise DomainError(f"bad value {p.name}={text!r}: {exc}") from exc
        if p.kind.choices and value not in p.kind.choices:
            raise DomainError(f"{p.name} must be one of {list(p.kind.choices)}, got {text!r}")
        values[p.name] = value
        lines.append(f"{p.name} = {p.kind.show(value)}\n")
    canonical = "".join(lines)
    run_id = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    return SimpleNamespace(**values), canonical, run_id


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------


def _jsonable(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _format_rows(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return "\n".join(json.dumps(_jsonable(r), sort_keys=True) for r in rows) + "\n"
    buf = io.StringIO()
    fields = list(dict.fromkeys(k for r in rows for k in r))
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for r in rows:
        flat = {}
        for k, v in r.items():
            if isinstance(v, complex):
                flat[k] = repr(v.real) + "+" + repr(v.imag) + "j"
            elif isinstance(v, float):
                flat[k] = repr(v)
            elif isinstance(v, (dict, list, tuple)):
                flat[k] = json.dumps(_jsonable(v), sort_keys=True)
            else:
                flat[k] = v
        writer.writerow(flat)
    return buf.getvalue()


def emit(rows: list[dict], fmt: str, out_path: str | None) -> None:
    try:
        text = _format_rows(rows, fmt)
    except ValueError as exc:  # an int past Python's limit on decimal digits
        raise ResourceError(f"cannot print the result: {exc}") from exc
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out_path)), prefix=".qpairs-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, out_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DomainError(f"cannot write --out {out_path}: {exc.strerror}") from exc


# --------------------------------------------------------------------------
# commands: simple queries take flags, experiments key=value tokens
# --------------------------------------------------------------------------


@command("classify", *_abc(),
         Param("pair", Kind(str, choices=("xy", "xz", "yz")), "xy"),
         Param("prime_limit", INT, "100000"))
def _classify(v, threads):
    verdict = regularity.classify(_triple(v), v.pair, v.prime_limit)
    return [{"quantity": "pair_regularity_verdict", **verdict.to_dict()}]


@command("solve", *_abc(), Param("family", TEXT, "auto"),
         Param("k", INT, "1"), Param("m", INT, "2"), Param("n", INT, "1"))
def _solve(v, threads):
    tag, gen = regularity.parametric_family(_triple(v), v.family)
    x, y, z = gen(v.k, v.m, v.n)
    return [{
        "quantity": "parametric_solution", "family": tag, "x": x, "y": y, "z": z,
        "check": v.a * x * x + v.b * y * y == v.c * z * z,
    }]


@command("obstruct", *_abc("1"), Param("prime_limit", INT, "100000"),
         Param("split", _pair(INTS), None,
               help="F1 F2: comma lists of primes or -1: residues, nonresidues"))
def _obstruct(v, threads):
    if v.split:
        p = regularity.find_split_prime(*v.split, v.prime_limit)
        return [{"quantity": "residue_split_prime", "prime": p}]
    p = regularity.find_qr_obstruction(_triple(v), v.prime_limit)
    return [{"quantity": "residue_obstruction_prime", "prime": p}]


@command("verify-coloring", *_abc(),
         Param("coloring", COLORING, help="rado:P | two-adic | dyadic:L"),
         Param("bound", INT, "2000"))
def _verify_coloring(v, threads):
    rep = regularity.verify_no_monochromatic(_triple(v), v.coloring, v.bound)
    return [{
        "quantity": "monochromatic_pair_count", "solutions": rep.solution_count,
        "monochromatic": rep.monochromatic_count,
        "first_counterexample": rep.first_counterexample,
    }]


@command("omega", Param("form", FORM), Param("modulus", INT, "2"),
         Param("fast", SWITCH, "false"), Param("hensel", HENSEL, None, help="p,root,k"),
         Param("partner", FORM, None, help="second form literal"),
         Param("congruence_pair", FORM, None, help="second form literal"),
         Param("r", INT, "1"), Param("exponents", EXPONENTS, None, help="p:l,p:l"),
         modes=("hensel", "partner", "congruence_pair", "fast"))
def _omega(v, threads):
    if v.hensel:
        return [{"quantity": "hensel_lift", "lift": hensel_lift(v.form, *v.hensel)}]
    if v.partner is not None:
        p1, p2 = partner_prime_sets(v.form, v.partner, v.modulus)
        return [{"quantity": "partner_prime_sets", "set1": p1, "set2": p2}]
    if v.congruence_pair is not None:
        pair = construct_congruence_pair(
            v.form, v.congruence_pair, v.r, v.modulus, v.exponents or {}
        )
        return [{
            "quantity": "congruence_pair",
            "a": pair.a, "b": pair.b, "q": pair.q, "q1": pair.q1, "q2": pair.q2,
        }]
    if v.fast:
        count, method = local_root_count_fast(v.form, v.modulus), "residue"
    else:
        count, method = local_root_count(v.form, v.modulus), "direct"
    return [{"quantity": "local_root_count", "count": count, "method": method}]


@command("distance", Param("f", FUNC), Param("g", FUNC, "principal"),
         Param("x", FLOAT, "1.0"), Param("y", FLOAT, None), Param("form", FORM, None),
         Param("profile", FLOATS, None, help="comma list of cutoffs"), modes=("y", "profile"))
def _distance(v, threads):
    if v.profile:
        profile = multfunc.distance_profile(v.f, v.g, v.profile, v.form)
        return [{"quantity": "distance_profile", "y": y, "value": d} for y, d in profile]
    if v.y is None:
        raise DomainError("distance needs --y (or --profile)")
    if v.form is not None:
        val, kind = multfunc.distance_form(v.form, v.f, v.g, v.x, v.y), "form_weighted"
    else:
        val, kind = multfunc.distance(v.f, v.g, v.x, v.y), "plain"
    return [{"quantity": "pretentious_distance", "kind": kind, "value": val}]


@command("ring",
         Param("action", Kind(str, choices=(
             "norm", "count-solutions", "count-ideals", "unit", "regular", "associate")),
             positional=True),
         Param("d", INT), Param("element", ELEMENT, "1"), Param("k", INT, "1"),
         Param("box", INT, "40"), Param("c_bound", FLOAT, "2.0"), Param("t_range", INT, "5"))
def _ring(v, threads):
    z = quadrings.QuadraticRing(v.d).element(*v.element)
    if v.action == "norm":
        return [{"quantity": "ring_norm", "value": z.norm()}]
    if v.action == "count-solutions":
        count = quadrings.count_norm_solutions(v.d, v.k, v.box)
        return [{"quantity": "norm_solution_count", "count": count}]
    if v.action == "count-ideals":
        return [{"quantity": "ideal_count", "count": quadrings.count_ideals(v.d, v.k)}]
    if v.action == "unit":
        u, nrm = quadrings.fundamental_unit(v.d)
        return [{"quantity": "fundamental_unit", "m": u.m, "n": u.n, "norm": nrm}]
    if v.action == "regular":
        ok = quadrings.is_regular(z, v.c_bound, v.box)
        return [{"quantity": "box_regularity", "regular": ok}]
    found = quadrings.find_regular_associate(z, v.c_bound, v.box, v.t_range)
    if found is None:
        return [{"quantity": "regular_associate", "found": False}]
    assoc, t, sign = found
    return [{
        "quantity": "regular_associate", "found": True,
        "m": assoc.m, "n": assoc.n, "t": t, "sign": sign,
    }]


@command("weights", Param("p1", FORM), Param("p2", FORM), Param("delta", FLOAT), Param("n", INT))
def _weights(v, threads):
    est = averaging.mu_estimate(averaging.WeightSpec(v.delta, v.p1, v.p2), v.n, threads)
    return [{
        "quantity": "weight_mean",
        "grid": est.grid, "riemann": est.riemann, "agreement": est.agreement,
    }]


@command("divstat", Param("form", FORM), Param("primes", INTS, None, help="comma list"),
         Param("bound_l", INT, None, help="probe l | P(Qm+a,Qn+b) against Q^2/l instead"),
         Param("q", INT, "1"), Param("a", INT, "0"), Param("b", INT, "0"), Param("n", INT, "2000"),
         modes=("primes", "bound_l"))
def _divstat(v, threads):
    if v.bound_l:
        exact, reference = averaging.divisor_bound_probe(
            v.form, v.q, v.a, v.b, v.bound_l, v.n, threads
        )
        return [{
            "quantity": "divisor_bound_probe",
            "l": v.bound_l, "exact": exact, "reference": reference,
        }]
    if not v.primes:
        raise DomainError("divstat needs --primes or --bound-l")
    rows = []
    for i, p in enumerate(v.primes):
        for p2 in v.primes[i:]:
            exact = averaging.divisor_stat_exact(v.form, v.q, v.a, v.b, p, p2, v.n, threads)
            try:
                pred = averaging.divisor_stat_predicted(v.form, p, p2, v.q)
            except DomainError:  # outside the predicted regime: null
                pred = None
            rows.append({
                "quantity": "exact_divisibility_frequency",
                "p": p, "q": p2, "exact": exact, "predicted": pred,
                "abs_err": None if pred is None else abs(exact - pred),
            })
    return rows


@command("folner", Param("k", INT), Param("f", FUNC, "principal"),
         Param("partner", _pair(FORM), None, help="P1 P2: two form literals"),
         Param("j", Kind(int, choices=(1, 2)), "1"))
def _folner(v, threads):
    if v.partner:
        box = averaging.folner_partner(v.k, v.j, *v.partner)
        return [{
            "quantity": "folner_partner_box", "j": v.j, "size": len(box),
            "elements": [dict(e.exponents) for e in box],
        }]
    mean = averaging.folner_average(v.f, v.k)
    return [{
        "quantity": "folner_mean", "mean_re": mean.real, "mean_im": mean.imag,
        "box_size": len(averaging.folner_enumerate(v.k)),
    }]


@command("concentrate", Param("form", FORM), Param("f", FUNC), Param("chi", CHI, "1:0"),
         Param("t", FLOAT, "0"), Param("q", INT), Param("a", INT, "1"), Param("b", INT, "0"),
         Param("c", INT, "1"), Param("k", INT), Param("n", INT), key_value=True)
def _concentrate(v, threads):
    twist = TwistData(v.t, v.chi)
    setup = experiments.concentration_setup(v.form, v.f, twist, v.q, v.a, v.b, v.c, v.k, v.n)
    g = experiments.concentration_exponent_form(v.form, v.f, twist, v.k, v.n)
    g_linear = experiments.concentration_exponent(v.f, twist, v.k, v.n)
    lhs = experiments.concentration_lhs(setup, threads)
    return [{
        "quantity": "concentration_deviation_mean",
        "lhs": lhs, "exponent": g, "exponent_linear": g_linear, "n": v.n, "k": v.k,
    }]


@command("tk", Param("form", FORM), Param("q", INT), Param("a", INT, "1"), Param("b", INT, "0"),
         Param("c", INT, "1"), Param("k", INT), Param("n", INT), Param("h_primes", INTS),
         Param("h_value", COMPLEX, "1"), key_value=True)
def _tk(v, threads):
    setup = experiments.concentration_setup(
        v.form, multfunc.one(), experiments.principal_twist(), v.q, v.a, v.b, v.c, v.k, v.n
    )
    h = multfunc.additive_from_prime_values({p: v.h_value for p in v.h_primes})
    rep = experiments.turan_kubilius_variance(setup, h, threads)
    return [{
        "quantity": "additive_variance",
        "variance": rep.variance, "predicted_mean": rep.predicted_mean,
        "dist_sq_low": rep.dist_sq_low, "dist_sq_high": rep.dist_sq_high,
        "k_term": rep.k_term,
    }]


@command("ldelta", Param("f", FUNC), Param("p1", FORM), Param("p2", FORM),
         Param("delta", FLOAT, "0.3"), Param("q", INT, "1"), Param("a", INT, "1"),
         Param("b", INT, "0"), Param("n", INT),
         Param("mode", Kind(str, choices=("weighted", "pair")), "weighted"), key_value=True)
def _ldelta(v, threads):
    if v.mode == "pair":
        val = experiments.pair_correlation(v.f, v.p1, v.p2, v.q, v.a, v.b, v.n, threads)
        quantity = "pair_correlation"
    else:
        val = experiments.weighted_pair_average(
            v.f, v.p1, v.p2, v.delta, v.q, v.a, v.b, v.n, threads
        )
        quantity = "weighted_pair_average"
    return [{"quantity": quantity, "value": val, "abs": abs(val), "n": v.n}]


@command("probe-nonneg", Param("f", FUNC), Param("p1", FORM), Param("p2", FORM),
         Param("delta", FLOAT, "0.1"), Param("k", INT, "2"), Param("n", INT), key_value=True)
def _probe_nonneg(v, threads):
    val = experiments.nonnegativity_probe(v.f, v.p1, v.p2, v.delta, v.k, v.n, threads)
    return [{"quantity": "folner_mean_real_part", "value": val, "k": v.k, "n": v.n}]


@command("correlate", Param("factors", FACTORS), Param("g", FUNC, "principal"),
         Param("form", FORM), Param("region", REGION, ""), Param("q", INT, "1"),
         Param("a", INT, "0"), Param("b", INT, "0"), Param("n", INT), key_value=True)
def _correlate(v, threads):
    val = experiments.correlation_probe(
        v.factors, v.g, v.form, v.region, v.q, v.a, v.b, v.n, threads
    )
    return [{"quantity": "correlation_mean", "value": val, "abs": abs(val), "n": v.n}]


@command("levelset", Param("f", FUNC), Param("arc", FLOAT), Param("p1", FORM), Param("p2", FORM),
         Param("kmax", INT, "500"), Param("mnmax", INT, "60"), Param("lmax", INT, "40"),
         key_value=True)
def _levelset(v, threads):
    spec = experiments.LevelSetSpec(v.f, v.arc, v.lmax)
    hit = experiments.level_set_search(spec, v.p1, v.p2, v.kmax, v.mnmax)
    if hit is None:
        return [{"quantity": "level_set_hit", "found": False}]
    return [{
        "quantity": "level_set_hit", "found": True, "k": hit.k, "m": hit.m, "n": hit.n,
        "value1": hit.value1, "value2": hit.value2,
        "f_at_k1": hit.f_at_k1, "f_at_k2": hit.f_at_k2, "surrogate": hit.surrogate,
    }]


# --------------------------------------------------------------------------
# argument parsing, derived from COMMANDS
# --------------------------------------------------------------------------


def _global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # present on the main parser and on every subparser, so they are accepted
    # in either position; SUPPRESS keeps subparsers from clobbering values
    # already parsed at the top level
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--threads", type=int, default=1 if not suppress else d)
    parser.add_argument("--cap-n", type=int, default=d,
                        help="override grid/enumeration caps")
    parser.add_argument("--out", default=d, help="write results to this path (atomic)")
    parser.add_argument("--format", choices=("json", "csv"),
                        default="json" if not suppress else d)


def _key_value_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("params", nargs="*", help="key=value tokens")
    parser.add_argument("--config", default=None, help="key = value file")


def _add_param(parser: argparse.ArgumentParser, p: Param) -> None:
    # every value stays text, and an absent one stays absent (SUPPRESS), so
    # that resolve_spec alone coerces values and fills defaults
    kw: dict[str, Any] = {"default": argparse.SUPPRESS, "help": p.help}
    if p.kind.choices:
        kw["metavar"] = "{" + ",".join(map(str, p.kind.choices)) + "}"
    if p.positional:
        parser.add_argument(p.name, nargs=None if p.default is REQUIRED else "?", **kw)
        return
    if p.kind.nargs == 0:
        kw.update(action="store_const", const="true")
    else:
        kw.update(nargs=p.kind.nargs, required=p.default is REQUIRED)
    parser.add_argument("--" + p.name.replace("_", "-"), **kw)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qpairs", description=__doc__)
    _global_flags(top, suppress=False)
    subs = top.add_subparsers(dest="subcommand", required=True)
    for name, cmd in COMMANDS.items():
        parser = subs.add_parser(name)
        _global_flags(parser, suppress=True)
        if cmd.key_value:
            _key_value_args(parser)
        else:
            for p in cmd.params:
                _add_param(parser, p)
    parser = subs.add_parser("sweep")
    _global_flags(parser, suppress=True)
    parser.add_argument("--sub", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--axis", required=True, help="key=value name of the swept parameter")
    parser.add_argument("--values", required=True, help="comma list of axis values")
    _key_value_args(parser)
    return top


def _key_values(args) -> dict[str, str]:
    """The --config file's values, overridden by the key=value tokens."""
    raw: dict[str, str] = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = parse_kv_text(fh.read())
        except OSError as exc:
            raise DomainError(f"cannot read --config {args.config}: {exc.strerror}") from exc
    return {**raw, **_key_value_items(args.params)}


def _runs(args) -> list[tuple[str, dict[str, str], dict[str, str]]]:
    """(subcommand, raw texts, fields appended to its rows) per run of argv."""
    if args.subcommand != "sweep":
        cmd = COMMANDS[args.subcommand]
        if cmd.key_value:
            return [(args.subcommand, _key_values(args), {})]
        texts = {p.name: getattr(args, p.name) for p in cmd.params if hasattr(args, p.name)}
        raw = {k: ";".join(t) if isinstance(t, list) else t for k, t in texts.items()}
        return [(args.subcommand, raw, {})]
    raw = _key_values(args)
    if args.axis not in {p.name for p in COMMANDS[args.sub].params}:
        raise DomainError(f"{args.axis} is not a parameter of {args.sub}")
    points = [v.strip() for v in args.values.split(",") if v.strip()]
    if not points:
        raise DomainError("empty sweep value list")
    return [(args.sub, {**raw, args.axis: v}, {"axis": args.axis, "axis_value": v})
            for v in points]


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    capped = {} if args.cap_n is None else {"grid_n": args.cap_n, "enumerate_bound": args.cap_n}
    try:
        with caps.override(**capped):
            # every spec of a sweep resolves before the first one runs
            specs = [(sub, *resolve_spec(sub, raw), extra) for sub, raw, extra in _runs(args)]
            rows = [{"run_id": run_id, **row, **extra}
                    for sub, values, _, run_id, extra in specs
                    for row in COMMANDS[sub].handler(values, args.threads)]
            emit(rows, args.format, args.out)
        return 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
