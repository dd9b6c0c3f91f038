"""Command-line front end: instance parsing, JSON results, subcommands."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import CapabilityError, InstanceParseError
from .generators import (
    X3CInstance,
    gen_precolext_reduction,
    gen_probe_instance,
    gen_x3c_reduction,
)
from .graphs import ProbeInstance, build_graph, pattern_graph, validate_probe_instance
from .oracles import PROBE_ORACLE_CAP, oracle_is_probe_hfree
from .solver import (
    COLOURABLE,
    NOT_COLOURABLE,
    NOT_PROBE_P5_FREE,
    solve_3col,
    verify_colouring,
)
from .special import solve_3col_p3sp1

EXIT_COLOURABLE = 0
EXIT_NOT_COLOURABLE = 1
EXIT_NOT_PROBE = 2
EXIT_INPUT_ERROR = 3
EXIT_CAPABILITY = 4

_STATUS_EXIT = {
    COLOURABLE: EXIT_COLOURABLE,
    NOT_COLOURABLE: EXIT_NOT_COLOURABLE,
    NOT_PROBE_P5_FREE: EXIT_NOT_PROBE,
}

GEN_FAMILIES = (
    "probe-p5", "probe-p3sp1", "probe-p2sp1", "trianglefree-probe-p5",
    "path-split", "pentagon", "split-pure", "union",
)


# ----------------------------------------------------------- instance text

def parse_instance(text: str) -> ProbeInstance:
    """Line-oriented instance format: ``probe-graph <n>``, then a ``v``
    line per vertex with role P or N, then ``e`` lines."""
    n = None
    roles = {}
    edges = []
    last_line = 1
    for lineno, raw in enumerate(text.splitlines(), 1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "probe-graph":
                raise InstanceParseError(
                    lineno, "expected header 'probe-graph <n>'")
            n = _int_field(parts[1], lineno, "vertex count")
            if n < 0:
                raise InstanceParseError(lineno, "vertex count must be >= 0")
        elif parts[0] == "v":
            if len(parts) != 3 or parts[2] not in ("P", "N"):
                raise InstanceParseError(lineno, "expected 'v <id> P|N'")
            v = _int_field(parts[1], lineno, "vertex id")
            if not 0 <= v < n:
                raise InstanceParseError(
                    lineno, f"vertex id {v} out of range 0..{n - 1}")
            if v in roles:
                raise InstanceParseError(lineno, f"vertex {v} declared twice")
            roles[v] = parts[2]
        elif parts[0] == "e":
            if len(parts) != 3:
                raise InstanceParseError(lineno, "expected 'e <u> <v>'")
            u = _int_field(parts[1], lineno, "endpoint")
            v = _int_field(parts[2], lineno, "endpoint")
            for w in (u, v):
                if not 0 <= w < n:
                    raise InstanceParseError(
                        lineno, f"vertex id {w} out of range 0..{n - 1}")
            if u == v:
                raise InstanceParseError(lineno, f"loop at vertex {u}")
            edges.append((u, v))
        else:
            raise InstanceParseError(lineno, f"unknown directive {parts[0]!r}")
    if n is None:
        raise InstanceParseError(1, "empty input, expected 'probe-graph <n>'")
    missing = sorted(set(range(n)) - set(roles))
    if missing:
        raise InstanceParseError(last_line, f"no role line for vertex {missing[0]}")
    g = build_graph(n, edges)
    probes = frozenset(v for v, r in roles.items() if r == "P")
    return validate_probe_instance(g, probes, frozenset(roles) - probes)


def _int_field(token, lineno, what):
    try:
        return int(token)
    except ValueError:
        raise InstanceParseError(lineno, f"{what} is not an integer: {token!r}")


def format_instance(inst: ProbeInstance, comments=()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"probe-graph {inst.graph.n}")
    for v in range(inst.graph.n):
        lines.append(f"v {v} {'P' if v in inst.probes else 'N'}")
    for u, v in inst.graph.edges:
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def emit_result(verdict) -> str:
    obj = {"status": verdict.status}
    if verdict.status == COLOURABLE:
        obj["colouring"] = list(verdict.colouring)
    if verdict.diagnostic is not None:
        obj["diagnostic"] = verdict.diagnostic
    obj["stats"] = verdict.stats.as_dict()
    return json.dumps(obj, indent=2)


def _error_json(kind, message, **extra):
    obj = {"status": "error", "diagnostic": {"kind": kind, "message": message}}
    obj["diagnostic"].update(extra)
    return json.dumps(obj, indent=2)


# ------------------------------------------------------------ CLI plumbing

class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the exit-code contract reserves
    3 for input errors."""

    def error(self, message):
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _read_text(path):
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as f:
        return f.read()


def _pick_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PROBE_CHROMA_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            return env
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="probe-chroma",
                  description="3-colouring of partitioned probe P5-free graphs")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("instance", nargs="?", help="instance file (default stdin)")
    p.add_argument("--fallback-oracle", action="store_true",
                   help="answer by brute force when a promise check fails")

    p = sub.add_parser("verify", help="check a colouring against an instance")
    p.add_argument("colouring", help="solve output JSON (or a bare array)")
    p.add_argument("instance", nargs="?", help="instance file (default stdin)")

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--family", required=True, choices=GEN_FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, default=0.4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--s", type=int, default=1,
                   help="isolated-vertex count for the p3sp1/p2sp1 families")

    p = sub.add_parser("recognize", help="probe-H-freeness recognition")
    p.add_argument("instance", nargs="?", help="instance file (default stdin)")
    p.add_argument("--pattern", required=True,
                   help="pattern name, e.g. p5, p6, 2p2, p3+1p1")
    p.add_argument("--fixed-partition", action="store_true",
                   help="respect the file's P/N split instead of searching")

    p = sub.add_parser("reduce", help="hardness-gadget constructions")
    p.add_argument("kind", choices=("x3c", "precol"))
    p.add_argument("input", nargs="?", help="JSON input file (default stdin)")

    p = sub.add_parser("solve-p3sp1", help="probe (P3+sP1)-free solver")
    p.add_argument("instance", nargs="?", help="instance file (default stdin)")
    p.add_argument("--s", type=int, required=True)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "gen": _cmd_gen,
        "recognize": _cmd_recognize,
        "reduce": _cmd_reduce,
        "solve-p3sp1": _cmd_solve_p3sp1,
    }[args.command]
    try:
        return handler(args)
    except InstanceParseError as e:
        print(_error_json("parse", str(e), line=e.line))
        return EXIT_INPUT_ERROR
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(_error_json("input", str(e)))
        return EXIT_INPUT_ERROR
    except CapabilityError as e:
        print(_error_json("capability", str(e)))
        return EXIT_CAPABILITY


def _cmd_solve(args):
    inst = parse_instance(_read_text(args.instance))
    verdict = solve_3col(inst, oracle_fallback=args.fallback_oracle)
    print(emit_result(verdict))
    return _STATUS_EXIT[verdict.status]


def _cmd_solve_p3sp1(args):
    inst = parse_instance(_read_text(args.instance))
    verdict = solve_3col_p3sp1(inst, args.s)
    print(emit_result(verdict))
    return _STATUS_EXIT[verdict.status]


def _cmd_verify(args):
    inst = parse_instance(_read_text(args.instance))
    payload = json.loads(_read_text(args.colouring))
    colouring = payload.get("colouring") if isinstance(payload, dict) else payload
    # bool is a subclass of int, so the entries' exact type is tested
    if (not isinstance(colouring, list) or len(colouring) != inst.graph.n
            or any(type(c) is not int for c in colouring)):
        raise ValueError(f"no array of {inst.graph.n} integer colours in input")
    bad = verify_colouring(inst.graph, colouring)
    print(json.dumps({"ok": bad is None, "violation": bad}))
    return EXIT_COLOURABLE if bad is None else EXIT_NOT_COLOURABLE


def _cmd_gen(args):
    seed = _pick_seed(args)
    family = args.family
    if family == "probe-p5":
        inst = gen_probe_instance(args.n, args.density, seed)
    elif family == "probe-p3sp1":
        inst = gen_probe_instance(args.n, args.density, seed,
                                  pattern=f"p3+{args.s}p1")
    elif family == "probe-p2sp1":
        inst = gen_probe_instance(args.n, args.density, seed,
                                  pattern=f"p2+{args.s}p1")
    elif family == "trianglefree-probe-p5":
        inst = gen_probe_instance(args.n, args.density, seed,
                                  family="trianglefree")
    else:
        inst = gen_probe_instance(args.n, args.density, seed, family=family)
    meta = inst.meta or {}
    comments = [f"family {meta.get('family', family)}", f"seed {seed}"]
    if meta.get("fill_count") is not None:
        comments.append(f"fill-count {meta['fill_count']}")
    sys.stdout.write(format_instance(inst, comments))
    return 0


def _cmd_recognize(args):
    inst = parse_instance(_read_text(args.instance))
    pattern = pattern_graph(args.pattern)
    if inst.graph.n > PROBE_ORACLE_CAP:
        raise CapabilityError(
            f"recognition is capped at {PROBE_ORACLE_CAP} vertices")
    nonprobes = inst.nonprobes if args.fixed_partition else None
    cert = oracle_is_probe_hfree(inst.graph, pattern, nonprobes)
    if cert is None:
        print(json.dumps({"probe_free": False, "pattern": args.pattern}))
        return EXIT_NOT_PROBE
    print(json.dumps({
        "probe_free": True,
        "pattern": args.pattern,
        "nonprobes": sorted(cert.nonprobes),
        "fill_edges": sorted(map(list, cert.fill_edges)),
    }))
    return 0


def _cmd_reduce(args):
    payload = json.loads(_read_text(args.input))
    if args.kind == "x3c":
        x3c = X3CInstance(
            tuple(payload["universe"]),
            tuple(frozenset(s) for s in payload["collection"]),
        )
        inst, s = gen_x3c_reduction(x3c)
        sys.stdout.write(format_instance(inst, [f"target-s {s}"]))
        return 0
    bip = build_graph(payload["n"], [tuple(e) for e in payload["edges"]])
    marked = payload["marked"]
    inst = gen_precolext_reduction(
        bip, (tuple(payload["side_a"]), tuple(payload["side_b"])),
        marked[0], marked[1], marked[2])
    sys.stdout.write(format_instance(inst, ["target-s 3"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
