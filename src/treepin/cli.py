"""Command-line front end.

Subcommands cover the whole pipeline: gen, analyze, reduce, synth, verify,
simulate, oracle-check.  Reports are line-oriented ``key = value`` text on
stdout; diagnostics go to stderr.  Exit codes: 0 success, 1 input or
validation failure, 2 a verification or simulation check failed, 3 an
oracle budget was exceeded.

The argument parser is built once per process (`_build_parser` is cached):
argparse reads no state of its own at parse time, `parse_args` returns a
fresh namespace on every call, and help, usage and version text go to the
`sys.stdout` / `sys.stderr` of the moment they are written, so repeated
in-process `main` calls behave exactly like calls on a fresh parser.

`simulate` and `oracle-check --scheme` run verify's structural checks on
the scheme before they print anything, so neither accepts a scheme that
`verify` refuses, and all three refuse it with the same message.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import __version__
from .capacity import capacity_report
from .falinalg import FMatrix, expand_to_base, lift
from .model import (
    InstanceError,
    load_instance,
    random_instance,
    save_instance,
)
from .oracle import (
    BudgetError,
    ENTROPY_BUDGET,
    MCF_BUDGET,
    cond_mutual_info_exhaustive,
    entropy_exhaustive,
    mcf_exhaustive,
)
from .reduce import ReductionError, reduce_full
from .scheme import (
    SchemeError,
    load_scheme,
    save_scheme,
    synth_explicit_unit,
    synth_random,
)
from .simulate import SimulationError, run_protocol
from .verify import leakage_symbol_dims, verify_scheme

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value == int(value):
            return str(int(value))
        return repr(value)
    return str(value)


def _emit(key: str, value) -> None:
    print(f"{key} = {_fmt(value)}")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_pair(path: str):
    return load_instance(_read(path))


def _load_valid_scheme(path: str, source):
    """Load a scheme and run verify's structural checks against `source`."""
    scheme = load_scheme(_read(path))
    scheme.validate(source)
    return scheme


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    source, wiretapper = random_instance(
        args.seed,
        vertex_count=args.vertices,
        max_multiplicity=args.max_mult,
        q=args.q,
        n_w_target=args.nw,
    )
    _write(args.out, save_instance(source, wiretapper))
    _emit("q", source.q)
    _emit("vertices", source.vertex_count)
    _emit("edges", source.edge_count)
    _emit("base_dim", source.base_dim)
    _emit("nw", wiretapper.dim)
    _emit("out", args.out)
    return 0


def _cmd_analyze(args) -> int:
    source, wiretapper = _load_pair(args.infile)
    report = capacity_report(source, wiretapper)
    _emit("q", source.q)
    _emit("vertices", source.vertex_count)
    _emit("edges", source.edge_count)
    _emit("base_dim", source.base_dim)
    _emit("nw", wiretapper.dim)
    _emit("s", source.min_mult)
    _emit("cs_bits", report.cs_bits)
    _emit("cw_bits", report.cw_bits)
    _emit("rl_bits", report.rl_bits)
    _emit("rco_bits", report.rco_bits)
    _emit("irreducible", not any(e.mcf_dim for e in report.per_edge))
    for entry in report.per_edge:
        _emit(f"edge_{entry.edge_id}_mcf_dim", entry.mcf_dim)
    _emit("argmin_edges", " ".join(str(e) for e in report.argmin_edges))
    return 0


def _cmd_reduce(args) -> int:
    source, wiretapper = _load_pair(args.infile)
    trace = reduce_full(source, wiretapper)
    red_source, red_wiretapper = trace.final
    _write(args.out, save_instance(red_source, red_wiretapper))
    _emit("steps", len(trace.steps))
    _emit("base_dim", red_source.base_dim)
    _emit("nw", red_wiretapper.dim)
    _emit("irreducible", True)
    _emit("out", args.out)
    if args.trace:
        for i, step in enumerate(trace.steps):
            _emit(f"step_{i}_edge", step.edge_id)
            _emit(f"step_{i}_dim", step.dim)
            _emit(f"step_{i}_new_mult", step.new_mult)
    return 0


def _cmd_synth(args) -> int:
    source, wiretapper = _load_pair(args.infile)
    if args.method == "random":
        scheme = synth_random(source, wiretapper, seed=args.seed)
    else:
        scheme = synth_explicit_unit(source, wiretapper)
    _write(args.out, save_scheme(scheme))
    _emit("method", args.method)
    _emit("ext_degree", scheme.ext_ctx.n)
    _emit("columns", scheme.comm_matrix.cols)
    _emit("key_dims", scheme.s)
    _emit("out", args.out)
    return 0


def _cmd_verify(args) -> int:
    source, wiretapper = _load_pair(args.infile)
    # the structural and the full check share the scheme's one N
    scheme = _load_valid_scheme(args.scheme, source)
    report = verify_scheme(scheme, source, wiretapper)
    for node in sorted(report.omniscient):
        _emit(f"omniscient_{node}", report.omniscient[node])
    _emit("aligned", report.aligned)
    _emit("key_secret", report.key_secret)
    _emit("leakage_dims", report.leakage_dims)
    _emit("optimal_leakage_dims", report.optimal_leakage_dims)
    _emit(
        "leakage_bits_per_realization",
        report.leakage_dims * math.log2(scheme.ext_ctx.q),
    )
    _emit("key_dims", report.key_dims)
    _emit("optimal_key_dims", report.optimal_key_dims)
    _emit("all_pass", report.all_pass)
    return 0 if report.all_pass else 2


def _cmd_simulate(args) -> int:
    source, wiretapper = _load_pair(args.infile)
    scheme = _load_valid_scheme(args.scheme, source)
    report = run_protocol(
        scheme, source, wiretapper, seed=args.seed, trials=args.trials
    )
    _emit("trials", report.trials)
    _emit("block_len", report.block_len)
    _emit("decode_failures", report.decode_failures)
    _emit("key_mismatches", report.key_mismatches)
    _emit("wiretap_predictable", report.wiretap_predictable)
    _emit("wiretap_mispredictions", report.wiretap_mispredictions)
    _emit("eavesdropper_unknown_dims", report.eavesdropper_unknown_dims)
    _emit("distinct_keys", len(report.key_counts))
    _emit("perfect", report.perfect)
    return 0 if report.perfect else 2


def _cmd_oracle_check(args) -> int:
    source, wiretapper = _load_pair(args.infile)
    q = source.q
    budget = args.budget
    if budget < 0:
        raise ValueError("budget must be >= 0")
    scheme = _load_valid_scheme(args.scheme, source) if args.scheme else None
    ok = True

    ent = entropy_exhaustive(wiretapper.matrix, q, budget=budget)
    ent_ok = ent == math.log2(q**wiretapper.dim)
    _emit("wiretap_entropy_bits", ent)
    _emit("wiretap_entropy_ok", ent_ok)
    ok = ok and ent_ok

    for e in capacity_report(source, wiretapper).per_edge:
        sel = source.edge_block_selector(e.edge_id)
        exh = mcf_exhaustive(sel, wiretapper.matrix, q, budget=min(budget, MCF_BUDGET))
        edge_ok = exh.bits == math.log2(q**e.mcf_dim)
        _emit(f"edge_{e.edge_id}_mcf_bits", exh.bits)
        _emit(f"edge_{e.edge_id}_mcf_ok", edge_ok)
        ok = ok and edge_ok

    if scheme is not None:
        n = scheme.ext_ctx.n
        fb = expand_to_base(scheme.comm_matrix)
        wb = expand_to_base(lift(wiretapper.matrix, scheme.ext_ctx))
        ib = FMatrix.identity(source.base_ctx, fb.rows)
        leak_block = cond_mutual_info_exhaustive(ib, fb, wb, q, budget=budget)
        expect = leakage_symbol_dims(scheme, wiretapper) * n * math.log2(q)
        leak_ok = leak_block == expect
        _emit("scheme_leakage_block_bits", leak_block)
        _emit("scheme_leakage_ok", leak_ok)
        ok = ok and leak_ok
        if scheme.key is not None:
            # the key's unit columns over GF(q**n) expand to n unit
            # columns over GF(q) each
            kb = FMatrix.basis_columns(
                source.base_ctx, fb.rows, [c * n + i for c in scheme.key for i in range(n)]
            )
            empty = FMatrix.zeros(source.base_ctx, fb.rows, 0)
            key_mi = cond_mutual_info_exhaustive(
                kb, fb.hstack(wb), empty, q, budget=budget
            )
            key_ok = key_mi == 0.0
            _emit("key_wiretap_mutual_bits", key_mi)
            _emit("key_secrecy_ok", key_ok)
            ok = ok and key_ok

    _emit("oracle_ok", ok)
    return 0 if ok else 2


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treepin",
        description="tree source secrecy toolkit: capacities, reductions, "
        "scheme synthesis, verification, simulation, oracles",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vertices", type=int, default=5)
    p.add_argument("--max-mult", type=int, default=3, dest="max_mult")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--nw", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("analyze", help="capacities and per-edge overlap")
    p.add_argument("--in", required=True, dest="infile")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("reduce", help="strip shared edge information")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("synth", help="synthesize a communication scheme")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument(
        "--method", choices=["random", "explicit-unit"], default="random"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("verify", help="audit a scheme against an instance")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--scheme", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("simulate", help="run the protocol on sampled blocks")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--scheme", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=32)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser(
        "oracle-check", help="compare analytic values with exhaustive enumeration"
    )
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--scheme", default=None)
    p.add_argument("--budget", type=int, default=ENTROPY_BUDGET)
    p.set_defaults(fn=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetError as exc:
        print(f"oracle budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (
        InstanceError,
        SchemeError,
        ReductionError,
        SimulationError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
