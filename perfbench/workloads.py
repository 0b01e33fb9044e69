"""The four workloads: inputs, one op, the correctness check, probe shapes.

A workload owns a fixed list of ops, cycled by the closed loop in run.py.
`run(i, sp)` is the timed part and only calls treepin; `sp` is the tracer
(or the no-op tracer) whose spans wrap each call into a layer.  `check(i,
result)` runs untimed, raises WrongAnswer on a wrong output, and returns the
text that goes into the output digest.  A raised error inside `run` is a
failed op; `failed(i, exc)` records it.  Instances are drawn with
`make_keyed_instance`, so none has cw = 0; the cw = 0 draws it sets aside
are counted by `set_aside_errors` in the traced run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time

import treepin.cli
from treepin import (
    EdgeSpec,
    FMatrix,
    TreePinSource,
    ReductionError,
    Wiretapper,
    capacity_report,
    choose_extension_degree,
    load_instance,
    load_scheme,
    make_ext_field,
    reduce_full,
    run_protocol,
    save_instance,
    save_scheme,
    synth_random,
    verify_scheme,
)
from treepin.falinalg import lift

from gen import (
    Shape,
    digest,
    expected_rates,
    instance_text,
    make_keyed_instance,
    parse_instance_text,
)
from probes import ProbeMaterial
from tracing import NULL, wrap_function


class WrongAnswer(Exception):
    """The program returned an output that fails a correctness check."""


class OpFailed(Exception):
    """The op was refused (a CLI exit 1 or 3)."""


def warm_fields(keys) -> float:
    """Build (cache) every field context a workload needs; returns seconds."""
    t = time.perf_counter()
    for q, n in sorted(set(keys)):
        make_ext_field(q, n)
    return time.perf_counter() - t


def _balanced(values, count):
    return tuple(values[i % len(values)] for i in range(count))


def _build(inst):
    """Instance objects through the public constructors."""
    src = TreePinSource(inst.q, inst.vertices, [EdgeSpec(*e) for e in inst.edges])
    wt = Wiretapper(
        FMatrix.from_rows(src.base_ctx, [list(r) for r in inst.wiretap], cols=inst.n_w)
    )
    return src, wt


def _zassenhaus_block(src, wt, edge_id):
    """The [[S^T S^T], [W^T 0]] block col_space_intersect reduces for one edge."""
    sel = src.edge_block_selector(edge_id)
    zero = [src.base_ctx.zero] * src.base_dim
    rows = [list(sel.col(j)) * 2 for j in range(sel.cols)]
    rows += [list(wt.matrix.col(j)) + zero for j in range(wt.dim)]
    return FMatrix(src.base_ctx, rows, cols=2 * src.base_dim), sel


class Workload:
    name = ""
    why = ""
    n_ops = 0
    warm_ops = 3
    chain = 1   # ops that must run in order from a multiple of this index

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.outdir = outdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.field_s = 0.0
        self.info: dict[int, dict] = {}   # per op index, first outcome
        self.set_aside: list = []         # cw = 0 draws, never timed

    def setup(self) -> None: ...

    def warm_up(self) -> None:
        """Run and check the first few ops once (counted in set-up)."""
        for i in range(min(self.warm_ops, self.n_ops)):
            if self.skip(i):
                continue
            try:
                res = self.run(i, NULL)
            except WrongAnswer:
                raise
            except Exception as exc:
                self.failed(i, exc)
                continue
            self.check(i, res)

    def skip(self, i: int) -> bool:
        return False

    def failed(self, i: int, exc: Exception) -> None:
        self.info.setdefault(i, {})["error"] = type(exc).__name__

    def traced_extra(self, i: int, tracer) -> None:
        """Extra traced calls before op i, outside the op's span."""

    @contextlib.contextmanager
    def trace_hooks(self, i: int, tracer):
        """Extra spans installed around traced op i."""
        yield

    def counts(self) -> dict[str, int]:
        return {}

    def set_aside_errors(self) -> int:
        """Run reduce_full once on each cw = 0 draw set aside; returns how
        many it refuses with ReductionError."""
        refused = 0
        for inst in self.set_aside:
            try:
                reduce_full(*_build(inst))
            except ReductionError:
                refused += 1
        return refused

    def trials(self, i: int) -> int:
        """Protocol trials op i runs."""
        return 0

    def input_digest(self) -> str: ...

    def probe_material(self) -> ProbeMaterial: ...


# ---------------------------------------------------------------------------


class Rates(Workload):
    name = "rates"
    why = (
        "cw/rl of mid-size trees with a heavy tap: base-field elimination in "
        "capacity_report and reduce_full; no extension field, scheme or simulation"
    )
    QS = (2, 3, 5)
    warm_ops = 1

    def setup(self):
        self.items = []
        # 12 trees on 26 vertices per field, fields cycling
        for k in range(36):
            v = 26
            q = self.QS[k % 3]
            mults = _balanced((1, 2, 3), v - 1)
            inst, exp = make_keyed_instance(self.rng, Shape(q, v, mults, sum(mults) // 6), self.set_aside)
            self.items.append((inst, instance_text(inst), exp))
        self.n_ops = len(self.items)
        self.field_s = warm_fields((q, 1) for q in self.QS)

    def input_digest(self):
        return digest(t for _, t, _ in self.items)

    def run(self, i, sp):
        text = self.items[i][1]
        with sp.span("model.load_instance"):
            src, wt = load_instance(text)
        with sp.span("capacity.capacity_report"):
            before = capacity_report(src, wt)
        with sp.span("reduce.reduce_full"):
            trace = reduce_full(src, wt)
        with sp.span("capacity.capacity_report"):
            after = capacity_report(*trace.final)
        with sp.span("model.save_instance"):
            out = save_instance(*trace.final)
        return src, wt, before, trace, after, out

    def check(self, i, res):
        inst, text, exp = self.items[i]
        src, wt, before, trace, after, out = res
        if save_instance(src, wt) != text:
            raise WrongAnswer("load/save round trip changed the instance text")
        got = tuple(e.mcf_dim for e in before.per_edge)
        if (before.cw_dims, before.rl_dims, got) != (exp.cw_dims, exp.rl_dims, exp.mcf_dims):
            raise WrongAnswer(
                f"capacity_report cw/rl/mcf {before.cw_dims}/{before.rl_dims}/{got}, "
                f"expected {exp.cw_dims}/{exp.rl_dims}/{exp.mcf_dims}"
            )
        if (after.cw_dims, after.rl_dims) != (exp.cw_dims, exp.rl_dims):
            raise WrongAnswer("reduction changed cw or rl")
        red = expected_rates(parse_instance_text(out))
        if any(red.mcf_dims) or (red.cw_dims, red.rl_dims) != (exp.cw_dims, exp.rl_dims):
            raise WrongAnswer("saved reduced instance is reducible or has other rates")
        self.info.setdefault(i, {})["steps"] = len(trace.steps)
        return f"cw={after.cw_dims} rl={after.rl_dims} steps={len(trace.steps)}\n{out}"

    def counts(self):
        return {
            "reduce.steps": sum(v.get("steps", 0) for v in self.info.values()),
            "reduce.errors": sum(v.get("error") == "ReductionError" for v in self.info.values()),
        }

    def probe_material(self):
        src, wt = _build(self.items[0][0])
        block, sel = _zassenhaus_block(src, wt, src.edges[0].edge_id)
        return ProbeMaterial(
            elim=block,
            matmul=(block, block.transpose()),
            left_inv=wt.matrix,
            intersect=(sel, wt.matrix),
            field=src.base_ctx,
            label=f"Zassenhaus block of edge 0 of rates item 0 ({src!r}, n_w={wt.dim})",
        )


# ---------------------------------------------------------------------------


class Schemes(Workload):
    name = "schemes"
    why = (
        "synthesize, save, load, validate and verify schemes over GF(q^n), "
        "n = 2..6: extension-field elimination and FieldElem arithmetic"
    )
    QS = (2, 3, 5)

    def setup(self):
        self.items = []
        # every (V, q) pair for V = 18..26 four times, sizes mixed; the p90
        # tail then rests on about ten distinct instances, not five
        for k in range(9 * 3 * 4):
            v = 18 + (4 * k) % 9
            q = self.QS[(k + k // 9) % 3]
            mults = _balanced((1, 2, 3) if k % 2 == 0 else (2, 3), v - 1)
            inst, exp = make_keyed_instance(self.rng, Shape(q, v, mults, 1 + (k // 2) % 2), self.set_aside)
            src, wt = _build(inst)
            self.items.append((inst, src, wt, exp))
        self.n_ops = len(self.items)
        keys = [(q, 1) for q in self.QS]
        keys += [(s.q, choose_extension_degree(s)) for _, s, _, _ in self.items]
        self.field_s = warm_fields(keys)

    def input_digest(self):
        return digest(instance_text(it[0]) for it in self.items)

    def run(self, i, sp):
        _, src, wt, _ = self.items[i]
        with sp.span("scheme.synth_random"):
            scheme = synth_random(src, wt, seed=i)
        with sp.span("scheme.save_scheme"):
            text = save_scheme(scheme)
        with sp.span("scheme.load_scheme"):
            loaded = load_scheme(text)
        with sp.span("scheme.validate"):
            loaded.validate(src)
        with sp.span("verify.verify_scheme"):
            report = verify_scheme(loaded, src, wt)
        return loaded, text, report

    def check(self, i, res):
        exp = self.items[i][3]
        loaded, text, report = res
        if not report.all_pass:
            raise WrongAnswer(f"verify_scheme not all_pass on item {i}: {report}")
        if (report.optimal_key_dims, report.optimal_leakage_dims) != (exp.cw_dims, exp.rl_dims):
            raise WrongAnswer("verify_scheme optimal dims differ from the expected rates")
        if report.key_dims != exp.cw_dims:
            raise WrongAnswer("scheme key dimension is not the capacity")
        if save_scheme(loaded) != text:
            raise WrongAnswer("scheme save/load round trip is not identical")
        self.info.setdefault(i, {})["ext"] = loaded.ext_ctx.n
        return text

    def counts(self):
        return {"scheme.ext_degree.max": max((v.get("ext", 0) for v in self.info.values()), default=0)}

    def probe_material(self):
        _, src, wt, _ = self.items[0]
        scheme = synth_random(src, wt, seed=0)
        f = scheme.comm_matrix
        wl = lift(wt.matrix, scheme.ext_ctx)
        m = f.hstack(wl)
        return ProbeMaterial(
            elim=m,
            matmul=(m.transpose(), m),
            left_inv=f,
            intersect=(f, wl),
            field=scheme.ext_ctx,
            label=f"[F | W_lifted] of schemes item 0 ({src!r}, GF({src.q}^{scheme.ext_ctx.n}))",
        )


# ---------------------------------------------------------------------------


class Protocol(Workload):
    name = "protocol"
    why = (
        "run_protocol on pre-synthesized schemes: 5 in 6 small trees with 300 "
        "trials (trial loop) and 1 in 6 wider trees with 4 trials (decoder setup)"
    )
    QS = (2, 3, 5)
    SMALL_TRIALS = 300
    WIDE_TRIALS = 4

    def setup(self):
        shapes = []
        # 150 small (V = 6..8) and 30 wide (V = 15..17) trees, sizes and
        # fields cycling, one wide after every five small.  Decoder set-up
        # cost varies with the tree's node degrees, so the p95 tail needs
        # more wide trees than the fifteen that one in six of 90 would give
        for k in range(150):
            v, q = 6 + k % 3, self.QS[(k + k // 3) % 3]
            shapes.append((Shape(q, v, _balanced((1, 2), v - 1), 1), self.SMALL_TRIALS))
            if k % 5 == 4:
                j = k // 5
                v, q = 15 + j % 3, self.QS[(j + j // 3) % 3]
                shapes.append((Shape(q, v, _balanced((1, 2), v - 1), 2), self.WIDE_TRIALS))
        self.field_s = warm_fields((q, 1) for q in (2, 3, 5))
        self.items = []
        for i, (shape, trials) in enumerate(shapes):
            inst, _ = make_keyed_instance(self.rng, shape, self.set_aside)
            src, wt = _build(inst)
            try:
                src, wt = reduce_full(src, wt).final
                self.field_s += warm_fields([(src.q, choose_extension_degree(src))])
                scheme = synth_random(src, wt, seed=i)
                error = None
            except Exception as exc:   # counted as a failed op each time it comes up
                scheme, error = None, exc
            self.items.append((inst, src, wt, scheme, trials, error))
        self.n_ops = len(self.items)

    def input_digest(self):
        return digest(instance_text(it[0]) for it in self.items)

    def run(self, i, sp):
        _, src, wt, scheme, trials, error = self.items[i]
        if error is not None:
            raise error
        with sp.span("simulate.run_protocol"):
            return run_protocol(scheme, src, wt, seed=self.seed * 1000 + i, trials=trials)

    def trials(self, i):
        return self.items[i][4] if self.items[i][5] is None else 0

    def traced_extra(self, i, tracer):
        _, src, wt, scheme, _, error = self.items[i]
        if error is None:
            with tracer.span("simulate.decoder_setup"):
                run_protocol(scheme, src, wt, seed=self.seed * 1000 + i, trials=0)

    def check(self, i, rep):
        trials = self.items[i][4]
        if rep.trials != trials or not rep.perfect:
            raise WrongAnswer(f"run_protocol not perfect on item {i}: {rep}")
        self.info.setdefault(i, {})["ext"] = rep.block_len
        keys = sorted(rep.key_counts.items())
        return (
            f"{rep.trials} {rep.block_len} {rep.decode_failures} {rep.key_mismatches} "
            f"{rep.wiretap_predictable} {rep.wiretap_mispredictions} "
            f"{rep.eavesdropper_unknown_dims} {keys}"
        )

    def counts(self):
        return {
            "scheme.ext_degree.max": max((v.get("ext", 0) for v in self.info.values()), default=0),
            "reduce.errors": sum(it[5] is not None for it in self.items),
        }

    def probe_material(self):
        _, src, _, scheme, _, _ = next(it for it in self.items if it[4] == self.WIDE_TRIALS)
        ext = scheme.ext_ctx
        sel = src.node_view(0).selector(ext)
        m = scheme.comm_matrix.hstack(sel)
        return ProbeMaterial(
            elim=m,
            matmul=(m.transpose(), m),
            left_inv=m.transpose(),
            intersect=(scheme.comm_matrix, sel),
            field=ext,
            label=f"node 0 [F | selector] of the first wide protocol item ({src!r}, GF({src.q}^{ext.n}))",
        )


# ---------------------------------------------------------------------------


COMMANDS = ("analyze", "reduce", "synth", "verify", "simulate", "oracle-check")


def _parse_report(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


class CliSmall(Workload):
    name = "cli-small"
    why = (
        "tiny instances through the in-process CLI chain analyze..oracle-check: "
        "per-call overhead; the only workload running cli and oracle"
    )
    # (q, multiplicities, n_w) per slot; each slot is drawn FILES / 12
    # times with its own tree, order of multiplicities and wiretap.  The
    # scheme oracle enumerates q**(D*n) vectors, at most 6561 here.
    SLOTS = tuple(
        (q, mults, n_w)
        for q in (2, 3)
        for mults, n_w in (
            ((1, 1), 1), ((1, 2), 1), ((2, 2), 2),
            ((1, 1, 1), 1), ((1, 1, 2), 2), ((1, 1, 1, 1), 2),
        )
    )
    FILES = 144
    warm_ops = chain = len(COMMANDS)

    def setup(self):
        self.dir = os.path.join(self.outdir, f"cli-small-{self.seed}")
        os.makedirs(self.dir, exist_ok=True)
        for name in os.listdir(self.dir):   # outputs of an earlier run
            os.remove(os.path.join(self.dir, name))
        self.files = []
        for k in range(self.FILES):
            q, mults, n_w = self.SLOTS[k % len(self.SLOTS)]
            inst, exp = make_keyed_instance(self.rng, Shape(q, len(mults) + 1, mults, n_w), self.set_aside)
            paths = {
                "in": os.path.join(self.dir, f"i{k}.txt"),
                "red": os.path.join(self.dir, f"r{k}.txt"),
                "scheme": os.path.join(self.dir, f"s{k}.txt"),
            }
            with open(paths["in"], "w", encoding="utf-8") as fh:
                fh.write(instance_text(inst))
            self.files.append((inst, paths, exp))
        self.ops = [(k, c) for k in range(self.FILES) for c in COMMANDS]
        self.n_ops = len(self.ops)
        self.broken: set[int] = set()
        self.field_s = warm_fields((q, 1) for q in (2, 3))

    def input_digest(self):
        return digest(instance_text(f[0]) for f in self.files)

    def _argv(self, k, cmd):
        p = self.files[k][1]
        if cmd == "analyze":
            return ["analyze", "--in", p["in"]]
        if cmd == "reduce":
            return ["reduce", "--in", p["in"], "--out", p["red"]]
        if cmd == "synth":
            return ["synth", "--in", p["red"], "--seed", str(k), "--out", p["scheme"]]
        if cmd == "simulate":
            return ["simulate", "--in", p["red"], "--scheme", p["scheme"], "--trials", "16"]
        return [cmd, "--in", p["red"], "--scheme", p["scheme"]]

    def skip(self, i):
        k, cmd = self.ops[i]
        if cmd == "analyze":
            self.broken.discard(k)
            return False
        return k in self.broken

    def run(self, i, sp):
        k, cmd = self.ops[i]
        out, err = io.StringIO(), io.StringIO()
        with sp.span(f"cli.{cmd}"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = treepin.cli.main(self._argv(k, cmd))
            except SystemExit as exc:   # argparse usage errors
                code = exc.code
        if code in (1, 3):
            self.broken.add(k)
            raise OpFailed(f"{cmd} exit {code}: {err.getvalue().strip()}")
        return code, out.getvalue()

    def failed(self, i, exc):
        k, cmd = self.ops[i]
        self.broken.add(k)
        self.info.setdefault(i, {})["error"] = type(exc).__name__

    def check(self, i, res):
        k, cmd = self.ops[i]
        inst, paths, exp = self.files[k]
        code, text = res
        rep = _parse_report(text)
        if code != 0:
            raise WrongAnswer(f"{cmd} on file {k} exited {code}:\n{text}")
        lq = math.log2(inst.q)
        extra = ""
        if cmd == "analyze":
            mcf = tuple(int(rep[f"edge_{e[0]}_mcf_dim"]) for e in inst.edges)
            if (float(rep["cw_bits"]), float(rep["rl_bits"]), mcf) != (
                exp.cw_dims * lq, exp.rl_dims * lq, exp.mcf_dims
            ):
                raise WrongAnswer(f"analyze on file {k} reports other rates:\n{text}")
        elif cmd == "reduce":
            with open(paths["red"], encoding="utf-8") as fh:
                extra = fh.read()
            red = expected_rates(parse_instance_text(extra))
            if any(red.mcf_dims) or (red.cw_dims, red.rl_dims) != (exp.cw_dims, exp.rl_dims):
                raise WrongAnswer(f"reduce on file {k} changed the rates or left it reducible")
            self.info.setdefault(i, {})["steps"] = int(rep["steps"])
        elif cmd == "synth":
            with open(paths["scheme"], encoding="utf-8") as fh:
                extra = fh.read()
            if int(rep["key_dims"]) != exp.cw_dims:
                raise WrongAnswer(f"synth on file {k}: key_dims {rep['key_dims']} != cw {exp.cw_dims}")
            self.info.setdefault(i, {})["ext"] = int(rep["ext_degree"])
        elif cmd == "verify" and rep.get("all_pass") != "true":
            raise WrongAnswer(f"verify on file {k} is not all_pass:\n{text}")
        elif cmd == "simulate" and rep.get("perfect") != "true":
            raise WrongAnswer(f"simulate on file {k} is not perfect:\n{text}")
        elif cmd == "oracle-check" and rep.get("oracle_ok") != "true":
            raise WrongAnswer(f"oracle-check on file {k}: oracle_ok is not true:\n{text}")
        return text + extra

    @contextlib.contextmanager
    def trace_hooks(self, i, tracer):
        vectors = 0

        def count_vectors(args, kwargs):
            nonlocal vectors
            vectors += args[0].ctx.q ** args[0].rows

        undo = [
            wrap_function(treepin.cli, name, tracer, f"oracle.{name}", count_vectors)
            for name in ("entropy_exhaustive", "mcf_exhaustive", "cond_mutual_info_exhaustive")
        ]
        try:
            yield
        finally:
            for u in undo:
                u()
            self.info.setdefault(i, {}).setdefault("vectors", vectors)

    def counts(self):
        out = {}
        for cmd in COMMANDS:
            out[f"cli.{cmd}.exit_nonzero"] = sum(
                1 for i, v in self.info.items() if self.ops[i][1] == cmd and "error" in v
            )
        out["reduce.steps"] = sum(v.get("steps", 0) for v in self.info.values())
        out["reduce.errors"] = out["cli.reduce.exit_nonzero"]
        out["scheme.ext_degree.max"] = max((v.get("ext", 0) for v in self.info.values()), default=0)
        out["oracle.vectors"] = sum(v.get("vectors", 0) for v in self.info.values())
        return out

    def probe_material(self):
        src, wt = _build(self.files[0][0])
        block, sel = _zassenhaus_block(src, wt, src.edges[0].edge_id)
        return ProbeMaterial(
            elim=block,
            matmul=(block, block.transpose()),
            left_inv=wt.matrix,
            intersect=(sel, wt.matrix),
            field=src.base_ctx,
            label=f"Zassenhaus block of edge 0 of cli-small file 0 ({src!r}, n_w={wt.dim})",
        )


WORKLOADS = {w.name: w for w in (Rates, Schemes, Protocol, CliSmall)}
