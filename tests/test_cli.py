"""Command line interface, run in process through main(argv)."""

from __future__ import annotations

import io
import os
import subprocess
import sys
import textwrap
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

import treepin
from treepin import (
    InstanceError,
    SchemeError,
    load_instance,
    load_scheme,
    save_instance,
    save_scheme,
)
from treepin.cli import main

from conftest import count_null_builds, parity_path, wide_path_reducible


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def lines_of(out):
    return {
        line.split(" = ")[0]: line.split(" = ", 1)[1]
        for line in out.strip().splitlines()
        if " = " in line
    }


@pytest.fixture
def parity_file(tmp_path):
    path = tmp_path / "parity.txt"
    path.write_text(save_instance(*parity_path()))
    return str(path)


def test_analyze_parity_exact_output(capsys, parity_file):
    code, out, err = run(capsys, "analyze", "--in", parity_file)
    assert code == 0 and err == ""
    got = lines_of(out)
    assert got["q"] == "2"
    assert got["vertices"] == "4"
    assert got["edges"] == "3"
    assert got["base_dim"] == "3"
    assert got["nw"] == "1"
    assert got["s"] == "1"
    assert got["cs_bits"] == "1"
    assert got["cw_bits"] == "1"
    assert got["rl_bits"] == "1"
    assert got["rco_bits"] == "2"
    assert got["irreducible"] == "true"
    assert got["edge_0_mcf_dim"] == "0"
    assert got["argmin_edges"] == "0 1 2"


def test_gen_is_deterministic(capsys, tmp_path):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    code1, _, _ = run(capsys, "gen", "--seed", "5", "--vertices", "5",
                      "--max-mult", "2", "--q", "3", "--nw", "2", "--out", a)
    code2, _, _ = run(capsys, "gen", "--seed", "5", "--vertices", "5",
                      "--max-mult", "2", "--q", "3", "--nw", "2", "--out", b)
    assert code1 == code2 == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


@pytest.mark.parametrize("seed", range(10))
def test_full_pipeline(capsys, tmp_path, seed):
    inst = str(tmp_path / "inst.txt")
    red = str(tmp_path / "red.txt")
    sch = str(tmp_path / "scheme.txt")
    code, out, _ = run(capsys, "gen", "--seed", str(seed), "--vertices", "5",
                       "--max-mult", "3", "--q", "2", "--nw", "1", "--out", inst)
    assert code == 0

    code, out, _ = run(capsys, "analyze", "--in", inst)
    assert code == 0

    code, out, _ = run(capsys, "reduce", "--in", inst, "--out", red, "--trace")
    assert code == 0
    assert lines_of(out)["irreducible"] == "true"

    code, out, _ = run(capsys, "synth", "--in", red, "--method", "random",
                       "--seed", str(100 + seed), "--out", sch)
    assert code == 0

    code, out, _ = run(capsys, "verify", "--in", red, "--scheme", sch)
    assert code == 0
    assert lines_of(out)["all_pass"] == "true"

    code, out, _ = run(capsys, "simulate", "--in", red, "--scheme", sch,
                       "--seed", "7", "--trials", "40")
    assert code == 0
    got = lines_of(out)
    assert got["perfect"] == "true"
    assert got["decode_failures"] == "0"
    assert got["key_mismatches"] == "0"


# Run in a fresh interpreter: gen .. verify must not import numpy, and
# simulate must.
_NUMPY_ON_FIRST_USE = textwrap.dedent("""
    import contextlib, io, sys
    import treepin, treepin.cli

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = treepin.cli.main(list(argv))
        assert code == 0, (argv, code)

    run("gen", "--seed", "1", "--vertices", "8", "--max-mult", "2",
        "--q", "3", "--nw", "2", "--out", "inst.txt")
    run("analyze", "--in", "inst.txt")
    run("reduce", "--in", "inst.txt", "--out", "red.txt")
    run("synth", "--in", "red.txt", "--seed", "1", "--out", "scheme.txt")
    run("verify", "--in", "red.txt", "--scheme", "scheme.txt")
    assert "numpy" not in sys.modules, "numpy loaded before simulate"
    run("simulate", "--in", "red.txt", "--scheme", "scheme.txt", "--trials", "20")
    assert "numpy" in sys.modules, "simulate ran without numpy"
""")


def test_numpy_is_imported_on_first_use(tmp_path):
    """A command pays only for what it runs: importing the package and the
    CLI, and every command up to verify, leave numpy unloaded; simulate
    loads it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(treepin.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_ON_FIRST_USE],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_oracle_check_with_scheme(capsys, tmp_path, parity_file):
    sch = str(tmp_path / "scheme.txt")
    code, _, _ = run(capsys, "synth", "--in", parity_file,
                     "--method", "explicit-unit", "--out", sch)
    assert code == 0
    code, out, _ = run(capsys, "oracle-check", "--in", parity_file,
                       "--scheme", sch)
    assert code == 0
    got = lines_of(out)
    assert got["oracle_ok"] == "true"
    assert got["wiretap_entropy_ok"] == "true"
    assert got["scheme_leakage_block_bits"] == "2"
    assert got["key_wiretap_mutual_bits"] == "0"


def test_verify_exit_code_on_suboptimal_scheme(capsys, tmp_path, parity_file):
    """A structurally valid but misaligned scheme verifies with exit 2."""
    # the explicit scheme's field, owners and key, with its two columns
    # swapped for raw coordinate transmissions owned by nodes that can see
    # them: still rank 2, still a valid scheme, but no longer aligned with
    # the wiretap.  It is hand-written (root none, no mix blocks), since
    # the explicit scheme's blocks describe its own F, not this one
    bad = str(tmp_path / "bad.txt")
    (tmp_path / "bad.txt").write_text(
        "treepin-scheme q=2 n=2\nmodulus 1,1,1\nroot none\ns 1\nowners 1 2\n"
        "fmat rows=3 cols=2\n1,0 0,0\n1,0 0,1\n0,0 1,0\nkeycols 0\n"
    )
    code, out, _ = run(capsys, "verify", "--in", parity_file, "--scheme", bad)
    assert code == 2
    got = lines_of(out)
    assert got["aligned"] == "false"
    assert got["all_pass"] == "false"


def test_blocks_that_disagree_with_f_exit_1(capsys, tmp_path):
    """The README chain's scheme with the entry of its first mix block
    changed from 1,1,0 to 1,0,1: the block stays nonsingular, so only the
    comparison of the blocks with F refuses it, and verify, simulate and
    oracle-check all exit 1 with the same line."""
    inst, red, sch = (str(tmp_path / name) for name in ("inst.txt", "red.txt", "scheme.txt"))
    gen = ["--seed", "2", "--vertices", "5", "--max-mult", "2", "--q", "2", "--nw", "2"]
    assert run(capsys, "gen", *gen, "--out", inst)[0] == 0
    assert run(capsys, "reduce", "--in", inst, "--out", red)[0] == 0
    assert run(capsys, "synth", "--in", red, "--method", "random", "--seed", "1", "--out", sch)[0] == 0
    block = "amat node=0 edge=1 rows=1 cols=1\n"
    text = (tmp_path / "scheme.txt").read_text()
    assert block + "1,1,0\n" in text
    edited = tmp_path / "edited.txt"
    edited.write_text(text.replace(block + "1,1,0\n", block + "1,0,1\n"))
    for argv in (["verify"], ["simulate", "--trials", "200"], ["oracle-check"]):
        code, out, err = run(capsys, *argv, "--in", red, "--scheme", str(edited))
        assert (code, out) == (1, "")
        assert err == "error: mix block for node 0, edge 1 differs from the communication matrix\n"


def test_exit_1_on_missing_and_malformed_input(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", "--in", str(tmp_path / "nope.txt"))
    assert code == 1
    assert err.startswith("error:")
    broken = tmp_path / "broken.txt"
    broken.write_text("treepin q=2\nvertices nope\n")
    code, _, err = run(capsys, "analyze", "--in", str(broken))
    assert code == 1
    assert "error:" in err


def test_exit_1_on_unsatisfiable_synth(capsys, tmp_path):
    """Explicit synthesis on a reducible instance is a validation failure."""
    inst = tmp_path / "wide.txt"
    inst.write_text(save_instance(*wide_path_reducible()))
    sch = str(tmp_path / "s.txt")
    code, _, err = run(capsys, "synth", "--in", str(inst),
                       "--method", "random", "--out", sch)
    assert code == 1
    assert "error:" in err


def test_oracle_check_on_an_edge_that_overlaps_the_tap(capsys, tmp_path):
    """Edge 0 of the wide path shares one symbol with the tap: the brute
    force common function of that edge has 1 bit, as analyze's overlap
    says."""
    inst = tmp_path / "wide.txt"
    inst.write_text(save_instance(*wide_path_reducible()))
    code, out, err = run(capsys, "oracle-check", "--in", str(inst))
    assert code == 0 and err == ""
    assert out == (
        "wiretap_entropy_bits = 2\n"
        "wiretap_entropy_ok = true\n"
        "edge_0_mcf_bits = 1\n"
        "edge_0_mcf_ok = true\n"
        "edge_1_mcf_bits = 0\n"
        "edge_1_mcf_ok = true\n"
        "edge_2_mcf_bits = 0\n"
        "edge_2_mcf_ok = true\n"
        "oracle_ok = true\n"
    )
    _, analyzed, _ = run(capsys, "analyze", "--in", str(inst))
    assert lines_of(analyzed)["edge_0_mcf_dim"] == "1"


def test_exit_3_on_budget(capsys, parity_file, tmp_path):
    big = tmp_path / "big.txt"
    run(capsys, "gen", "--seed", "1", "--vertices", "8", "--max-mult", "4",
        "--q", "3", "--nw", "2", "--out", str(big))
    code, _, err = run(capsys, "oracle-check", "--in", str(big),
                       "--budget", "4")
    assert code == 3
    assert "oracle budget exceeded" in err


def test_exit_3_past_exact_float_range(capsys, tmp_path):
    """(p-1)**2 >= 2**53: a one-row image over GF(p) leaves the exact
    float64 range, so oracle-check refuses it within a budget above p."""
    p = 94906297
    inst = tmp_path / "wide-field.txt"
    inst.write_text(f"treepin q={p}\nvertices 2\nedge 0 0 1 1\nwiretap cols=1\n1\n")
    code, out, err = run(capsys, "oracle-check", "--in", str(inst),
                         "--budget", str(2**27))
    assert code == 3 and out == ""
    assert err.startswith("oracle budget exceeded: ")
    assert "2**53" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "treepin" in out


def test_reduce_trace_fields(capsys, tmp_path):
    inst = tmp_path / "wide.txt"
    inst.write_text(save_instance(*wide_path_reducible()))
    red = str(tmp_path / "red.txt")
    code, out, _ = run(capsys, "reduce", "--in", str(inst), "--out", red,
                       "--trace")
    assert code == 0
    got = lines_of(out)
    assert got["steps"] == "1"
    assert got["step_0_edge"] == "0"
    assert got["step_0_dim"] == "1"
    assert got["step_0_new_mult"] == "1"
    assert got["base_dim"] == "3"
    assert got["nw"] == "1"
    assert got["irreducible"] == "true"
    # the written file parses and is irreducible
    code, out, _ = run(capsys, "analyze", "--in", red)
    assert code == 0
    assert lines_of(out)["irreducible"] == "true"


@pytest.fixture
def wide_files(tmp_path):
    """Instance and scheme files for the irreducible wide path; the scheme
    has fmat, amat and bmat blocks."""
    from treepin import synth_random
    from conftest import wide_path_irreducible

    src, wt = wide_path_irreducible()
    inst = tmp_path / "wide.txt"
    inst.write_text(save_instance(src, wt))
    return str(inst), save_scheme(synth_random(src, wt, seed=5))


@pytest.mark.parametrize("command", ["verify", "simulate", "oracle-check"])
@pytest.mark.parametrize(
    "old, new",
    [
        ("fmat rows=4 cols=3", "fmat rows=4"),
        ("fmat rows=4 cols=3", "fmat rows=4 cols"),
        ("amat node=1 edge=1 rows=1 cols=1", "amat node=1 edge=1 cols=1"),
        ("amat node=1 edge=1 rows=1 cols=1", "amat edge=1 rows=1 cols=1"),
        ("bmat edge=0 rows=1 cols=1", "bmat edge=0 rows=1"),
        ("bmat edge=0 rows=1 cols=1", "bmat edge=0 rows=-1 cols=1"),
        ("owners 1 1 2", "owners 99 1 2"),
        ("owners 1 1 2", "owners 1 1 -1"),
        # column 0 uses coordinate 2, which node 0 does not observe
        ("owners 1 1 2", "owners 0 1 2"),
        ("keycols 0", "keycols 99"),
        ("keycols 0", "keycols 0 0"),
        # five rows on the four coordinates of the wide path
        ("fmat rows=4 cols=3", "fmat rows=5 cols=3\n0,0 0,0 0,0"),
        # amat and bmat blocks have s = 1 rows
        ("bmat edge=0 rows=1 cols=1", "bmat edge=0 rows=3 cols=1\n0,0\n0,0"),
        ("amat node=2 edge=2 rows=1 cols=1",
         "amat node=0 edge=1 rows=10000000 cols=0\namat node=2 edge=2 rows=1 cols=1"),
    ],
)
def test_malformed_scheme_exits_1(capsys, tmp_path, wide_files, command, old, new):
    inst, text = wide_files
    assert old in text
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace(old, new))
    code, _, err = run(capsys, command, "--in", inst, "--scheme", str(bad))
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "simulate", "oracle-check"])
@pytest.mark.parametrize(
    "old, new, message",
    [
        ("q=2 n=2", "q=x n=2", "malformed scheme header 'treepin-scheme q=x n=2'"),
        ("q=2 n=2", "q=2 n=x", "malformed scheme header 'treepin-scheme q=2 n=x'"),
        ("modulus 1,1,1", "modulus 1,x,1", "malformed modulus line"),
        ("\nroot 0\n", "\nroot x\n", "malformed root line"),
        ("\ns 1\n", "\ns x\n", "malformed s line"),
        ("owners 1 1 2", "owners 1 x 2", "malformed owners line"),
        ("keycols 0", "keycols x", "malformed keycols line"),
    ],
)
def test_bad_scheme_integer_names_its_line(capsys, tmp_path, wide_files, command, old, new, message):
    inst, text = wide_files
    assert text.count(old) == 1
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace(old, new))
    code, _, err = run(capsys, command, "--in", inst, "--scheme", str(bad))
    assert code == 1
    assert err == f"error: {message}\n"


def test_negative_trials_exits_1(capsys, tmp_path, wide_files):
    inst, text = wide_files
    sch = tmp_path / "scheme.txt"
    sch.write_text(text)
    code, out, err = run(capsys, "simulate", "--in", inst, "--scheme", str(sch),
                         "--trials", "-5")
    assert code == 1
    assert err.startswith("error:")
    assert "perfect" not in out


def test_negative_wiretap_dimension_exits_1(capsys, tmp_path):
    out_path = tmp_path / "g.txt"
    code, out, err = run(capsys, "gen", "--nw", "-1", "--out", str(out_path))
    assert code == 1
    assert err == "error: wiretap dimension must be >= 0\n"
    assert out == ""
    assert not out_path.exists()


def test_negative_budget_exits_1(capsys, parity_file):
    code, out, err = run(capsys, "oracle-check", "--in", parity_file, "--budget", "-5")
    assert code == 1
    assert err == "error: budget must be >= 0\n"
    assert out == ""


def _run_cli_subprocess(tmp_path, text, timeout):
    """Run `treepin analyze` on `text` in a fresh interpreter, so a hang
    ends in TimeoutExpired instead of stalling the suite."""
    import os
    import subprocess
    import sys

    import treepin

    inst = tmp_path / "inst.txt"
    inst.write_text(text)
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(treepin.__file__)))
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "treepin.cli", "analyze", "--in", str(inst)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def test_large_prime_q_analyzes_quickly(tmp_path):
    q = 1000000000000000003
    done = _run_cli_subprocess(
        tmp_path, f"treepin q={q}\nvertices 2\nedge 0 0 1 1\nwiretap cols=0\n", 60
    )
    assert done.returncode == 0, done.stderr
    assert lines_of(done.stdout)["q"] == str(q)


def test_large_composite_q_is_rejected(tmp_path):
    q = (10**9 + 7) * (10**9 + 9)
    done = _run_cli_subprocess(
        tmp_path, f"treepin q={q}\nvertices 2\nedge 0 0 1 1\nwiretap cols=0\n", 60
    )
    assert done.returncode == 1
    assert "must be prime" in done.stderr


@pytest.mark.parametrize("command", ["verify", "simulate", "oracle-check"])
def test_scheme_of_another_source_exits_1(capsys, tmp_path, wide_files, parity_file, command):
    """A scheme with one row more than the instance has coordinates (the
    wide path's scheme on the parity path) is refused by its row count,
    not by a message about its owners."""
    _, text = wide_files
    sch = tmp_path / "scheme.txt"
    sch.write_text(text)
    code, out, err = run(capsys, command, "--in", parity_file, "--scheme", str(sch))
    assert code == 1
    assert err == "error: scheme does not match the source\n"


def test_parser_is_built_once_and_behaves_like_a_fresh_one(
    capsys, monkeypatch, tmp_path, parity_file
):
    """main reuses one parser per process; a run of commands on it prints
    and exits exactly as the same run on a freshly built parser."""
    import treepin.cli as cli

    assert cli._build_parser() is cli._build_parser()
    sch = str(tmp_path / "scheme.txt")
    assert run(capsys, "synth", "--in", parity_file, "--method",
               "explicit-unit", "--out", sch)[0] == 0
    argvs = [
        ["analyze"],                       # usage error: --in is missing
        ["analyze", "--in", parity_file],
        ["verify", "--in", parity_file, "--scheme", sch],
        ["--version"],
        ["analyze", "--in", parity_file],
    ]

    def outcomes():
        got = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            out = capsys.readouterr()
            got.append((code, out.out, out.err))
        return got

    cached = outcomes()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = outcomes()
    assert cached == fresh
    assert [c for c, _, _ in cached] == [("exit", 2), 0, 0, ("exit", 0), 0]
    assert "the following arguments are required: --in" in cached[0][2]


@pytest.mark.parametrize("command", ["verify", "simulate", "oracle-check"])
@pytest.mark.parametrize(
    "new, message",
    [
        ("amat node=1 edge=1 rows=1 cols=1\n0,0",
         "mix block for node 1, edge 1 is singular"),
        ("amat node=1 edge=1 rows=1 cols=2\n1,1 0,0",
         "mix block for node 1, edge 1 has wrong shape"),
    ],
)
def test_bad_mix_block_exits_1_with_verify_message(
    capsys, tmp_path, wide_files, command, new, message
):
    """simulate and oracle-check run verify's structural checks first, so
    a scheme verify refuses is refused by all three, before any report."""
    inst, text = wide_files
    old = "amat node=1 edge=1 rows=1 cols=1\n1,1"
    assert old in text
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace(old, new))
    code, out, err = run(capsys, command, "--in", inst, "--scheme", str(bad))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_key_wider_than_s_exits_1(capsys, tmp_path):
    """The README chain's scheme with a second key coordinate: its key
    still completes F, but it is not secret (the tap learns 3 bits of it).
    verify, simulate and oracle-check --scheme accept the scheme as written
    and refuse the widened one with one message, before any report."""
    inst, red, sch = (str(tmp_path / name) for name in ("inst.txt", "red.txt", "scheme.txt"))
    assert run(capsys, "gen", "--seed", "2", "--vertices", "5", "--max-mult", "2",
               "--q", "2", "--nw", "2", "--out", inst)[0] == 0
    assert run(capsys, "reduce", "--in", inst, "--out", red)[0] == 0
    assert run(capsys, "synth", "--in", red, "--out", sch)[0] == 0
    text = (tmp_path / "scheme.txt").read_text()
    assert text.endswith("\nkeycols 0\n")
    wide = tmp_path / "wide.txt"
    wide.write_text(text.replace("\nkeycols 0\n", "\nkeycols 0 1\n"))
    for argv in (["verify"], ["simulate", "--trials", "50"], ["oracle-check", "--budget", "16777216"]):
        assert run(capsys, *argv, "--in", red, "--scheme", sch)[0] == 0
        got = run(capsys, *argv, "--in", red, "--scheme", str(wide))
        assert got == (1, "", "error: key map has 2 columns, must have s = 1\n")


def test_keyless_scheme(capsys, tmp_path):
    """The README chain's scheme without its keycols line: it carries no
    key, which is no structural fault.  verify reports the key as not
    secret and exits 2, simulate has no key to tally and exits 1, and
    oracle-check --scheme checks the leakage alone and exits 0."""
    inst, red, sch = (str(tmp_path / name) for name in ("inst.txt", "red.txt", "scheme.txt"))
    assert run(capsys, "gen", "--seed", "2", "--vertices", "5", "--max-mult", "2",
               "--q", "2", "--nw", "2", "--out", inst)[0] == 0
    assert run(capsys, "reduce", "--in", inst, "--out", red)[0] == 0
    assert run(capsys, "synth", "--in", red, "--out", sch)[0] == 0
    text = (tmp_path / "scheme.txt").read_text()
    assert text.endswith("\nkeycols 0\n")
    keyless = tmp_path / "keyless.txt"
    keyless.write_text(text.replace("\nkeycols 0\n", "\n"))
    code, out, err = run(capsys, "verify", "--in", red, "--scheme", str(keyless))
    assert (code, err) == (2, "")
    report = lines_of(out)
    assert (report["key_secret"], report["key_dims"], report["all_pass"]) == ("false", "0", "false")
    got = run(capsys, "simulate", "--trials", "50", "--in", red, "--scheme", str(keyless))
    assert got == (1, "", "error: scheme has no key\n")
    code, out, err = run(capsys, "oracle-check", "--in", red, "--scheme", str(keyless))
    assert (code, err) == (0, "")
    report = lines_of(out)
    assert report["scheme_leakage_ok"] == report["oracle_ok"] == "true"
    assert "key_secrecy_ok" not in report


@pytest.mark.parametrize("command", ["verify", "simulate", "oracle-check"])
def test_verify_refuses_oversized_scheme_before_eliminating(capsys, tmp_path, wide_files, command):
    """A 3000-row scheme with no columns is refused by its row count before
    the command builds the 3000 x 3000 left-null basis of F."""
    import time

    inst, _ = wide_files
    bad = tmp_path / "big.txt"
    bad.write_text(
        "treepin-scheme q=2 n=2\nmodulus 1,1,1\nroot 0\ns 1\n"
        "owners\nfmat rows=3000 cols=0\nkeycols 0\n"
    )
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--in", inst, "--scheme", str(bad))
    elapsed = time.perf_counter() - start
    assert (code, out, err) == (1, "", "error: scheme does not match the source\n")
    assert elapsed < 0.1


@pytest.mark.parametrize("command", ["verify", "oracle-check"])
def test_scheme_commands_build_one_left_null_basis(capsys, monkeypatch, tmp_path, wide_files, command):
    """verify's structural and full checks, and oracle-check's structural
    checks and leakage, share the loaded scheme's one N."""
    built = count_null_builds(monkeypatch)
    inst, text = wide_files
    sch = tmp_path / "scheme.txt"
    sch.write_text(text)
    assert run(capsys, command, "--in", inst, "--scheme", str(sch))[0] == 0
    assert len(built) == 1


# ---------------------------------------------------------------------------
# Fuzzing both file parsers through the CLI

# replacement tokens: every integer in them, and every integer the strategy
# draws, is at most 99, so no mutation can ask for a huge matrix
FUZZ_TOKENS = (
    "0", "1", "2", "3", "7", "99", "-1", "+1", "01", "x", "", "=", "1,0",
    "0,1,1", "1,1,0", "2,0,0", "q=2", "q=3", "n=1", "n=3", "rows=0",
    "rows=2", "cols=0", "cols=99", "none", "edge", "fmat", "amat", "bmat",
    "keycols", "node=0", "edge=99",
)

# (kind, line index, token index or cut point out of 99, replacement)
_mutation = st.tuples(
    st.sampled_from(("token", "drop", "duplicate", "truncate")),
    st.integers(0, 99),
    st.integers(0, 99),
    st.sampled_from(FUZZ_TOKENS),
)


def mutate(text, mutations):
    """Apply the mutations in order: a token of a line replaced, a line
    dropped or duplicated, or the file cut after j/99 of its characters."""
    for kind, i, j, token in mutations:
        if kind == "truncate":
            text = text[: len(text) * j // 99]
            continue
        lines = text.split("\n")
        i %= len(lines)
        if kind == "token":
            parts = lines[i].split()
            if parts:
                parts[j % len(parts)] = token
                lines[i] = " ".join(parts)
        elif kind == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
        text = "\n".join(lines)
    return text


def quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def readme_chain(tmp_path_factory):
    """The README chain's red.txt and scheme.txt, and a directory for
    mutated copies."""
    d = tmp_path_factory.mktemp("fuzz")
    inst, red, sch = (str(d / name) for name in ("inst.txt", "red.txt", "scheme.txt"))
    assert quiet_main(["gen", "--seed", "2", "--vertices", "5", "--max-mult", "2",
                       "--q", "2", "--nw", "2", "--out", inst])[0] == 0
    assert quiet_main(["reduce", "--in", inst, "--out", red])[0] == 0
    assert quiet_main(["synth", "--in", red, "--method", "random", "--seed", "1",
                       "--out", sch])[0] == 0
    return d, (d / "red.txt").read_text(), (d / "scheme.txt").read_text()


def assert_resaves_to_a_fixed_point(text, load, save, error):
    try:
        loaded = load(text)
    except error:
        return
    once = save(loaded)
    assert save(load(once)) == once


@seed(20261020)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    red_mutations=st.lists(_mutation, max_size=2),
    scheme_mutations=st.lists(_mutation, max_size=3),
)
def test_mutated_files_exit_cleanly(readme_chain, red_mutations, scheme_mutations):
    """Mutated copies of the README chain's files go through analyze,
    verify, simulate and oracle-check in process: each exits 0, 1, 2 or 3
    and prints no traceback; a scheme verify refuses (exit 1) is refused by
    simulate and oracle-check --scheme with the same message; and any text
    a loader accepts re-saves to a fixed point."""
    d, red_text, scheme_text = readme_chain
    red_text = mutate(red_text, red_mutations)
    scheme_text = mutate(scheme_text, scheme_mutations)
    red, sch = d / "fuzz-red.txt", d / "fuzz-scheme.txt"
    red.write_text(red_text)
    sch.write_text(scheme_text)
    files = ["--in", str(red), "--scheme", str(sch)]
    got = {
        "analyze": quiet_main(["analyze", "--in", str(red)]),
        "verify": quiet_main(["verify", *files]),
        "simulate": quiet_main(["simulate", *files, "--trials", "8"]),
        "oracle-check": quiet_main(["oracle-check", *files]),
    }
    for code, _, err in got.values():
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
    code, _, err = got["verify"]
    if code == 1:
        assert got["simulate"] == (1, "", err)
        assert got["oracle-check"] == (1, "", err)
    assert_resaves_to_a_fixed_point(
        red_text, load_instance, lambda pair: save_instance(*pair), InstanceError
    )
    assert_resaves_to_a_fixed_point(scheme_text, load_scheme, save_scheme, SchemeError)
