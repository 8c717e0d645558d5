"""Command-line interface: subcommands, config precedence, exit codes, CSV."""

import functools
import os
import subprocess
import sys
import time
import tomllib
from pathlib import Path

import numpy as np
import pytest

from sgpd import PrimeField, code_geometry, read_matrix, write_matrix
from sgpd.codec import CodeGeometry
from sgpd.cli import main

from conftest import closed_form_thresholds, distinct_live_sums, triple_loop_product


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_verified_product(tmp_path, capsys):
    out = tmp_path / "c.mat"
    code = run_cli(
        "run", "--t", "3", "--s", "2", "--d", "2", "--pc", "2", "--P", "30",
        "--T", "6", "--S", "4", "--D", "6", "--modulus", "257", "--seed", "11",
        "--out", str(out),
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "case=secure-tall" in text
    assert "recovery_threshold=24" in text  # the run map's; the paper's map needs 25
    assert "success=True" in text
    assert "# command=run" in text
    decoded, modulus = read_matrix(out)
    assert modulus == 257 and decoded.shape == (6, 6)


def test_run_counts_the_live_sumset_once(monkeypatch, capsys):
    # build_plan checks the plan's own count, which decode then reads again
    counts = []
    original = CodeGeometry.__dict__["sum_counts"].func

    @functools.cached_property
    def sum_counts(self):
        counts.append((self.t, self.s, self.d, self.p_c))
        return original(self)

    sum_counts.__set_name__(CodeGeometry, "sum_counts")
    monkeypatch.setattr(CodeGeometry, "sum_counts", sum_counts)
    code = run_cli(
        "run", "--t", "2", "--s", "4", "--d", "2", "--pc", "2", "--P", "60",
        "--T", "8", "--S", "16", "--D", "8", "--modulus", "2147483647",
        "--model", "subset", "--responder-count", "26",
    )
    assert code == 0
    assert "success=True" in capsys.readouterr().out
    assert counts == [(2, 4, 2, 2)]


def test_run_without_collusion_verifies_wide_grid(capsys):
    # s >= t with P_C = 0: the verify step must compare against all of A and B
    code = run_cli(
        "run", "--t", "2", "--s", "2", "--d", "2", "--pc", "0", "--P", "12",
        "--T", "4", "--S", "4", "--D", "4", "--seed", "3",
    )
    assert code == 0
    assert "success=True" in capsys.readouterr().out


def test_run_from_files_checks_out_exactly(tmp_path):
    field = PrimeField(101)
    rng = np.random.default_rng(5)
    a = field.random_array((4, 6), rng)
    b = field.random_array((6, 2), rng)
    write_matrix(tmp_path / "a.mat", a, 101)
    write_matrix(tmp_path / "b.mat", b, 101)
    out = tmp_path / "c.mat"
    code = run_cli(
        "run", "--t", "2", "--s", "3", "--d", "1", "--pc", "1", "--P", "20",
        "--a", str(tmp_path / "a.mat"), "--b", str(tmp_path / "b.mat"),
        "--out", str(out), "--model", "subset", "--responder-count", "15",
    )
    assert code == 0
    decoded, modulus = read_matrix(out)
    assert modulus == 101
    assert np.array_equal(decoded, triple_loop_product(a, b, 101))


def test_run_modulus_conflict_with_files(tmp_path, capsys):
    field = PrimeField(101)
    rng = np.random.default_rng(6)
    write_matrix(tmp_path / "a.mat", field.random_array((2, 2), rng), 101)
    write_matrix(tmp_path / "b.mat", field.random_array((2, 2), rng), 101)
    code = run_cli(
        "run", "--t", "2", "--s", "1", "--d", "2", "--pc", "0", "--P", "8",
        "--a", str(tmp_path / "a.mat"), "--b", str(tmp_path / "b.mat"),
        "--modulus", "257",
    )
    assert code == 2



def _write_4x2_and_2x4(tmp_path):
    field = PrimeField(101)
    rng = np.random.default_rng(8)
    write_matrix(tmp_path / "a.mat", field.random_array((4, 2), rng), 101)
    write_matrix(tmp_path / "b.mat", field.random_array((2, 4), rng), 101)
    return ["--a", str(tmp_path / "a.mat"), "--b", str(tmp_path / "b.mat")]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key,value", [("modulus", 257), ("T", 99), ("S", 5), ("D", 3)])
def test_run_refuses_values_that_contradict_the_files(tmp_path, capsys, source, key, value):
    # A is 4x2 and B 2x4 over GF(101): a value the files contradict is refused,
    # whether it comes from a flag or from the config file
    argv = ["run", "--t", "2", "--s", "1", "--d", "2", "--P", "6", *_write_4x2_and_2x4(tmp_path)]
    if source == "flag":
        argv += [f"--{key}", str(value)]
    else:
        (tmp_path / "run.cfg").write_text(f"{key}={value}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert "success=" not in captured.out
    assert f"{key}={value} contradicts the input files" in captured.err


def test_run_accepts_values_that_match_the_files(tmp_path, capsys):
    code = run_cli(
        "run", "--t", "2", "--s", "1", "--d", "2", "--P", "6", *_write_4x2_and_2x4(tmp_path),
        "--modulus", "101", "--T", "4", "--S", "2", "--D", "4",
    )
    assert code == 0
    assert "success=True" in capsys.readouterr().out


@pytest.mark.parametrize(
    "b_shape,b_modulus,message",
    [((2, 4), 103, "input moduli differ: 101 vs 103"),
     ((3, 4), 101, "inner dimensions disagree: A is (4, 2), B is (3, 4)")],
    ids=["moduli", "inner"],
)
def test_run_refuses_input_files_that_disagree(tmp_path, capsys, b_shape, b_modulus, message):
    argv = _write_4x2_and_2x4(tmp_path)
    write_matrix(tmp_path / "b.mat", np.ones(b_shape, np.int64), b_modulus)
    assert run_cli("run", "--t", "2", "--s", "1", "--d", "2", "--P", "6", *argv) == 2
    captured = capsys.readouterr()
    assert "success=" not in captured.out
    assert message in captured.err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_run_refuses_an_unknown_model(tmp_path, capsys, source):
    argv = ["run", "--t", "2", "--s", "1", "--d", "1", "--P", "4", "--T", "2", "--S", "1",
            "--D", "1"]
    if source == "flag":
        argv += ["--model", "nope"]
    else:
        (tmp_path / "run.cfg").write_text("model=nope\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert "success=" not in captured.out
    assert "unknown model 'nope' (expected fixed|subset|latency)" in captured.err

def test_run_decode_failure_exits_one(capsys):
    # (3,2,2,2) keeps the run map, whose support 0..20, 24..26 has a gap: these
    # 24 responders, as many as the threshold, give a singular system mod 257
    responders = [*range(1, 9), 11, 12, 13, 15, 16, 17, *range(19, 25), 26, 27, 29, 30]
    code = run_cli(
        "run", "--t", "3", "--s", "2", "--d", "2", "--pc", "2", "--P", "30",
        "--T", "6", "--S", "4", "--D", "6",
        "--model", "fixed", "--responders", ",".join(map(str, responders)),
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "recovery_threshold=24" in out and len(responders) == 24
    assert "success=False" in out and "cause=SingularSystemError: " in out


def test_run_missing_parameters_exit_two(capsys):
    assert run_cli("run", "--t", "2", "--s", "1") == 2
    assert "missing required" in capsys.readouterr().err


def test_run_composite_modulus_exits_two(capsys):
    code = run_cli(
        "run", "--t", "2", "--s", "1", "--d", "1", "--P", "4",
        "--T", "2", "--S", "1", "--D", "1", "--modulus", "100",
    )
    assert code == 2


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--shift", "nan"], "shift"),
        (["--shift", "inf"], "shift"),
        (["--seed", "-1"], "seed"),
        (["--seed", "-1", "--model", "subset", "--responder-count", "6"], "seed"),
        (["--trial", "-1"], "trial"),
        (["--trial", "-1", "--model", "subset", "--responder-count", "6"], "trial"),
        (["--trial", "-5", "--model", "fixed", "--responders", "1,2,3,4,5,6"], "trial"),
    ],
    ids=[
        "shift=nan", "shift=inf", "seed=-1", "subset-seed=-1",
        "trial=-1", "subset-trial=-1", "fixed-trial=-5",
    ],
)
def test_run_rejects_bad_straggler_settings(capsys, extra, message):
    # a bad flag must exit 2 with a named error, not read as a failed run
    code = run_cli(
        "run", "--t", "2", "--s", "1", "--d", "1", "--pc", "1", "--P", "8",
        "--T", "4", "--S", "2", "--D", "2", *extra,
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "success=" not in captured.out
    assert message in captured.err


@pytest.mark.parametrize(
    "dims,message", [("0 4 4", "T=0"), ("-6 4 4", "T=-6")], ids=["T=0", "T=-6"]
)
def test_run_rejects_empty_or_negative_dimensions(capsys, dims, message):
    # an empty product must not be reported as a successful run
    big_t, big_s, big_d = dims.split()
    code = run_cli(
        "run", "--t", "2", "--s", "1", "--d", "1", "--P", "4",
        "--T", big_t, "--S", big_s, "--D", big_d,
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "success=" not in captured.out
    assert message in captured.err


def test_run_rejects_empty_matrix_files(tmp_path, capsys):
    for name in ("a.mat", "b.mat"):
        (tmp_path / name).write_text("0 0 257\n")
    code = run_cli(
        "run", "--t", "1", "--s", "1", "--d", "1", "--P", "4",
        "--a", str(tmp_path / "a.mat"), "--b", str(tmp_path / "b.mat"),
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "success=" not in captured.out
    assert "T=0" in captured.err


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "audit.cfg"
    cfg.write_text(
        "t=2\ns=1\nd=1\npc=1\nworkers=4\nT=2\nS=1\nD=1\nmodulus=5\n# comment\n"
    )
    assert run_cli("audit", "--config", str(cfg)) == 0
    text = capsys.readouterr().out
    assert "# modulus=5" in text and "verdict=SECURE" in text
    # flags beat the file: shrink the pool and change the field
    assert run_cli("audit", "--config", str(cfg), "--modulus", "3", "--P", "2") == 0
    text = capsys.readouterr().out
    assert "# modulus=3" in text and "# workers=2" in text


@pytest.mark.parametrize(
    "line,code,message",
    [("negative_control=false", 0, "verdict=SECURE"),
     ("negative_control=maybe", 2, "config key 'negative_control': not a boolean: 'maybe'"),
     ("t=two", 2, "config key 't': invalid literal for int()")],
    ids=["switch-off", "bad-switch", "bad-int"],
)
def test_audit_config_values_are_converted(tmp_path, capsys, line, code, message):
    cfg = tmp_path / "audit.cfg"
    cfg.write_text(f"t=2\ns=1\nd=1\npc=1\nworkers=4\nT=2\nS=1\nD=1\nmodulus=5\n{line}\n")
    assert run_cli("audit", "--config", str(cfg)) == code
    captured = capsys.readouterr()
    assert message in (captured.out if code == 0 else captured.err)


def test_audit_out_holds_what_it_prints(tmp_path, capsys):
    out = tmp_path / "audit.txt"
    assert run_cli(
        "audit", "--t", "2", "--s", "1", "--d", "1", "--pc", "1", "--P", "4",
        "--T", "2", "--S", "1", "--D", "1", "--modulus", "5", "--out", str(out),
    ) == 0
    printed = capsys.readouterr().out
    assert printed.endswith("verdict=SECURE\n") and out.read_text() == printed


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("t=2\nbogus=1\n")
    assert run_cli("audit", "--config", str(cfg)) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_rejects_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("t 2\n")
    assert run_cli("audit", "--config", str(cfg)) == 2


def test_audit_exit_codes(tmp_path, capsys):
    base = [
        "audit", "--t", "2", "--s", "1", "--d", "1", "--pc", "1", "--P", "4",
        "--T", "2", "--S", "1", "--D", "1", "--modulus", "5",
    ]
    assert run_cli(*base) == 0
    capsys.readouterr()
    assert run_cli(*base, "--negative-control") == 1
    assert "verdict=INSECURE" in capsys.readouterr().out
    # the audit is capped by its coalition count, not by an option
    with pytest.raises(SystemExit) as info:
        run_cli(*base, "--budget", "10")
    assert info.value.code == 2
    config = tmp_path / "budget.cfg"
    config.write_text("budget=10\n")
    assert run_cli(*base, "--config", str(config)) == 2
    assert "unknown config key 'budget'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--t", "2", "--s", "1", "--d", "1", "--pc", "1", "--P", "4",
         "--T", "2", "--S", "1", "--D", "1", "--modulus", "5", "--seed", "1"],
        ["sweep", "--m", "4", "--n", "4", "--P", "10", "--seed", "1"],
    ],
    ids=["audit", "sweep"],
)
def test_deterministic_commands_take_no_seed(capsys, argv):
    # audit and sweep draw nothing at random, so a seed is an unknown option
    with pytest.raises(SystemExit) as info:
        run_cli(*argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--seed" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--t", "2", "--s", "1", "--d", "1", "--pc", "1", "--P", "4",
         "--T", "2", "--S", "1", "--D", "1", "--modulus", "5"],
        ["sweep", "--m", "4", "--n", "4", "--P", "10"],
    ],
    ids=["audit", "sweep"],
)
def test_deterministic_commands_refuse_a_seed_in_config(tmp_path, capsys, argv):
    config = tmp_path / "seed.cfg"
    config.write_text("seed=1\n")
    assert run_cli(*argv, "--config", str(config)) == 2
    assert "seed" in capsys.readouterr().err
    assert run_cli(*argv) in (0, 1)  # SECURE or INSECURE; only the seed was refused
    assert "# seed=" not in capsys.readouterr().out


def test_sweep_takes_no_modulus(tmp_path, capsys):
    # the sweep reads geometries only, so a modulus (here a composite one)
    # is an unknown option and an unknown config key, never echoed
    argv = ["sweep", "--m", "4", "--n", "4", "--P", "10"]
    with pytest.raises(SystemExit) as info:
        run_cli(*argv, "--modulus", "4")
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--modulus" in captured.err
    config = tmp_path / "modulus.cfg"
    config.write_text("modulus=4\n")
    assert run_cli(*argv, "--config", str(config)) == 2
    assert "unknown config key 'modulus'" in capsys.readouterr().err
    assert run_cli(*argv) == 0
    assert "# modulus=" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "override,message",
    [
        (["--t", "0"], "t must be >= 1"),
        (["--T", "0", "--S", "0", "--D", "0"], "T=0"),
        (["--T", "-2"], "T=-2"),
    ],
    ids=["t=0", "TSD=0", "T=-2"],
)
def test_audit_rejects_empty_or_negative_dimensions(capsys, override, message):
    # exit 1 means INSECURE, so a bad instance must exit 2 with a named error
    base = {
        "--t": "2", "--s": "1", "--d": "1", "--pc": "1", "--P": "4",
        "--T": "2", "--S": "1", "--D": "1", "--modulus": "5",
    }
    base.update(zip(override[::2], override[1::2]))
    assert run_cli("audit", *[x for kv in base.items() for x in kv]) == 2
    captured = capsys.readouterr()
    assert "verdict=" not in captured.out
    assert message in captured.err


def test_audit_reaches_the_wide_cli_plan_at_full_size(capsys):
    # p**(data + random entries) has about 764,000 digits, but the verdict is
    # a pair of ranks for each of the 1,770 coalitions
    assert run_cli(
        "audit", "--t", "2", "--s", "4", "--d", "2", "--pc", "2", "--P", "60",
        "--T", "128", "--S", "256", "--D", "128", "--modulus", "2147483647",
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "verdict=SECURE"
    assert sum(line.startswith("subset=") for line in lines) == 1770


def test_audit_shows_the_small_field_leak_of_a_two_band_code(capsys):
    # 16**4 = 1 mod 257, so workers 1 and 16 (and 15 and 17) draw the same
    # randomness on B and see its data
    assert run_cli(
        "audit", "--t", "2", "--s", "2", "--d", "2", "--pc", "2", "--P", "19",
        "--T", "2", "--S", "2", "--D", "2", "--modulus", "257",
    ) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "INSECURE" in line] == [
        "subset=1,16 verdict=INSECURE rank_random=2 rank_view=4",
        "subset=15,17 verdict=INSECURE rank_random=2 rank_view=4",
        "verdict=INSECURE",
    ]


@pytest.mark.parametrize(
    "pc,workers,count,size",
    [("2", "1000", "499500", 12), ("40", "1000", "about 10^71", 3280), ("199", "200", "200", 79600)],
    ids=["pc=2", "pc=40", "pc=199"],
)
def test_audit_past_the_coalition_cap_exits_3(capsys, pc, workers, count, size):
    # refused before any rank is taken; C(1000, 40) has 72 digits and is
    # written as a power of ten; 200 coalitions of 199 workers are few, but
    # their rank pairs are large
    assert run_cli(
        "audit", "--t", "1", "--s", "1", "--d", "1", "--pc", pc, "--P", workers,
        "--T", "1", "--S", "1", "--D", "1", "--modulus", "1009",
    ) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the audit checks {count} coalitions of {size} rank entries each, "
        "past the cap of 400000 in all\n"
    )


def test_audit_of_a_huge_pool_is_refused_in_bounded_time(capsys):
    # C(10^6, 5 * 10^5) has 301,027 digits: the cap is decided after a few
    # terms of the product, and the count is named by its power of ten
    start = time.perf_counter()
    assert run_cli(
        "audit", "--t", "1", "--s", "1", "--d", "1", "--pc", "500000", "--P", "1000000",
        "--T", "1", "--S", "1", "--D", "1", "--modulus", "1000003",
    ) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: the audit checks about 10^301026 coalitions of 500001000000 rank entries "
        "each, past the cap of 400000 in all\n"
    )


# Full stdout and exit code of the four audits that the design-audit benchmark
# runs: secure-tall over GF(7) and secure-wide over GF(11), each with its
# negative control.
PINNED_AUDITS = {
    "--t 2 --s 1 --d 2 --pc 1 --P 3 --T 2 --S 1 --D 2 --modulus 7": (0, """\
# command=audit
# D=2
# S=1
# T=2
# d=2
# modulus=7
# negative_control=False
# pc=1
# s=1
# t=2
# workers=3
instance t=2 s=1 d=2 pc=1 workers=3 modulus=7 T=2 S=1 D=2 negative_control=False
subset=1 verdict=SECURE rank_random=2 rank_view=2
subset=2 verdict=SECURE rank_random=2 rank_view=2
subset=3 verdict=SECURE rank_random=2 rank_view=2
verdict=SECURE
"""),
    "--t 2 --s 1 --d 2 --pc 1 --P 3 --T 2 --S 1 --D 2 --modulus 7 --negative-control": (1, """\
# command=audit
# D=2
# S=1
# T=2
# d=2
# modulus=7
# negative_control=True
# pc=1
# s=1
# t=2
# workers=3
instance t=2 s=1 d=2 pc=1 workers=3 modulus=7 T=2 S=1 D=2 negative_control=True
subset=1 verdict=INSECURE rank_random=0 rank_view=2
subset=2 verdict=INSECURE rank_random=0 rank_view=2
subset=3 verdict=INSECURE rank_random=0 rank_view=2
verdict=INSECURE
"""),
    "--t 1 --s 1 --d 2 --pc 1 --P 3 --T 1 --S 1 --D 2 --modulus 11": (0, """\
# command=audit
# D=2
# S=1
# T=1
# d=2
# modulus=11
# negative_control=False
# pc=1
# s=1
# t=1
# workers=3
instance t=1 s=1 d=2 pc=1 workers=3 modulus=11 T=1 S=1 D=2 negative_control=False
subset=1 verdict=SECURE rank_random=2 rank_view=2
subset=2 verdict=SECURE rank_random=2 rank_view=2
subset=3 verdict=SECURE rank_random=2 rank_view=2
verdict=SECURE
"""),
    "--t 1 --s 1 --d 2 --pc 1 --P 3 --T 1 --S 1 --D 2 --modulus 11 --negative-control": (1, """\
# command=audit
# D=2
# S=1
# T=1
# d=2
# modulus=11
# negative_control=True
# pc=1
# s=1
# t=1
# workers=3
instance t=1 s=1 d=2 pc=1 workers=3 modulus=11 T=1 S=1 D=2 negative_control=True
subset=1 verdict=INSECURE rank_random=0 rank_view=2
subset=2 verdict=INSECURE rank_random=0 rank_view=2
subset=3 verdict=INSECURE rank_random=0 rank_view=2
verdict=INSECURE
"""),
}


@pytest.mark.parametrize(
    "flags", list(PINNED_AUDITS), ids=["tall", "tall-control", "wide", "wide-control"]
)
def test_audit_report_is_pinned(capsys, flags):
    code, stdout = PINNED_AUDITS[flags]
    assert run_cli("audit", *flags.split()) == code
    assert capsys.readouterr().out == stdout


def test_sweep_golden_values(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--m", "4", "--n", "4", "--P", "50", "--pc-list", "0,1",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    assert "# command=sweep" in header and "# m=4" in header
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    assert rows[0] == "pc,t,s,d,case,P_R,C_L_over_TD,naive_P_R,feasible,frontier"
    assert rows[1:] == [
        "0,1,4,1,non-secure,7,7,,true,true",
        "0,2,2,2,non-secure,9,9/4,,true,true",
        "0,4,1,4,non-secure,16,1,16,true,true",
        "1,1,4,1,secure-wide,9,9,,true,true",
        "1,2,2,2,secure-wide,15,15/4,,true,true",
        "1,4,1,4,secure-tall,24,3/2,25,true,true",
    ]
    # the tall row keeps the run map: 24 against the paper's 25, which is
    # also this row's naive_P_R
    forms = closed_form_thresholds(4, 1, 4, 1)
    assert (forms["runs"], forms["tall"], forms["naive_tall"]) == (24, 25, 25)
    # the two-band row counts the distinct live sums, by brute force too
    assert distinct_live_sums(code_geometry(2, 2, 2, 1)) == 15


def test_sweep_naive_column_never_smaller(tmp_path):
    out = tmp_path / "sweep12.csv"
    assert run_cli(
        "sweep", "--m", "12", "--n", "12", "--P", "3000",
        "--pc-list", "0,1,2,3,4", "--out", str(out),
    ) == 0
    strict = 0
    for line in out.read_text().splitlines():
        if line.startswith("#") or line.startswith("pc,") or not line:
            continue
        parts = line.split(",")
        t, s = int(parts[1]), int(parts[2])
        if s >= t:
            assert parts[7] == ""  # baseline defined only for s < t
            continue
        p_r, naive = int(parts[5]), int(parts[7])
        assert naive >= p_r, line
        strict += naive > p_r
    assert strict > 0


def test_sweep_frontier_flags(tmp_path):
    out = tmp_path / "sweep36.csv"
    assert run_cli("sweep", "--m", "36", "--n", "36", "--P", "3000",
                   "--pc-list", "11", "--out", str(out)) == 0
    rows = [
        ln.split(",") for ln in out.read_text().splitlines()
        if ln and not ln.startswith(("#", "pc,"))
    ]
    marked = [(int(r[5]), r[6]) for r in rows if r[9] == "true"]
    # frontier rows must be mutually non-dominating in (P_R, C_L)
    from fractions import Fraction

    pts = [(p, Fraction(c)) for p, c in marked]
    for i, (p1, c1) in enumerate(pts):
        for j, (p2, c2) in enumerate(pts):
            if i != j:
                assert not (p2 <= p1 and c2 <= c1 and (p2 < p1 or c2 < c1))


def test_sweep_rejects_bad_dimensions(capsys):
    assert run_cli("sweep", "--m", "0", "--n", "4", "--P", "10") == 2
    # an empty pool must not print every row as infeasible and exit 0
    assert run_cli("sweep", "--m", "4", "--n", "4", "--P", "0") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "worker" in captured.err



@pytest.mark.parametrize(
    "argv,files",
    [
        (["run", "--t", "3", "--s", "2", "--d", "2", "--pc", "2", "--P", "30",
          "--T", "6", "--S", "4", "--D", "6", "--seed", "11", "--model", "subset",
          "--responder-count", "27", "--shift", "0.5", "--trial", "2"], False),
        (["run", "--t", "2", "--s", "1", "--d", "2", "--pc", "1", "--P", "10",
          "--model", "fixed", "--responders", "1,3,5,7,9,2,4,6,8"], True),
        (["sweep", "--m", "4", "--n", "4", "--P", "50", "--pc-list", "0,1"], False),
        (["sweep", "--m", "2", "--n", "2", "--P", "5", "--out", "a#b/s.csv"], False),
        (["audit", "--t", "2", "--s", "1", "--d", "2", "--pc", "1", "--P", "3",
          "--T", "2", "--S", "1", "--D", "2", "--modulus", "7", "--negative-control"], False),
    ],
    ids=["run", "run-files", "sweep", "sweep-out-with-hash", "audit-control"],
)
def test_header_reads_back_as_a_config(tmp_path, monkeypatch, capsys, argv, files):
    # the '# key=value' header of an output, given back as --config with no
    # other flag, reproduces that output and its exit code exactly; a '#'
    # inside a value ("a#b/s.csv") does not start a comment
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a#b").mkdir()
    out = tmp_path / "a#b" / "s.csv"

    def output():
        text = capsys.readouterr().out
        if out.exists():
            text += out.read_text()
            out.unlink()
        return text

    if files:
        argv = argv + _write_4x2_and_2x4(tmp_path)
    code = run_cli(*argv)
    text = output()
    header = [
        line[2:] for line in text.splitlines()
        if line.startswith("# ") and not line.startswith("# command=")
    ]
    assert header
    config = tmp_path / "header.cfg"
    config.write_text("\n".join(header) + "\n")
    assert run_cli(argv[0], "--config", str(config)) == code
    assert output() == text
    assert not (tmp_path / "a").exists()

ROOT = Path(__file__).resolve().parents[1]


def test_consecutive_calls_match_fresh_processes(capsys):
    # main() reuses one parser; a value given to one call must not reach the
    # next, so the last run shows the defaults (seed 0, p = 257, latency model)
    calls = [
        ["audit", "--t", "1", "--s", "1", "--d", "2", "--pc", "1", "--P", "3",
         "--T", "1", "--S", "1", "--D", "2", "--modulus", "11",
         "--negative-control"],
        ["run", "--t", "2", "--s", "1", "--d", "2", "--pc", "1", "--P", "10",
         "--T", "4", "--S", "2", "--D", "4", "--seed", "5", "--modulus", "101",
         "--model", "subset", "--responder-count", "9"],
        ["run", "--t", "2", "--s", "1", "--d", "2", "--pc", "1", "--P", "10",
         "--T", "4", "--S", "2", "--D", "4"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for argv in calls:
        code = main(argv)
        text = capsys.readouterr().out
        proc = subprocess.run(
            [sys.executable, "-m", "sgpd", *argv], capture_output=True, text=True, env=env
        )
        assert (code, text) == (proc.returncode, proc.stdout), argv[0]
    assert code == 0
    assert "# seed=0" in text and "# modulus=257" in text and "# model=latency" in text


def test_console_script_help_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sgpd", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "sweep" in proc.stdout and "audit" in proc.stdout
    # the installed `sgpd` script runs the same entry point
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"]["sgpd"] == "sgpd.cli:main"
