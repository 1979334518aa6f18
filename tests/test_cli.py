"""CLI surface: flag parsing, exit codes, reproducible output."""

import io
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cf2 import towers
from cf2.cli import EXIT_PIPE, _spec_echo, _spec_from_args, build_parser, main, parse_spec_text
from cf2.identities import run_identity_suite
from cf2.laurent import LaurentSeries
from cf2.words import GSpec, PSpec


RATIONAL = ["relation", "--num", "1", "--den", "z+1", "--degx", "2", "--prec", "128"]


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_gen_family_p():
    code, out = run_cli("gen", "--family", "P", "--w0", "", "--eps", "10", "--len", "8")
    assert code == 0
    assert out.splitlines()[-1] == "10111010"


def test_gen_family_g():
    code, out = run_cli("gen", "--family", "G", "--u0", "a", "--v0", "b", "--ups", "1", "--len", "8")
    assert code == 0
    assert out.splitlines()[-1] == "abbabaab"


def test_gen_spec_text_form():
    code, out = run_cli("gen", "--spec", "P w0= eps=10", "--len", "8")
    assert code == 0 and out.splitlines()[-1] == "10111010"


def test_parse_spec_text():
    assert parse_spec_text("P w0=ab eps=c") == PSpec("ab", "c")
    assert parse_spec_text("G u0=a v0=b ups=01") == GSpec("a", "b", "01")
    with pytest.raises(Exception):
        parse_spec_text("Q x=1")


@pytest.mark.parametrize(
    "spec",
    [PSpec("", "10"), PSpec("ab", "cab"), GSpec("a", "b", "1"), GSpec("ab", "bba", "0110")],
)
def test_spec_echo_parses_back(spec):
    assert parse_spec_text(_spec_echo(spec)) == spec


@pytest.mark.parametrize(
    "argv, want",
    [
        (["--family", "G", "--u0", "a", "--v0", "b", "--ups", "1", "--eps", "10"], GSpec("a", "b", "1")),
        (["--family", "P", "--eps", "10", "--u0", "a", "--v0", "b", "--ups", "1"], PSpec("", "10")),
        # without --family, the first family whose period word is given
        (["--eps", "10", "--u0", "a", "--v0", "b", "--ups", "1"], PSpec("", "10")),
        (["--w0", "1", "--u0", "a", "--v0", "b", "--ups", "1"], GSpec("a", "b", "1")),
    ],
)
def test_family_flag_wins_over_the_word_flags(argv, want):
    # the family flag, or else the first given period word, picks the
    # spec; the other family's word flags are refused, not dropped
    args = build_parser().parse_args(["gen", *argv, "--len", "4"])
    read = {"--family", *(f"--{name}" for name in vars(want))}
    unread = [flag for flag in argv[::2] if flag not in read]
    with pytest.raises(ValueError, match=f"^{' '.join(unread)} not read by the spec "):
        _spec_from_args(args)
    kept = [x for flag, value in zip(argv[::2], argv[1::2]) if flag not in unread for x in (flag, value)]
    assert _spec_from_args(build_parser().parse_args(["gen", *kept, "--len", "4"])) == want


@pytest.mark.parametrize(
    "argv, err",
    [
        (["theorem1", "--eps", "10", "--ups", "11"], "--ups not read by the spec 'P w0= eps=10'"),
        (["gen", "--eps", "10", "--ups", "1", "--len", "4"], "--ups not read by the spec 'P w0= eps=10'"),
        (["tower-trace", "--spec", "P w0= eps=10", "--ups", "11"],
         "--ups not read by the spec 'P w0= eps=10'"),
        (["theorem2", "--spec", "G u0=a v0=b ups=11", "--eps", "", "--u0", "b", "--map", "a=z,b=z+1"],
         "--eps --u0 not read by the spec 'G u0=a v0=b ups=11'"),
        (["identities", "--all", "--check", "pair-products"],
         "--all runs every check, not only --check pair-products"),
        # the rational path of relation builds no spec and reads no map
        ([*RATIONAL, "--eps", "10"], "--eps not read with --num and --den"),
        ([*RATIONAL, "--map", "0=z"], "--map not read with --num and --den"),
        ([*RATIONAL, "--spec", "P w0= eps=10", "--family", "P", "--u0", ""],
         "--spec --family --u0 not read with --num and --den"),
        # a --family that contradicts --spec, for every spec command
        (["gen", "--family", "G", "--spec", "P w0= eps=10", "--len", "4"],
         "--family G contradicts the spec 'P w0= eps=10'"),
        (["tower-trace", "--family", "G", "--spec", "P w0= eps=10", "--steps", "1"],
         "--family G contradicts the spec 'P w0= eps=10'"),
        (["relation", "--family", "P", "--spec", "G u0=a v0=b ups=11", "--map", "a=z,b=z+1", "--degx", "4"],
         "--family P contradicts the spec 'G u0=a v0=b ups=11'"),
        (["theorem1", "--family", "G", "--spec", "P w0= eps=10"], "--family G contradicts the spec 'P w0= eps=10'"),
        (["theorem2", "--family", "P", "--spec", "G u0=a v0=b ups=11", "--map", "a=z,b=z+1"],
         "--family P contradicts the spec 'G u0=a v0=b ups=11'"),
        (["corollary", "--family", "G", "--spec", "P w0= eps=10"], "--family G contradicts the spec 'P w0= eps=10'"),
    ],
)
def test_flags_the_run_would_not_read_are_refused_before_the_echo(argv, err, capsys):
    assert main(argv) == 2
    out, got = capsys.readouterr()
    assert got.splitlines() == [f"error: {err}"] and out == ""


def test_flags_the_run_reads_are_accepted():
    # controls: a --family that agrees with --spec, and --num/--den alone
    argv = ["--spec", "P w0= eps=10", "--len", "4"]
    assert run_cli("gen", "--family", "P", *argv) == run_cli("gen", *argv)
    code, out = run_cli(*RATIONAL)
    assert code == 0 and out.startswith("config command=relation num=1 den=z+1 degx=2 prec=128 ")


def test_all_with_check_all_runs_the_battery():
    code, out = run_cli("identities", "--all", "--check", "all", "--trials", "1", "--max-word-len", "2")
    assert code == 0 and out.splitlines()[0].startswith("config command=identities check=all trials=1 ")


def test_sigma_and_inverse():
    code, out = run_cli("sigma", "--word", "10111010")
    assert code == 0 and out.splitlines()[-1] == "011010011"
    code, out = run_cli("sigma", "--word", "011010011", "--inverse")
    assert code == 0 and out.splitlines()[-1] == "10111010"


def test_sigma_inverse_too_short_is_usage_error():
    code, _ = run_cli("sigma", "--word", "1", "--inverse")
    assert code == 2


def test_cf_series_output():
    code, out = run_cli("cf", "--word", "zzz", "--map", "z=z", "--prec", "8")
    assert code == 0
    assert out.splitlines()[-1] == "z + z^-1 + z^-3 + z^-5 + z^-7 + O(z^-8)"


def test_cf_short_word_still_works():
    code, out = run_cli("cf", "--word", "ab", "--map", "a=z,b=z+1", "--prec", "16")
    assert code == 0 and "O(z^-16)" in out.splitlines()[-1]


def test_constant_specialization_rejected():
    code, _ = run_cli("cf", "--word", "ab", "--map", "a=1,b=z", "--prec", "64")
    assert code == 2


def test_unmapped_letter_rejected(monkeypatch, capsys):
    # the CLI's map check and the towers' letter inverses share one check
    calls = []
    check_covers = towers.SpecMap.check_covers

    def spy(sp, alphabet):
        calls.append(sorted(alphabet))
        return check_covers(sp, alphabet)

    monkeypatch.setattr(towers.SpecMap, "check_covers", spy)
    assert main(["cf", "--word", "abqr", "--map", "a=z,b=z+1", "--prec", "64"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: unmapped letters ['q', 'r']\n")
    with pytest.raises(ValueError, match=r"^unmapped letters \['q'\]$"):
        towers.p_tower(PSpec("a", "bq"), towers.SpecMap.parse("a=z,b=z+1"), 64)
    assert calls == [["a", "b", "q", "r"], ["a", "b", "q"]]


def test_default_binary_map():
    code, out = run_cli("cf", "--word", "0110", "--prec", "16")
    assert code == 0


def test_tower_trace_format():
    code, out = run_cli(
        "tower-trace", "--family", "P", "--w0", "", "--eps", "10", "--steps", "4",
        "--prec", "128",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("step=")]
    assert len(lines) == 4
    assert lines[0].startswith("step=1 val(d)=2 val(L-1)=")


def test_identities_single_check():
    code, out = run_cli(
        "identities", "--check", "pair-products", "--trials", "10", "--seed", "3"
    )
    assert code == 0
    assert "pair-products pass trials=10 field=GF(2^16) seed=0x3" in out


def test_identities_echo_names_the_settings_the_checks_read():
    # the config line tells apart runs that walk driver words of different
    # lengths, and names no setting the selected checks ignore
    def config(*argv):
        code, out = run_cli("identities", *argv)
        assert code == 0
        return out.splitlines()[0]

    three, four = (config("--all", "--trials", "1", "--max-word-len", n, "--prec", "128") for n in "34")
    assert three != four
    assert " max_word_len=3 " in three and " max_word_len=4 " in four
    assert " max_word_len=2 " in config("--check", "closed-form", "--trials", "1", "--max-word-len", "2")
    # only valuation-bounds reads prec, and it draws nothing, so reads no seed
    assert config("--check", "pair-products", "--trials", "1") == (
        "config command=identities check=pair-products trials=1 m=16 seed=0x1"
    )
    assert config("--check", "valuation-bounds", "--trials", "7", "--m", "8") == (
        "config command=identities check=valuation-bounds prec=512"
    )


def test_relation_rational():
    code, out = run_cli("relation", "--num", "1", "--den", "z+1", "--degx", "2", "--prec", "128")
    assert code == 0
    assert "X^1*(z+1) + X^0*(1)" in out
    assert "degree=1" in out


def test_relation_rational_honours_degz_zero():
    # 1/(z+1) needs degZ 1, so a degZ-0 search must come back empty
    code, out = run_cli(
        "relation", "--num", "1", "--den", "z+1", "--degx", "2", "--degz", "0", "--prec", "128"
    )
    assert code == 1
    assert out.splitlines()[0].startswith("config command=relation num=1 den=z+1 degx=2 degz=0 ")
    assert out.splitlines()[-1] == "relation none"


def test_relation_spec_miss_exits_one():
    # eps=110 has degree 8 (degree-ladder rung P3), so none of degree <= 2 exists
    code, out = run_cli("relation", "--spec", "P w0= eps=110", "--degx", "2", "--prec", "256")
    assert code == 1
    assert out.splitlines()[-1] == "relation none degX<=2 degZ=670 prec=2048"


@pytest.mark.parametrize(
    "num,den,degx,degz,need",
    [
        # z^32 is a pole: phi^0 = t^96 * 1 is 0 to the order 96 of phi^3's
        # window, so no degZ is certified below 64 + 2 * 32 + 4
        ("z^32", "1", "3", None, 100),
        ("1", "z+1", "40", None, 73),
        ("1", "z+1", "2", "20", 95),
    ],
)
def test_relation_rational_uncertified_degz_is_usage_error(capsys, num, den, degx, degz, need):
    argv = ["relation", "--num", num, "--den", den, "--degx", degx, "--prec", "64"]
    code, out = run_cli(*argv, *(["--degz", degz] if degz else []))
    assert code == 2
    assert out.splitlines()[-1].startswith("config command=relation ")
    assert capsys.readouterr().err.strip().endswith(f"needs precision {need}, got 64")


def test_theorem2_thue_morse_cli():
    code, out = run_cli(
        "theorem2", "--u0", "a", "--v0", "b", "--ups", "1",
        "--map", "a=z,b=z+1", "--prec", "256",
    )
    assert code == 0
    assert "theorem-g pass" in out
    assert "degree=4" in out


def test_theorem2_odd_swaps_usage_error():
    code, _ = run_cli(
        "theorem2", "--u0", "a", "--v0", "b", "--ups", "10",
        "--map", "a=z,b=z+1", "--prec", "128",
    )
    assert code == 2


def test_theorem1_cli():
    code, out = run_cli("theorem1", "--w0", "", "--eps", "10", "--prec", "256")
    assert code == 0 and "theorem-p pass" in out


def test_prec_minimum_for_search_commands():
    code, _ = run_cli("relation", "--num", "1", "--den", "z+1", "--degx", "2", "--prec", "32")
    assert code == 2


def test_byte_identical_reruns():
    args = ("identities", "--check", "pair-products", "--trials", "5", "--seed", "7")
    assert run_cli(*args) == run_cli(*args)


def test_explore_cli_small():
    code, out = run_cli("explore-sigma-inv", "--degx", "2", "--degz", "8", "--prec", "128")
    assert code == 0
    assert "explore-sigma-inv" in out


def test_config_echo_present():
    _, out = run_cli("gen", "--family", "P", "--w0", "", "--eps", "10", "--len", "4")
    first = out.splitlines()[0]
    assert first.startswith("config command=gen") and "seed=0x1" in first


def test_relation_family_path():
    code, out = run_cli(
        "relation", "--family", "G", "--u0", "a", "--v0", "b", "--ups", "1",
        "--map", "a=z,b=z+1", "--degx", "4", "--prec", "256",
    )
    assert code == 0
    assert "degree=4" in out and "X^4*" in out


def test_tower_trace_family_g():
    # the G trace prints every generation asked for, as the P trace prints
    # every step, also past the generation where g_limits converged; those
    # rows cost no series work, though d^(2^(k i)) would carry a window that
    # grows with its valuation (far past prec 16 in the aab/bba case)
    cases = [("a", "b", "11", 3, 256), ("aab", "bba", "11", 40, 16), ("a", "b", "101", 20, 128)]
    for u0, v0, ups, steps, prec in cases:
        code, out = run_cli(
            "tower-trace", "--family", "G", "--u0", u0, "--v0", v0, "--ups", ups,
            "--map", "a=z,b=z+1", "--steps", str(steps), "--prec", str(prec),
        )
        assert code == 0
        lines = out.splitlines()[1:]
        assert [l.split()[0] for l in lines] == [f"step={i}" for i in range(1, steps + 1)]
        assert all("val(d)=" in l and "val(L-1)=" in l for l in lines)
    # ups=101 has k=3: val(d^(2^(3i))) = 4 * 8^i, and L stays at its limit
    assert lines == [f"step={i + 1} val(d)={4 << (3 * i)} val(L-1)=4" for i in range(20)]


def test_gen_spec_text_family_g():
    code, out = run_cli("gen", "--spec", "G u0=a v0=b ups=011", "--len", "8")
    assert code == 0 and out.splitlines()[-1] == "aabbbbaa"


def test_bad_spec_text_is_usage_error():
    code, _ = run_cli("gen", "--spec", "Q x=1", "--len", "4")
    assert code == 2


def test_tower_trace_degenerate_single_prefix():
    code, out = run_cli(
        "tower-trace", "--family", "G", "--u0", "a", "--v0", "b", "--ups", "0",
        "--map", "a=z,b=z+1",
    )
    assert code == 0
    assert out.splitlines()[-1] == "degenerate: periodic repetition of 'a' (no swap steps)"


def test_corollary_k4_passes_at_default_prec(capsys):
    # g_sigma start words grow 4x per step: at k=4 the determinant vanishes
    # to the default precision, and the chain still passes
    code = main(["corollary", "--w0", "", "--eps", "10", "--k", "4"])
    assert code == 0 and capsys.readouterr().err == ""


def test_identities_check_accepts_every_suite_check():
    # --check NAME prints exactly the suite's reports of the check NAME
    # (each report's name up to "["), in suite order
    reports = run_identity_suite(trials=3, max_word_len=3, prec=128)
    names = list(dict.fromkeys(rep.ident.split("[")[0] for rep in reports))
    assert len(names) == 7
    for name in names:
        want = [
            line
            for rep in reports if rep.ident.split("[")[0] == name
            for line in (rep.line(), *(f"  {m}" for m in rep.measurements))
        ]
        argv = ("--check", name, "--trials", "3", "--max-word-len", "3", "--prec", "128", "--verbose")
        code, out = run_cli("identities", *argv)
        assert code == 0, name
        assert out.splitlines()[1:] == want, name


@pytest.mark.parametrize(
    "argv, err",
    [
        (["theorem1", "--spec", "G u0=a v0=b ups=11", "--map", "a=z,b=z+1"], "theorem1 takes a family-P spec"),
        (["theorem2", "--spec", "P w0= eps=10"], "theorem2 takes a family-G spec"),
        (["corollary", "--spec", "G u0=a v0=b ups=11", "--map", "a=z,b=z+1"], "corollary takes a family-P spec"),
        (["corollary", "--w0", "", "--eps", "ab"], "corollary chain needs a binary P-spec"),
        (["theorem1", "--w0", "", "--eps", "ab"], "specialization map required for alphabet ['a', 'b']"),
        (
            ["theorem2", "--u0", "a", "--v0", "b", "--ups", "10", "--map", "a=z,b=z+1"],
            "swap period '10' has an odd number of 1s; the degree bound 2^2 requires an even count",
        ),
        (["tower-trace", "--spec", " "], "empty spec text"),
        (["tower-trace", "--spec", "P w0"], "bad spec field 'w0'"),
        (["tower-trace"], "give --family with its word flags, or --spec"),
        (["cf", "--word", ""], "--word is required"),
        (["identities", "--check", "nope"], "unknown identity check 'nope'"),
        (["relation", "--num", "1", "--degx", "1"], "--num and --den go together"),
        (["relation", "--num", "1", "--den", "0", "--degx", "1"], "zero denominator"),
    ],
)
def test_spec_command_rejections(argv, err, capsys):
    assert main(argv) == 2
    out, got = capsys.readouterr()
    assert got.splitlines() == [f"error: {err}"]
    # a rejected input echoes no config line; only the swap-parity
    # hypothesis is judged after the echo (golden theorem2-ups10)
    assert out == "" or err.startswith("swap period")


@pytest.mark.parametrize(
    "flag, value, err",
    [
        ("--map", "a", "bad assignment 'a'"),
        ("--map", ",", "empty specialization map"),
        ("--map", "ab=z,b=z+1", "letters are single characters, got 'ab'"),
        ("--map", "a=z^x,b=z", "bad monomial 'z^x'"),
        ("--map", "a=z^-1,b=z", "negative exponent in 'z^-1'"),
        ("--ups", "", "ups period must be nonempty"),
    ],
)
def test_bad_map_or_period_is_a_usage_error(flag, value, err, capsys):
    flags = {"--u0": "a", "--v0": "b", "--ups": "11", "--map": "a=z,b=z+1", flag: value}
    assert main(["theorem2", *(x for pair in flags.items() for x in pair)]) == 2
    out, got = capsys.readouterr()
    assert got.splitlines() == [f"error: {err}"] and out == ""


@pytest.mark.parametrize(
    "argv, err",
    [
        (["cf", "--word", "ab", "--map", "a=z^1_0,b=z+1"], "bad monomial 'z^1_0'"),
        (["cf", "--word", "ab", "--map", "a=z^ 3,b=z+1"], "bad monomial 'z^ 3'"),
        (["cf", "--word", "ab", "--map", "a=z^\u0663,b=z+1"], "bad monomial 'z^\u0663'"),
        (["cf", "--word", "ab", "--map", "a=z^-0,b=z+1"], "negative exponent in 'z^-0'"),
        (["relation", "--num", "1", "--den", "z^1_0", "--degx", "1", "--prec", "64"], "bad monomial 'z^1_0'"),
    ],
)
def test_exponents_other_than_ascii_digits_are_refused_before_the_echo(argv, err, capsys):
    # int() would read 1_0 as 10, " 3" as 3 and a non-ASCII digit as a digit
    assert main(argv) == 2
    out, got = capsys.readouterr()
    assert got.splitlines() == [f"error: {err}"] and out == ""


@pytest.mark.parametrize(
    "argv, err",
    [
        (["sigma", "--word", "10", "--count", "-1"], "count must be nonnegative, got -1"),
        (["sigma", "--word", "10", "--inverse", "--count", "-3"], "count must be nonnegative, got -3"),
        (["tower-trace", "--family", "P", "--eps", "10", "--steps", "-2"], "steps must be nonnegative, got -2"),
        (
            ["tower-trace", "--spec", "G u0=a v0=b ups=11", "--map", "a=z,b=z+1", "--steps", "-1"],
            "steps must be nonnegative, got -1",
        ),
        (["gen", "--eps", "10", "--len", "-1"], "len must be nonnegative, got -1"),
        (["identities", "--check", "pair-products", "--m", "1"], "m must be at least 2, got 1"),
        (["relation", "--spec", "P w0= eps=10", "--degx", "0"], "degx must be at least 1, got 0"),
        (["relation", "--num", "1", "--den", "z+1", "--degx", "2", "--degz", "-1"], "degz must be nonnegative, got -1"),
        (["explore-sigma-inv", "--degz", "-1"], "degz must be nonnegative, got -1"),
        (["sigma", "--word", "10", "--count", "-1", "--prec", "0"], "prec must be at least 1, got 0"),
        (["sigma", "--word", "12"], "word must be binary, got '12'"),
        (["sigma", "--word", "1", "--inverse"], "need at least two letters"),
        # with no step to take, the input word is still checked
        (["sigma", "--word", "12", "--count", "0"], "word must be binary, got '12'"),
    ],
)
def test_negative_count_is_refused_before_the_echo(argv, err, capsys):
    assert main(argv) == 2
    out, got = capsys.readouterr()
    assert got.splitlines() == [f"error: {err}"] and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "P", "--w0", "", "--eps", "10", "--len", "200000"],
        ["gen", "--spec", "G u0=a v0=b ups=011", "--len", "200000"],
    ],
)
def test_closed_pipe_is_not_a_failed_claim(argv):
    # `cf2 gen ... | head -c 10`: the reader leaves before the output is
    # written, which is neither a failed claim (exit 1) nor a traceback;
    # 200 kB outgrow any pipe buffer, so the writer always meets the close
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    with subprocess.Popen(
        [sys.executable, "-m", "cf2", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        assert proc.stdout.read(10) == b"config com"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_PIPE == 141 and err == b""


def test_zero_count_stays_valid():
    code, out = run_cli("sigma", "--word", "10", "--count", "0")
    assert code == 0 and out.splitlines()[1:] == ["10"]
    code, out = run_cli("tower-trace", "--family", "P", "--eps", "10", "--steps", "0")
    assert code == 0 and [line.split()[0] for line in out.splitlines()] == ["config"]


@pytest.mark.parametrize(
    "argv, err",
    [
        (["identities", "--all", "--trials", "0"], "need at least one trial, got 0"),
        (["identities", "--check", "pair-products", "--trials", "-1"], "need at least one trial, got -1"),
        (["identities", "--all", "--trials", "3", "--max-word-len", "0"],
         "closed form needs at least one driver word"),
        (["corollary", "--eps", "10", "--k", "0"], "corollary chain needs k >= 1, got 0"),
        (["corollary", "--eps", "10", "--k", "-2"], "corollary chain needs k >= 1, got -2"),
    ],
)
def test_a_check_over_nothing_is_a_usage_error(argv, err, capsys):
    # no trial, no driver word or no chain step: the check would pass
    # vacuously, so it is refused after the config echo with no verdict line
    assert main(argv) == 2
    out, got = capsys.readouterr()
    assert got.splitlines() == [f"error: {err}"]
    assert [line.split()[0] for line in out.splitlines()] == ["config"]


def test_theorem1_running_product_gap_is_a_failed_claim(monkeypatch, capsys):
    # corrupt L_4 of the n=2 tower by 1/z, so L_4 - L_2 has valuation 1
    # where the tower proves at least 2^(4-2)
    advance = towers.PTower.advance

    def corrupted(self):
        advance(self)
        if self.step == 2 * self.period:
            self.Ls[-1] = self.Ls[-1] + LaurentSeries(1, 1, self.F.prec)

    monkeypatch.setattr(towers.PTower, "advance", corrupted)
    code = main(["theorem1", "--w0", "", "--eps", "10"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == ["fail: running-product gap val 1 below bound 2^2"]


def test_theorem2_running_product_gap_is_a_failed_claim(monkeypatch, capsys):
    # a period scalar l + 1 of valuation >= 1 makes L_1 - L_0 a unit,
    # where the tower proves valuation at least 2^0
    l_scalar = towers.GQuantities.l_scalar.fget
    monkeypatch.setattr(
        towers.GQuantities, "l_scalar", property(lambda q: l_scalar(q) + q.F.one)
    )
    code = main(["theorem2", "--u0", "a", "--v0", "b", "--ups", "11", "--map", "a=z,b=z+1"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == ["fail: running-product gap val 0 below bound 2^0"]


UPS_10001 = ("theorem2", "--u0", "a", "--v0", "b", "--ups", "10001", "--map", "a=z,b=z+1")


def test_theorem2_ups10001_passes_at_prec_1024():
    code, out = run_cli(*UPS_10001, "--prec", "1024")
    assert code == 0
    assert out.splitlines()[-2].startswith("degree=32 degZ=64 ")


def test_theorem2_ups10001_passes_at_default_prec():
    code, out = run_cli(*UPS_10001)
    assert code == 0 and out.splitlines()[-1] == "theorem-g pass"


def _readme_examples():
    """(command line, output lines shown under it) of each `cf2 ...` line
    in the README's CLI example block."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("cf2 "):
            examples.append((line, []))
        elif line.strip() not in ("", "..."):
            examples[-1][1].append(line.strip())
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("line, shown", README_EXAMPLES, ids=[line for line, _ in README_EXAMPLES])
def test_readme_cli_examples_hold(line, shown):
    code, out = run_cli(*shlex.split(line, comments=True)[1:])
    assert code == 0
    assert [want for want in shown if want not in out.splitlines()] == []
