import collections
import csv
import hashlib
import json
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from wittlab import cli, cohomlab, localfield, wittcore

from conftest import EIGHT_TOWERS, description
from oracles import trace_rows_off_by_one, wrong_in_last

ROOT = pathlib.Path(__file__).resolve().parent.parent


# a command's exit code and what it wrote
Run = collections.namedtuple("Run", "returncode stdout stderr")


@pytest.fixture
def run_cli(capsys):
    """``run_cli(*argv)``: a wittlab command run in process through
    ``cli.main``, which returns every exit code, an argparse refusal's too."""

    def run(*argv):
        return Run(cli.main(list(argv)), *capsys.readouterr())

    return run


def run_module(*argv):
    """A wittlab command run as ``python -m wittlab.cli`` in a fresh
    process, so with a fresh hash seed."""
    return subprocess.run(
        [sys.executable, "-m", "wittlab.cli", *argv],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
    )


def test_module_entry_point():
    # the module runs as a script and exits with the code main returns
    res = run_module("verify", "--lemma", "bogus", "--tower", "q2_i")
    assert res.returncode == 64
    assert res.stderr == (
        f"verify: unknown lemma id 'bogus'; known: {', '.join(cli.LEMMA_IDS)}\n"
    )


def test_readme_library_example_runs():
    """README's Library snippet runs as written and prints what its
    comments say."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    res = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True, cwd=str(ROOT)
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["2", "nontrivial", "minus"]


def _readme_command_lines() -> list[str]:
    """The ``wittlab`` lines of README's Command line block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("wittlab ")]
    assert lines, "README's Command line block names no wittlab command"
    return lines


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_line_runs(line, run_cli, tmp_path, monkeypatch):
    """Each command line of README's Command line block exits 0, run in
    process in a scratch directory, its tower path read in ``cli.TOWER_DIR``."""
    monkeypatch.chdir(tmp_path)
    argv = [arg.replace("src/wittlab/towers/", f"{cli.TOWER_DIR}/") for arg in shlex.split(line)]
    res = run_cli(*argv[1:])
    assert res.returncode == 0, res.stderr


class TestPolys:
    def test_writes_tables_with_hash(self, tmp_path, run_cli):
        out = tmp_path / "polys.json"
        res = run_cli("polys", "--p", "2", "--n", "3", "--out", str(out))
        assert res.returncode == 0
        obj = json.loads(out.read_text())
        assert obj["p"] == 2 and obj["n"] == 3
        assert "content hash:" in res.stdout
        assert "sign convention: minus" in res.stdout
        # phi_2 = X2 + Y2 - X1*Y1 lives in the dump
        phi2 = obj["binary"]["addition"][1]
        assert ["-1", [[0, 1], [1, 1]]] in phi2

    def test_byte_stable_across_runs(self, tmp_path, run_cli):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("polys", "--p", "3", "--n", "2", "--out", str(a))
        run_cli("polys", "--p", "3", "--n", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_min_degree_reported(self, tmp_path, run_cli):
        res = run_cli("polys", "--p", "3", "--n", "2", "--out", str(tmp_path / "x"))
        assert "level 2: carry min degree 3" in res.stdout

    def test_out_of_range_is_usage_error(self, run_cli):
        res = run_cli("polys", "--p", "2", "--n", "6")
        assert res.returncode == 64


class TestTowerInfo:
    def test_builtin_and_file_agree(self, tmp_path, run_cli):
        a = run_cli("tower-info", "--tower", "q2_i", "--json", "--out", str(tmp_path / "a"))
        b = run_cli(
            "tower-info",
            "--tower",
            str(cli.TOWER_DIR / "q2_i.json"),
            "--json",
            "--out",
            str(tmp_path / "b"),
        )
        assert a.returncode == 0 and b.returncode == 0
        obj_a = json.loads((tmp_path / "a").read_text())
        obj_b = json.loads((tmp_path / "b").read_text())
        assert obj_a == obj_b
        assert obj_a["ramification_break"] == 1
        assert obj_a["stable_witt_length"] == 2
        assert obj_a["h1_order_level1"] == 2
        assert obj_a["strict_break_regime"] is False

    def test_missing_tower_is_config_error(self, run_cli):
        res = run_cli("tower-info", "--tower", "/nonexistent.json")
        assert res.returncode == 64

    def test_unknown_tower_lists_the_named_towers(self, capsys):
        # a misspelt name is neither a file in towers/ nor a path
        assert cli.main(["tower-info", "--tower", "septc"]) == 64
        named = ", ".join(sorted(path.stem for path in cli.TOWER_DIR.glob("*.json")))
        assert capsys.readouterr().err == (
            f"tower-info: 'septc' is neither a named tower nor a file; named towers: {named}\n"
        )

    def test_out_without_json_writes_the_json(self, tmp_path, capsys):
        out = tmp_path / "info.json"
        assert cli.main(["tower-info", "--tower", "q2_i", "--out", str(out)]) == 0
        lines = capsys.readouterr().out
        assert cli.main(["tower-info", "--tower", "q2_i", "--json"]) == 0
        assert out.read_text() == capsys.readouterr().out
        assert f"tower_hash: {json.loads(out.read_text())['tower_hash']}" in lines

    @pytest.mark.parametrize("command", [["tower-info"], ["verify", "--lemma", "vktr"]])
    def test_precision_not_an_integer_is_usage_error(self, command, capsys):
        code = cli.main([*command, "--tower", "q2_i", "--precision", "abc"])
        err = capsys.readouterr().err
        assert code == 64
        assert err == f'{command[0]}: --precision must be "auto" or an integer, got \'abc\'\n'


class TestVerify:
    def test_pass_run(self, tmp_path, run_cli):
        out = tmp_path / "rep.json"
        res = run_cli(
            "verify",
            "--lemma",
            "vksub",
            "--tower",
            str(cli.TOWER_DIR / "q2_i.json"),
            "--samples",
            "50",
            "--seed",
            "7",
            "--out",
            str(out),
        )
        assert res.returncode == 0
        rep = json.loads(out.read_text())
        assert rep["status"] == "PASS"
        assert rep["params"]["seed"] == 7
        assert "runtime_ms" in rep
        assert rep["tower_hash"]

    def test_main_echoes_stable_length(self, tmp_path, run_cli):
        res = run_cli(
            "verify",
            "--lemma",
            "main",
            "--tower",
            "q2_i",
            "--samples",
            "10",
            "--seed",
            "3",
            "--out",
            str(tmp_path / "m.json"),
        )
        assert res.returncode == 0
        assert "M=2" in res.stdout
        rep = json.loads((tmp_path / "m.json").read_text())
        assert rep["params"]["M"] == 2

    def test_unknown_lemma(self, run_cli):
        res = run_cli("verify", "--lemma", "bogus", "--tower", "q2_i")
        assert res.returncode == 64
        assert "bogus" in res.stderr

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_is_usage_error(self, samples, run_cli):
        res = run_cli(
            "verify", "--lemma", "vksub", "--tower", "q2_i", "--samples", samples
        )
        assert res.returncode == 64
        assert res.stderr.count("\n") == 1 and "--samples" in res.stderr
        assert "PASS" not in res.stdout

    @pytest.mark.parametrize(
        "lemma, n",
        [
            ("step_bounds", "9"),
            ("step_bounds", "0"),
            ("fixed_points", "-1"),
            ("carry_identity", "6"),
            ("residual_invariant", "6"),
            # these check levels 2..n, residual_invariant levels 3..n
            # (step_bounds components 1..n-1): below, a PASS would check nothing
            ("carry_identity", "1"),
            ("residual_invariant", "1"),
            ("residual_invariant", "2"),
            ("step_bounds", "1"),
        ],
    )
    def test_witt_length_out_of_range_is_usage_error(self, lemma, n, run_cli):
        # q3_ramified has p=3, s=1 and N=16: n=6 needs N >= 19
        res = run_cli(
            "verify", "--lemma", lemma, "--tower", "q3_ramified", "--n", n, "--samples", "1"
        )
        assert res.returncode == 64
        assert res.stderr.count("\n") == 1 and "--n" in res.stderr
        assert "Traceback" not in res.stderr and not res.stdout

    @pytest.mark.parametrize(
        "lemma, n, extra",
        [
            ("residual_invariant", "4", []),
            ("step_bounds", "5", []),
            ("step_bounds", "6", ["--precision", "19"]),
            ("carry_identity", "4", []),
        ],
    )
    def test_witt_length_beyond_the_tables_runs(self, lemma, n, extra, run_cli):
        # past BINARY_RANGE[3] = 4 and PFOLD_RANGE[3] = 3; only the
        # tower's precision bounds n
        res = run_cli(
            "verify", "--lemma", lemma, "--tower", "q3_ramified", "--n", n,
            "--samples", "4", *extra,
        )
        assert res.returncode == 0, res.stderr
        assert f"{lemma} on q3_ramified: PASS" in res.stdout

    @pytest.mark.parametrize("lemma", ["carry_identity", "residual_invariant"])
    def test_default_length_past_the_pfold_tables(self, tmp_path, lemma, run_cli):
        # PFOLD_RANGE has no entry at p=7: carry_identity defaults to n = 2,
        # residual_invariant to its least length, 3, where every bound
        # 7 v_L(x_1) >= 14 lies past val_cap_K - 1 = 10, so it bounds nothing
        code, status = (2, "UNDETERMINED") if lemma == "residual_invariant" else (0, "PASS")
        res = run_cli(
            "verify", "--lemma", lemma, "--tower", "septic", "--samples", "2",
            "--out", str(tmp_path / "report.json"),
        )
        assert res.returncode == code, res.stderr
        assert f"{lemma} on septic: {status}" in res.stdout
        want = 3 if lemma == "residual_invariant" else 2
        assert json.loads((tmp_path / "report.json").read_text())["params"]["n"] == want
        res = run_cli(
            "verify", "--lemma", lemma, "--tower", "septic", "--n", "3", "--samples", "2"
        )
        assert res.returncode == code, res.stderr
        assert f"{lemma} on septic: {status}" in res.stdout

    def test_precision_message_names_the_needed_n(self, run_cli):
        res = run_cli(
            "verify", "--lemma", "step_bounds", "--tower", "q3_ramified", "--n", "6",
            "--samples", "1",
        )
        assert res.returncode == 64
        assert res.stderr == (
            "verify: --n 6 needs precision N >= 19 at p=3, s=1; the tower has N=16\n"
        )

    @pytest.mark.parametrize("lemma", ["vktr", "vksub"])
    @pytest.mark.parametrize("n", ["3", "9"])
    def test_lemma_without_witt_length_refuses_n(self, lemma, n, run_cli):
        # these lemmas read no Witt vector; an --n that fits the tower's
        # precision (3) is refused as well as one that does not (9)
        res = run_cli(
            "verify", "--lemma", lemma, "--tower", "q3_ramified", "--n", n, "--samples", "1"
        )
        assert res.returncode == 64
        assert res.stderr == f"verify: --n: {lemma} takes no Witt length\n"
        assert not res.stdout

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_main_below_stable_length_is_usage_error(self, n, run_cli):
        # q2_sqrt2 has s = 2, so M = 3; below M the theorem claims nothing
        res = run_cli(
            "verify", "--lemma", "main", "--tower", "q2_sqrt2", "--n", n, "--samples", "1"
        )
        assert res.returncode == 64
        assert res.stderr.count("\n") == 1 and "M=3" in res.stderr
        assert "Traceback" not in res.stderr and not res.stdout

    def test_main_at_stable_length_runs(self, run_cli):
        res = run_cli(
            "verify", "--lemma", "main", "--tower", "q2_sqrt2", "--n", "3", "--samples", "2"
        )
        assert res.returncode == 0, res.stderr
        assert "main on q2_sqrt2: PASS" in res.stdout and "M=3" in res.stdout

    def test_main_above_stable_length_reports_both(self, tmp_path, run_cli):
        # q2_i has M = 2; a run at n = 4 reports M and the length it ran at
        out = tmp_path / "m.json"
        argv = ["--lemma", "main", "--tower", "q2_i", "--n", "4", "--samples", "5"]
        res = run_cli("verify", *argv, "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("main on q2_i: PASS") and res.stdout.endswith(" M=2 n=4\n")
        params = json.loads(out.read_text())["params"]
        assert (params["M"], params["n"]) == (2, 4)


# every lemma, in the order these pins were made with: an aggregate lists
# its cells in the manifest's order
ALL_LEMMAS = [
    "vktr", "vksub", "fixed_points", "main", "step_bounds", "carry_identity",
    "residual_invariant",
]
SEPTIC = {
    "towers": ["septic"],
    "lemmas": ["vktr", "vksub", "fixed_points", "carry_identity", "residual_invariant"],
    "samples": 20,
}

# the default suite's printed table, byte for byte: every name and cell
# fits in 14 places, so the columns are 14 wide
DEFAULT_SUITE_TABLE = (
    "                    q2_i            q2_sqrt2        q2_sqrt_minus2  q3_ramified   \n"
    "vktr                  PASS m=0        PASS m=0        PASS m=0        PASS m=0\n"
    "vksub                 PASS m=0        PASS m=0        PASS m=0        PASS m=0\n"
    "carry_identity        PASS            PASS            PASS            PASS\n"
    "residual_invariant    PASS m=4        PASS m=2        PASS m=2        PASS m=1\n"
    "step_bounds           PASS m=1        PASS m=0        PASS m=0        PASS m=1\n"
    "main                  PASS m=1        PASS m=1        PASS m=1        PASS m=1\n"
    "fixed_points          PASS            PASS            PASS            PASS\n"
    "suite status: PASS\n"
)

# Every pinned verdict outside the default suite.  A row is a suite
# manifest or a wittlab argv, run in process with --out added, its exit
# code, and the sha256 of what --out wrote (a verify report without its
# runtime_ms).  To re-pin, edit this table.
PINNED_RUNS = {
    # p = 7, past every table: the benchmark's digests and the default suite
    # cover only p = 2 and 3, and the sampler's Witt trace pass is compiled
    # for each p.  Both residual cells are UNDETERMINED: at n = 3 every
    # bound 7 v_L(x_1) >= 14 lies past val_cap_K - 1 = 10
    "septic": (SEPTIC, 2, "d67dba6585bf93c023dc54675a62ad52bd4322c66da37dc2ac86d99274940b66"),
    # the largest memo of unsolvable trace-solve prefixes (rank 7)
    "septic40": ({**SEPTIC, "samples": 40}, 2,
                 "67992d578de80254fb567b50ec140f697d6355206e97748c40669dfc223974fd"),
    # each 7^17 coordinate draw spans two 32-bit words
    "septic-vksub": (["verify", "--lemma", "vksub", "--tower", "septic", "--samples", "40"], 0,
                     "d959242184571cd6733d0f62bd2c93804215ad79717a403bdc4bf3669f6d5daf"),
    # the compiled solves of the 7 x 7 sigma - 1 form and the 1 x 7 trace form
    "septic-main": (["verify", "--lemma", "main", "--tower", "septic", "--samples", "40"], 0,
                    "f94e17678d29b45f1d98ad7480a969d651aa5c8d20b5d49234063f44205acc02"),
    # p = 5 through every lemma; sigma is not the first root in sorted order
    "quintic": ({"towers": ["quintic"], "lemmas": ALL_LEMMAS, "samples": 40}, 0,
                "5942c9cb38cb707ee158704bc3afcaad864725f756fd76813aaf10cf780bdcf9"),
    # ROADMAP item 25: odd p over a ramified base, the largest break and a
    # rank-8 2-power step; 5 cells run out of sampler retries (UNDETERMINED),
    # each with the failures and margins of the samples checked before
    "item25": ({"towers": ["q3z3_kummer", "q3z9_over_z3", "q2z8_over_i", "q2z16_over_z8"],
                "lemmas": ALL_LEMMAS, "samples": 200}, 2,
               "2a5ee94fbe73b619c3bab7360bd9027ad6a8d606d2cecd5fd1c66d5d3a63978d"),
    # the p = 5 Kummer step, rank 20, break s = 5 (item 27): the sampler
    # runs out of retries on the four Witt lemmas (UNDETERMINED)
    "kummer5": ({"towers": ["q5z5_kummer"], "lemmas": ALL_LEMMAS, "samples": 40}, 2,
                "fb05e06d3f2ae433fe5ae2eaca74cc057f3b5bb0f8229513c5eeac1922c8d058"),
    # the p = 7 Kummer step, rank 42: h1_order_level1 7^6 = 117649, the
    # closed form at s = 7, and stable_witt_length 3, the least M with
    # 7^(M-1) > s
    "kummer7": (["tower-info", "--tower", "q7z7_kummer"], 0,
                "4b348c299504db40c8925e4464732b7730c22a043cc4cbf4d356f40239e0b0be"),
    # past BINARY_RANGE[2] = 5: sample 3 is a coboundary, whose negative
    # runs at six levels
    "q2_i-step_bounds-6": (
        ["verify", "--lemma", "step_bounds", "--tower", "q2_i", "--n", "6", "--samples", "4"], 0,
        "f7d855603d289a75ea328a129c603ff065e36a7556f09e7ef85ff0f22d09087f",
    ),
    # the longest ghost pass: the level-6 residual, one pass at six levels
    "q2_i-residual-6": (
        ["verify", "--lemma", "residual_invariant", "--tower", "q2_i", "--n", "6",
         "--samples", "4"], 0,
        "0a6f9c66b0b4b1a7634f30f6a25fc0151ac97c3b22c833eb34763e9beaffdca2",
    ),
}


def suite_cells(aggregate: bytes) -> list[str]:
    """One line per cell of a suite aggregate, (status, failures, least
    margin), so that a deliberate re-pin reads what moved from one run."""
    return [
        f"{c['tower']} {c['lemma']}: "
        f"{(c['status'], c['failures'], min(c['margins'].values(), default=None))}"
        for c in json.loads(aggregate)["cells"]
    ]


class TestSuite:
    def test_deterministic_aggregate(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "towers": ["q2_i"],
                    "lemmas": ["vktr", "fixed_points"],
                    "samples": 15,
                    "seed": 5,
                }
            )
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        # one process per run, so each has its own hash seed
        res1 = run_module("suite", "--manifest", str(manifest), "--out", str(a))
        res2 = run_module("suite", "--manifest", str(manifest), "--out", str(b))
        assert res1.returncode == 0 and res2.returncode == 0
        assert a.read_bytes() == b.read_bytes()
        agg = json.loads(a.read_text())
        assert agg["status"] == "PASS"
        assert len(agg["cells"]) == 2

    def test_one_seed_rule_for_file_and_inline_towers(self, tmp_path, capsys):
        # the same description as a file and inline with its own seed: both
        # take the manifest's seed, so both cells have one tower_hash
        sqrt2 = {**description("q2_sqrt2"), "seed": 3}
        tower_file = tmp_path / "q2_sqrt2_copy.json"
        tower_file.write_text(json.dumps(sqrt2))
        inline = {**sqrt2, "seed": 99, "name": "inline"}
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps(
                {"towers": [str(tower_file), inline], "lemmas": ["vktr"], "samples": 2, "seed": 5}
            )
        )
        out = tmp_path / "agg.json"
        assert cli.main(["suite", "--manifest", str(manifest), "--out", str(out)]) == 0
        capsys.readouterr()
        hashes = [cell["tower_hash"] for cell in json.loads(out.read_text())["cells"]]
        assert len(hashes) == 2 and hashes[0] == hashes[1]
        assert hashes[0] == localfield.tower_from_obj(sqrt2, seed=5).tower_hash

    def test_csv_summary(self, tmp_path, run_cli):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {"towers": ["q2_i"], "lemmas": ["vksub"], "samples": 10, "seed": 5}
            )
        )
        csv_path = tmp_path / "summary.csv"
        res = run_cli(
            "suite",
            "--manifest",
            str(manifest),
            "--out",
            str(tmp_path / "agg.json"),
            "--csv",
            str(csv_path),
        )
        assert res.returncode == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "tower,lemma,status,samples,failures,worst_margin"
        assert lines[1].startswith("q2_i,vksub,PASS,10,0")

    def test_csv_quotes_a_comma_in_a_tower_name(self, tmp_path, run_cli):
        inline = {**json.loads((cli.TOWER_DIR / "q2_i.json").read_text()), "name": "a,b"}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"towers": [inline], "lemmas": ["vktr", "vksub"], "samples": 2})
        )
        csv_path = tmp_path / "summary.csv"
        argv = ["--manifest", str(manifest), "--out", str(tmp_path / "agg.json")]
        assert run_cli("suite", *argv, "--csv", str(csv_path)).returncode == 0
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [6, 6, 6]
        assert [row[:2] for row in rows[1:]] == [["a,b", "vktr"], ["a,b", "vksub"]]

    def test_empty_manifest_is_usage_error(self, tmp_path, run_cli):
        manifest = tmp_path / "m.json"
        manifest.write_text('{"towers": [], "lemmas": []}')
        assert run_cli("suite", "--manifest", str(manifest)).returncode == 64

    @pytest.mark.parametrize(
        "fields",
        [
            {"samples": 0},
            {"samples": -3},
            {"samples": "x"},
            {"samples": 2.5},
            {"seed": "x"},
            {"seed": None},
        ],
    )
    def test_bad_samples_or_seed_is_usage_error(self, tmp_path, fields, run_cli):
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps({"towers": ["q2_i"], "lemmas": ["vksub"], **fields})
        )
        res = run_cli("suite", "--manifest", str(manifest))
        assert res.returncode == 64
        assert res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "tower",
        [
            {"p": 2, "N": 24, "E_K": None, "E_L": ["1", "0", "1"]},  # not Eisenstein
            {"N": 24, "E_K": None, "E_L": ["-2", "0", "1"]},  # no "p"
        ],
    )
    def test_bad_inline_tower_is_usage_error(self, tmp_path, tower, run_cli):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"towers": [tower], "lemmas": ["vktr"]}))
        res = run_cli("suite", "--manifest", str(manifest))
        assert res.returncode == 64
        assert res.stderr.count("\n") == 1 and "inline tower" in res.stderr
        assert "Traceback" not in res.stderr

    def test_default_length_past_the_cap_is_usage_error(self, tmp_path, run_cli):
        # K = Q2(2^(1/4)), L = K(sqrt(pi_K)): s = 8, so main runs at its
        # stable length M = 5, which needs N >= 21; "auto" gives N = 17
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps({"towers": ["rank8"], "lemmas": ["vktr", "main"], "samples": 1})
        )
        out_path = tmp_path / "agg.json"
        res = run_cli("suite", "--manifest", str(manifest), "--out", str(out_path))
        assert res.returncode == 64
        assert res.stderr == (
            "suite: main on rank8: --n 5 needs precision N >= 21 at p=2, s=8; "
            "the tower has N=17\n"
        )
        assert not out_path.exists()

    def test_tower_past_the_pfold_tables(self, tmp_path, run_cli):
        # every lemma that needs a Witt length takes its default at p=7;
        # the residual at n = 3 bounds no valuation there, so it decides nothing
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "towers": ["septic"],
            "lemmas": ["vktr", "carry_identity", "residual_invariant"],
            "samples": 2,
        }))
        out_path = tmp_path / "agg.json"
        res = run_cli("suite", "--manifest", str(manifest), "--out", str(out_path))
        assert res.returncode == 2, res.stderr
        cells = json.loads(out_path.read_text())["cells"]
        assert [(c["lemma"], c["status"]) for c in cells] == [
            ("vktr", "PASS"), ("carry_identity", "PASS"), ("residual_invariant", "UNDETERMINED"),
        ]

    def test_default_suite_valuation_cells_check_every_sample(self, towers):
        # the default suite runs vktr and vksub with 200 samples and seed
        # 2026 on the four builtin towers; all 8 cells must stay PASS
        for tower in towers.values():
            for lemma in ("vktr", "vksub"):
                rep = cohomlab.VERIFIERS[lemma](tower, samples=200, seed=2026)
                assert rep.params["checked"] == 200
                assert rep.status == "PASS"

    def test_default_suite_runs_the_default_towers(self):
        # named, so that a new file in towers/ does not enter the suite
        assert cli._default_manifest()["towers"] == list(cli.DEFAULT_TOWERS)
        assert set(cli.DEFAULT_TOWERS) < {path.stem for path in cli.TOWER_DIR.glob("*.json")}

    def test_default_suite_matches_the_pinned_hash(self, tmp_path, capsys):
        # the aggregate of the default suite has the sha256 that
        # ``perfbench/run.py --suite-check`` compares with; the hash is read
        # from that file, so it is stored in one place
        run_py = (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
        pinned = re.search(r'^SUITE_BASELINE = "([0-9a-f]{64})"$', run_py, re.M).group(1)
        out = tmp_path / "aggregate.json"
        assert cli.main(["suite", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pinned
        # every cell fits in 14 places, so the table keeps its bytes
        assert capsys.readouterr().out == DEFAULT_SUITE_TABLE

    def test_long_names_print_distinct_heads(self, tmp_path, capsys):
        # cut to 14 places, both heads read "long_tower_nam"
        towers = [
            {"name": f"long_tower_name_{tag}", **json.loads((cli.TOWER_DIR / file).read_text())}
            for tag, file in (("A", "q2_i.json"), ("B", "q2_sqrt2.json"))
        ]
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"towers": towers, "lemmas": ["vktr"], "samples": 2}))
        assert cli.main(["suite", "--manifest", str(manifest), "--out", str(tmp_path / "a")]) == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head.split() == ["long_tower_name_A", "long_tower_name_B"]

    def test_columns_start_at_one_offset(self, tmp_path, capsys):
        # "UNDETERMINED m=0" is 16 places long: cut to 14 places, the
        # step_bounds row's second cell started two places right of vktr's
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "towers": ["q3z3_kummer", "q2z16_over_z8"],
            "lemmas": ["step_bounds", "vktr"], "samples": 200, "seed": 2026,
        }))
        assert cli.main(["suite", "--manifest", str(manifest), "--out", str(tmp_path / "a")]) == 2
        head, *rows, _ = capsys.readouterr().out.splitlines()
        assert "UNDETERMINED m=0" in rows[0]

        def starts(line):  # a head or cell follows at least two spaces
            return [m.start() for m in re.finditer(r"(?<=  )\S", line)]

        assert starts(rows[0]) == starts(rows[1]) == [k + 2 for k in starts(head)]

    @pytest.mark.parametrize("name", list(PINNED_RUNS))
    def test_pinned_run(self, tmp_path, name, capsys):
        argv, code, pinned = PINNED_RUNS[name]
        if isinstance(argv, dict):
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps(argv))
            argv = ["suite", "--manifest", str(manifest)]
        out = tmp_path / "out.json"
        assert cli.main([*argv, "--out", str(out)]) == code, capsys.readouterr().err
        written = out.read_bytes()
        if argv[0] == "verify":
            report = json.loads(written)
            del report["runtime_ms"]
            written = json.dumps(report, sort_keys=True, separators=(",", ":")).encode()
        digest = hashlib.sha256(written).hexdigest()
        cells = suite_cells(written) if argv[0] == "suite" and digest != pinned else []
        assert digest == pinned, "\n".join([f"{name} now writes sha256 {digest}", *cells])

    @pytest.mark.parametrize("entry", [5, 0, [1], None, True])
    def test_non_object_tower_entry_is_usage_error(
        self, tmp_path, entry, monkeypatch, capsys
    ):
        # 5 would be opened as a file descriptor and 0 would read stdin;
        # every entry is checked before any tower is loaded
        def refuse(*args, **kwargs):
            raise AssertionError("a tower was loaded")

        monkeypatch.setattr(localfield, "tower_from_obj", refuse)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"towers": ["q2_i", entry], "lemmas": ["vktr"]}))
        code = cli.main(["suite", "--manifest", str(manifest)])
        err = capsys.readouterr().err
        assert code == 64
        assert err.count("\n") == 1 and json.dumps(entry) in err

    @pytest.mark.parametrize("name", [5, None, ["q2"]])
    def test_inline_tower_name_not_a_string_is_usage_error(
        self, tmp_path, name, monkeypatch, capsys
    ):
        # the table printer needs a string; refused before any tower is built
        def refuse(*args, **kwargs):
            raise AssertionError("a tower was loaded")

        monkeypatch.setattr(localfield, "tower_from_obj", refuse)
        tower = {"name": name, "p": 2, "N": 24, "E_L": ["2", "-2", "1"]}
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps({"towers": [tower], "lemmas": ["vktr"], "samples": 1})
        )
        code = cli.main(["suite", "--manifest", str(manifest), "--out", str(tmp_path / "a")])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.err.count("\n") == 1 and json.dumps(name) in captured.err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize(
        "fields",
        [
            {"towers": 5, "lemmas": ["vktr"]},
            {"towers": ["q2_i"], "lemmas": "vktr"},
            {"towers": ["q2_i"], "lemmas": [["vktr"]]},
        ],
    )
    def test_manifest_lists_of_wrong_shape_are_usage_errors(self, tmp_path, fields, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(fields))
        assert cli.main(["suite", "--manifest", str(manifest)]) == 64
        assert capsys.readouterr().err.count("\n") == 1

    def test_duplicate_tower_names_are_usage_error(self, tmp_path, capsys):
        # m/a/x.json and m/b/x.json would share one column of the table, so
        # a FAIL in one would print under the other's name
        for sub, name in (("a", "q2_i"), ("b", "q3_ramified")):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "x.json").write_text((cli.TOWER_DIR / f"{name}.json").read_text())
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "towers": [str(tmp_path / "a" / "x.json"), str(tmp_path / "b" / "x.json")],
            "lemmas": ["vktr"], "samples": 2,
        }))
        out = tmp_path / "agg.json"
        code = cli.main(["suite", "--manifest", str(manifest), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.err == "suite: manifest lists two towers named 'x'\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "fields, err",
        [
            # a misspelt key would run 200 samples, the default
            ({"towers": ["q2_i"], "lemmas": ["vktr"], "sample": 5},
             "suite: unknown manifest key 'sample': the keys are towers, lemmas, samples and seed\n"),
            # a lemma listed twice would run twice and print two rows
            ({"towers": ["q2_i"], "lemmas": ["vktr", "vksub", "vktr"], "samples": 2},
             "suite: manifest lists lemma 'vktr' twice\n"),
            # a newline would split a CSV row and a line of the printed table
            ({"towers": [{"name": "x\ny", "p": 2, "E_L": ["2", "-2", "1"]}], "lemmas": ["vktr"]},
             'suite: a manifest tower name must be printable, got "x\\ny"\n'),
            ({"towers": ["towers/x\ty.json"], "lemmas": ["vktr"]},
             'suite: a manifest tower name must be printable, got "x\\ty"\n'),
            # an empty name would head a blank column and an empty CSV field
            ({"towers": [{"name": "", "p": 2, "E_L": ["2", "-2", "1"]}], "lemmas": ["vktr"]},
             "suite: an inline tower name must not be empty\n"),
        ],
        ids=["unknown_key", "lemma_twice", "unprintable_name", "unprintable_stem", "empty_name"],
    )
    def test_manifest_refusals_build_no_tower(self, tmp_path, fields, err, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a tower was loaded")

        monkeypatch.setattr(localfield, "tower_from_obj", refuse)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(fields))
        out = tmp_path / "agg.json"
        code = cli.main(["suite", "--manifest", str(manifest), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.err == err
        assert captured.out == "" and not out.exists()

    def test_unknown_lemma_named(self, tmp_path, run_cli):
        manifest = tmp_path / "m.json"
        manifest.write_text('{"towers": ["q2_i"], "lemmas": ["nope"]}')
        res = run_cli("suite", "--manifest", str(manifest))
        assert res.returncode == 64
        assert "nope" in res.stderr


CRASHES = [
    wittcore.IntegralityViolation("remainder 1 in an exact division"),
    localfield.TraceNotRational("trace has a pi_L^1 coefficient of valuation 3"),
    localfield.PrecisionTooLow("assertion v >= 99 exceeds the valuation cap 48"),
]


class TestUnwritableOutput:
    """An ``--out`` or ``--csv`` path that cannot be written is a usage
    error (64) on one line naming the path, not a crash."""

    @staticmethod
    def argv(command, tmp_path):
        if command == "suite":
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps({"towers": ["q2_i"], "lemmas": ["vktr"], "samples": 2}))
            return ["suite", "--manifest", str(manifest)]
        return {
            "polys": ["polys", "--p", "2", "--n", "2"],
            "tower-info": ["tower-info", "--tower", "q2_i"],
            "verify": ["verify", "--lemma", "vktr", "--tower", "q2_i", "--samples", "2"],
        }[command]

    @pytest.mark.parametrize("command", ["polys", "tower-info", "verify", "suite"])
    def test_out(self, command, tmp_path, capsys):
        path = tmp_path / "missing" / "out.json"
        code = cli.main([*self.argv(command, tmp_path), "--out", str(path)])
        err = capsys.readouterr().err
        assert code == 64
        assert err == f"{command}: cannot write {path}: No such file or directory\n"

    def test_csv(self, tmp_path, capsys):
        path = tmp_path / "missing" / "summary.csv"
        argv = [*self.argv("suite", tmp_path), "--out", str(tmp_path / "a.json"), "--csv", str(path)]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 64
        assert err == f"suite: cannot write {path}: No such file or directory\n"


class TestCrash:
    """An exception escaping a verifier is a crash (exit 70), never a
    mathematical FAIL (exit 1)."""

    @pytest.fixture(params=CRASHES, ids=lambda exc: type(exc).__name__)
    def crash(self, request, monkeypatch):
        def raiser(tower, **kwargs):
            raise request.param

        monkeypatch.setitem(cohomlab.VERIFIERS, "vktr", raiser)
        return type(request.param).__name__

    def test_verify(self, crash, capsys):
        code = cli.main(["verify", "--lemma", "vktr", "--tower", "q2_i", "--samples", "1"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_CRASH == 70
        assert err.count("\n") == 1 and crash in err and "vktr" in err
        assert not out

    def test_suite(self, crash, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps({"towers": ["q2_i"], "lemmas": ["vksub", "vktr"], "samples": 2})
        )
        out_path = tmp_path / "agg.json"
        code = cli.main(["suite", "--manifest", str(manifest), "--out", str(out_path)])
        err = capsys.readouterr().err
        assert code == 70
        assert err.count("\n") == 1 and crash in err and "vktr on q2_i" in err
        assert not out_path.exists()


class TestWrongSolve:
    """A compiled solve that returns a wrong answer is caught by a check
    that does not use it, and the command crashes (70) on one line; it is
    never reported as a FAIL."""

    @staticmethod
    def wrong_solves(monkeypatch, square: bool):
        """Compile every Smith form of sigma - 1 (square) or of the trace
        (not square) into a solve whose last coordinate is one too large,
        a coordinate sigma moves and the trace does not kill."""
        compile_solve = localfield.kernels.compile_smith_solve

        def compiled(pivots, U, V, *rest):
            solve = compile_solve(pivots, U, V, *rest)
            return wrong_in_last(solve) if (len(U) == len(V)) == square else solve

        monkeypatch.setattr(localfield.kernels, "compile_smith_solve", compiled)

    @pytest.mark.parametrize(
        "square, crash",
        [
            (True, "TraceNotRational: solver postcondition failed"),
            (False, "AssertionError: trace audit failed on a fresh sample"),
        ],
        ids=["sigma - 1", "trace"],
    )
    def test_main_crashes(self, square, crash, monkeypatch, capsys):
        self.wrong_solves(monkeypatch, square)
        code = cli.main(["verify", "--lemma", "main", "--tower", "q2_i", "--samples", "4"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_CRASH == 70
        assert err == f"verify: main crashed: {crash}\n"
        assert not out


@pytest.mark.parametrize("name", EIGHT_TOWERS)
def test_trace_check_failure_crashes_tower_info(eight_towers, name, tmp_path, monkeypatch, capsys):
    # the build's comparison of the sum of sigma^i with the trace from
    # E_L's power sums failing is an internal fault: 70, on one line
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(eight_towers[name].description))
    trace_rows_off_by_one(monkeypatch, 0, 1)
    code = cli.main(["tower-info", "--tower", str(path)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CRASH == 70
    assert err == (
        "tower-info: crashed: TraceNotRational: "
        "the sum of sigma^i is not the trace from E_L's power sums\n"
    )
    assert not out


@pytest.mark.parametrize(
    "root,message",
    [
        (lambda L: L.pi_elem, "sigma has order < p at precision"),
        (
            lambda L: L.add(L.pi_elem, L.pow(L.pi_elem, 2)),
            "sigma does not have order p at precision",
        ),
    ],
    ids=["identity", "not a root"],
)
@pytest.mark.parametrize("tower", ["q2_i", "q3_ramified"])
def test_sigma_of_wrong_order_is_refused(tower, root, message, monkeypatch, capsys):
    # a generator whose order is not p is a refused tower: 64, on one line
    monkeypatch.setattr(
        localfield.ExtensionTower, "_sigma_root", lambda self, dv, s_pre: root(self.L)
    )
    code = cli.main(["tower-info", "--tower", tower])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CONFIG == 64
    assert err == f"tower-info: {message}\n"
    assert not out


class TestExitPath:
    """``main`` maps every command's outcome the same way: an exception
    that escapes a command is a crash (70), and NotStabilized, which only
    ``tower-info`` and ``oracle`` raise (a verifier reports it as
    UNDETERMINED), is 2, each on one line; never the FAIL code 1."""

    @pytest.mark.parametrize(
        "argv, module, name",
        [
            (["tower-info", "--tower", "q2_i"], cohomlab, "h1_order_level1"),
            (["oracle", "--tower", "q2_i", "--what", "h1"], cohomlab, "h1_order_level1"),
            (["polys", "--p", "2", "--n", "2"], wittcore, "dump_tables"),
        ],
    )
    def test_crash_is_70(self, argv, module, name, monkeypatch, capsys):
        def raiser(*args, **kwargs):
            raise ZeroDivisionError("integer division by zero\nsecond line")

        monkeypatch.setattr(module, name, raiser)
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == cli.EXIT_CRASH == 70
        assert err == f"{argv[0]}: crashed: ZeroDivisionError: integer division by zero\n"
        assert "status" not in out

    @pytest.mark.parametrize(
        "argv",
        [["tower-info", "--tower", "q2_i"], ["oracle", "--tower", "q2_i", "--what", "h1"]],
    )
    def test_not_stabilized_is_2(self, argv, monkeypatch, capsys):
        def raiser(tower):
            raise cohomlab.NotStabilized("elementary divisors moved: [2] vs [4]")

        monkeypatch.setattr(cohomlab, "h1_order_level1", raiser)
        code = cli.main(argv)
        assert code == cli.EXIT_UNDETERMINED == 2
        assert capsys.readouterr().err == f"{argv[0]}: elementary divisors moved: [2] vs [4]\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["tower-info", "--tower", "q2_i"],
            ["verify", "--lemma", "vktr", "--tower", "q2_i", "--samples", "1"],
            ["oracle", "--tower", "q2_i"],
            ["suite"],
        ],
    )
    def test_key_error_building_a_tower_is_a_crash(self, argv, monkeypatch, capsys):
        # nothing in the parse raises KeyError, so one is a bug, not a
        # malformed description (64)
        def raiser(*args, **kwargs):
            raise KeyError("E_K")

        monkeypatch.setattr(localfield, "build_rings", raiser)
        assert cli.main(argv) == 70
        assert capsys.readouterr().err == f"{argv[0]}: crashed: KeyError: 'E_K'\n"

    def test_auto_precision_builds_where_the_field_does(self, capsys):
        # K = Q2(2^(1/3)), L = K(sqrt(pi_K)): auto picks N = 18, which the
        # policy at the tower's break s = 6 accepts
        assert cli.main(["tower-info", "--tower", "cubic", "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert (info["e_K"], info["N"], info["ramification_break"]) == (3, 18, 6)


def _one_retry(monkeypatch):
    monkeypatch.setattr(cohomlab, "SAMPLER_RETRIES", 1)


def _zero_spread(monkeypatch):
    # every draw is zero at precision, so no sample can be checked: the
    # field lemmas' compiled checks shift each draw by a power of pi_L
    # from the table they are given, here all zero
    def zero_powers(self, count):
        return (self.L.zero_elem,) * count

    monkeypatch.setattr(localfield.ExtensionTower, "pi_L_powers", zero_powers)


def _below_exhausted(monkeypatch):
    # main's stream one length below M = 2 runs out of retries, and its
    # stream at M does not
    draw = cohomlab.sample_trace_zero

    def exhausted_at_length_one(tower, n, rng, **kwargs):
        if n == 1:
            raise cohomlab.SamplerExhausted(1, 32)
        return draw(tower, n, rng, **kwargs)

    monkeypatch.setattr(cohomlab, "sample_trace_zero", exhausted_at_length_one)


def _not_stabilized(monkeypatch):
    def moved(tower):
        raise cohomlab.NotStabilized("elementary divisors moved: [2] vs [4]")

    monkeypatch.setattr(cohomlab, "h1_order_level1", moved)


def _unsolvable(depth, delta):
    """Every solve of sigma(y) - y = x fails at ``depth`` with pivot loss
    ``delta``: certified on q2_i (N = 24) when depth + delta <= 24."""

    def patch(monkeypatch):
        def raiser(self, c, digits):
            raise localfield.NoSolutionAtPrecision(depth, delta)

        monkeypatch.setattr(localfield.ExtensionTower, "solve_sigma_minus_one", raiser)

    return patch


# every route to UNDETERMINED, each lemma's: (lemma, tower, samples), what
# forces the route (None: the tower alone), and the reason the report keeps
UNDETERMINED_ROUTES = {
    # cubic's trace equations fail often enough that one retry per level
    # runs out on every Witt lemma
    "carry_identity-exhausted": (("carry_identity", "cubic", "10"), _one_retry,
                                 "sampler exhausted 1 retries at level 2"),
    "residual_invariant-exhausted": (("residual_invariant", "cubic", "10"), _one_retry,
                                     "sampler exhausted 1 retries at level 2"),
    "step_bounds-exhausted": (("step_bounds", "cubic", "10"), _one_retry,
                              "sampler exhausted 1 retries at level 2"),
    "main-exhausted": (("main", "cubic", "10"), _one_retry,
                       "sampler exhausted 1 retries at level 2"),
    # the default retries run out after 165 of 200 samples, unforced
    "step_bounds-exhausted-unforced": (("step_bounds", "q2z16_over_z8", "200"), None,
                                       "sampler exhausted 32 retries at level 4"),
    "main-below-exhausted": (("main", "q2_i", "4"), _below_exhausted,
                             "sampler exhausted 32 retries at level 1"),
    "vktr-short": (("vktr", "q2_i", "3"), _zero_spread, "checked 0 of 3 samples"),
    "vksub-short": (("vksub", "q2_i", "3"), _zero_spread, "checked 0 of 3 samples"),
    # at n = 3 every bound 7 v_L(x_1) >= 14 lies past val_cap_K - 1 = 10
    "residual_invariant-past-cap": (("residual_invariant", "septic", "2"), None,
                                    "no valuation bound fell below val_cap_K - 1 = 10"),
    "main-not-stabilized": (("main", "q2_i", "4"), _not_stabilized,
                            "elementary divisors moved: [2] vs [4]"),
    "main-uncertified-class": (("main", "q2_i", "4"), _unsolvable(24, 1),
                               "2026:main:0: class obstruction at depth 24 not certified at N=24"),
}


class TestUndetermined:
    """A verifier decides UNDETERMINED in its report, which keeps the first
    reason as ``observations["undetermined"]`` and what the samples checked
    before it recorded; ``verify`` writes that report and exits 2."""

    @pytest.mark.parametrize("route", list(UNDETERMINED_ROUTES))
    def test_every_route_writes_its_reason(self, route, tmp_path, monkeypatch, capsys):
        (lemma, tower, samples), force, reason = UNDETERMINED_ROUTES[route]
        if force:
            force(monkeypatch)
        out = tmp_path / "report.json"
        argv = ["verify", "--lemma", lemma, "--tower", tower, "--samples", samples]
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_UNDETERMINED == 2
        assert f"{lemma} on {tower}: UNDETERMINED" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["status"] == "UNDETERMINED"
        assert report["observations"]["undetermined"] == reason

    @pytest.mark.parametrize("lemma", cli.LEMMA_IDS)
    def test_a_pass_keeps_no_reason(self, lemma, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["verify", "--lemma", lemma, "--tower", "q2_i", "--samples", "3"]
        assert cli.main([*argv, "--out", str(out)]) == 0, capsys.readouterr().err
        report = json.loads(out.read_text())
        assert "undetermined" not in report["observations"]
        # only the field lemmas, which may skip draws, count their checks
        assert ("checked" in report["params"]) == (lemma in ("vktr", "vksub"))

    @pytest.mark.parametrize("lemma", ["carry_identity", "residual_invariant", "step_bounds", "main"])
    def test_an_exhausted_witt_lemma_counts_its_samples(self, lemma, tmp_path, monkeypatch, capsys):
        # the report of a stream that runs out holds the number of samples
        # the stream yielded before, as params["checked"]
        _one_retry(monkeypatch)
        counts, stream = [], cohomlab._sampler_mix

        def counted(*args, **kwargs):
            counts.append(0)
            for sample in stream(*args, **kwargs):
                counts[-1] += 1
                yield sample

        monkeypatch.setattr(cohomlab, "_sampler_mix", counted)
        out = tmp_path / "report.json"
        argv = ["verify", "--lemma", lemma, "--tower", "cubic", "--samples", "10"]
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_UNDETERMINED, capsys.readouterr()
        assert json.loads(out.read_text())["params"]["checked"] == counts[0] < 10

    def test_main_below_m_counts_no_check(self, tmp_path, monkeypatch, capsys):
        # main's samples one length below M are an observation, not checks
        _below_exhausted(monkeypatch)
        out = tmp_path / "report.json"
        argv = ["verify", "--lemma", "main", "--tower", "q2_i", "--samples", "4"]
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_UNDETERMINED, capsys.readouterr()
        assert "checked" not in json.loads(out.read_text())["params"]

    @pytest.mark.parametrize("depth, delta, code", [(1, 0, 1), (24, 1, 2)])
    def test_main_obstruction_fails_only_when_certified(
        self, depth, delta, code, tmp_path, monkeypatch, capsys
    ):
        # every sample's class, and every contrast candidate's, is obstructed
        _unsolvable(depth, delta)(monkeypatch)
        out = tmp_path / "report.json"
        argv = ["verify", "--lemma", "main", "--tower", "q2_i", "--samples", "4"]
        assert cli.main([*argv, "--out", str(out)]) == code, capsys.readouterr().err
        report = json.loads(out.read_text())
        classes = [f for f in report["failures"] if f.get("what") == "class"]
        if code == 1:
            assert {f["verdict"] for f in classes} == {"nontrivial"} and len(classes) == 4
        else:
            assert report["failures"] == []


# tower descriptions of the wrong shape: each used to raise TypeError
MALFORMED_TOWERS = {
    "p_null": {"p": None, "N": 24, "E_K": None, "E_L": ["-2", "0", "1"]},
    "e_l_not_list": {"p": 2, "N": 24, "E_K": None, "E_L": 5},
    "array": [1, 2],
    # a seed is checked even where an override replaces it (verify, suite)
    "seed_string": {"p": 2, "N": 24, "E_K": None, "E_L": ["-2", "0", "1"], "seed": "x"},
    "seed_list": {"p": 2, "N": 24, "E_K": None, "E_L": ["-2", "0", "1"], "seed": [1]},
    # a composite p used to crash (exit 70) with a KeyError from the
    # valuation of a coefficient whose gcd with p^N is not a power of p
    "p_4": {"p": 4, "N": 12, "E_K": None, "E_L": ["4", "2", "0", "0", "1"]},
    "p_6": {"p": 6, "N": 12, "E_K": None, "E_L": ["6", "2", "0", "0", "0", "0", "1"]},
}


def _one_line_usage_error(res):
    assert res.returncode == 64
    assert res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


class TestMalformedTower:
    @pytest.fixture(params=sorted(MALFORMED_TOWERS))
    def tower_file(self, request, tmp_path):
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(MALFORMED_TOWERS[request.param]))
        return str(path)

    @pytest.mark.parametrize(
        "command",
        [
            ("tower-info",),
            ("verify", "--lemma", "vktr", "--samples", "1"),
            ("oracle", "--what", "h1"),
        ],
    )
    def test_tower_file_is_usage_error(self, tower_file, command, run_cli):
        _one_line_usage_error(run_cli(*command, "--tower", tower_file))

    def test_suite_tower_file_is_usage_error(self, tower_file, tmp_path, run_cli):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"towers": [tower_file], "lemmas": ["vktr"]}))
        _one_line_usage_error(run_cli("suite", "--manifest", str(manifest)))

    @pytest.mark.parametrize(
        "name", ["p_null", "e_l_not_list", "seed_string", "seed_list", "p_4", "p_6"]
    )
    def test_suite_inline_tower_is_usage_error(self, tmp_path, name, run_cli):
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps({"towers": [MALFORMED_TOWERS[name]], "lemmas": ["vktr"]})
        )
        res = run_cli("suite", "--manifest", str(manifest))
        _one_line_usage_error(res)
        assert "inline tower" in res.stderr

    @pytest.mark.parametrize(
        "obj",
        [
            *MALFORMED_TOWERS.values(),
            {"p": 0, "N": 24, "E_K": None, "E_L": ["-2", "0", "1"]},
            {"p": True, "N": 24, "E_K": None, "E_L": ["-2", "0", "1"]},
            {"p": 2, "N": 24, "E_K": 5, "E_L": ["-2", "0", "1"]},
            {"p": 2, "N": 24, "E_K": None, "E_L": [None, "0", "1"]},
            {"p": 2, "N": 24, "E_K": None, "E_L": [[None], "0", "1"]},
            {"p": 2, "N": 24, "E_K": None},
            {"p": 2, "N": 24, "E_K": None, "E_L": ["-2", "0", "1"], "seed": True},
        ],
    )
    def test_tower_from_obj_raises_value_error(self, obj):
        with pytest.raises(ValueError):
            localfield.tower_from_obj(obj)
        with pytest.raises(ValueError):
            localfield.tower_from_obj(obj, seed=7)


Q2_I = {"p": 2, "N": 24, "E_K": None, "E_L": ["2", "-2", "1"]}

# descriptions that every command refuses with exit 64 on one line: wrong
# types, a p that is not prime, polynomials that are not Eisenstein, steps
# that are tame or not Galois, a top level that is not an object, keys that
# are not a tower's, and an N whose moduli Python will not print
MALFORMED_SWEEP = {
    **MALFORMED_TOWERS,
    "int": 5,
    "null": None,
    "p_string": {**Q2_I, "p": "two"},
    "p_float": {**Q2_I, "p": 2.0},
    "p_bool": {**Q2_I, "p": True},
    "p_list": {**Q2_I, "p": [2]},
    "e_l_string": {**Q2_I, "E_L": "x^2 - 2x + 2"},
    "e_l_null_coefficient": {**Q2_I, "E_L": [None, "0", "1"]},
    "e_l_nested_null": {**Q2_I, "E_L": [[None], "0", "1"]},
    "e_l_float_coefficient": {**Q2_I, "E_L": [2.5, "0", "1"]},
    "e_k_not_list": {**Q2_I, "E_K": 5},
    "e_k_word": {**Q2_I, "E_K": ["x", "1"]},
    # only null or an absent key means K = Q_p; [] used to build as Q_p
    "e_k_empty": {**Q2_I, "E_K": []},
    "n_word": {**Q2_I, "N": "many"},
    "n_float": {**Q2_I, "N": 24.5},
    "n_below_4": {**Q2_I, "N": 2},
    "n_negative": {**Q2_I, "N": -5},
    "seed_bool": {**Q2_I, "seed": True},
    "p_0": {**Q2_I, "p": 0},
    "p_1": {**Q2_I, "p": 1, "E_L": ["-1", "1"]},
    "p_negative": {**Q2_I, "p": -2},
    "p_9": {**Q2_I, "p": 9, "E_L": ["3"] + ["0"] * 8 + ["1"]},
    "unit_constant": {**Q2_I, "E_L": ["1", "0", "1"]},
    "constant_valuation_2": {**Q2_I, "E_L": ["4", "2", "1"]},
    "unit_middle": {**Q2_I, "E_L": ["2", "1", "1"]},
    "not_monic": {**Q2_I, "E_L": ["2", "0", "2"]},
    "degree_0": {**Q2_I, "E_L": ["1"]},
    "e_k_not_eisenstein": {**Q2_I, "E_K": ["1", "0", "1"], "E_L": [[2], [0], [1]]},
    "too_many_coordinates": {**Q2_I, "E_K": ["-2", "0", "1"], "E_L": [[0, 1, 0], [0], [1]]},
    "lead_too_long": {**Q2_I, "E_L": ["2", "-2", [1, 0]]},
    "tame": {**Q2_I, "p": 3, "E_L": ["-3", "0", "1"]},
    "wrong_degree": {**Q2_I, "E_L": ["2", "0", "0", "1"]},
    "not_galois": {**Q2_I, "p": 3, "E_L": ["-3", "0", "0", "1"]},
    "no_p": {"N": 24, "E_L": ["2", "-2", "1"]},
    "no_e_l": {"p": 2, "N": 24},
    "unknown_key": {**Q2_I, "sigma_exponet": 5},
    "lowercase_key": {"p": 2, "N": 24, "e_l": ["2", "-2", "1"]},
    "name_key": {**Q2_I, "name": "q2_i"},
    "n_past_the_printable": {**Q2_I, "N": 20000},
}

# argparse's refusals: each prints the usage, then its one line
ARGPARSE_REFUSALS = {
    "no_command": [],
    "unknown_command": ["bogus"],
    "unknown_option": ["oracle", "--tower", "q2_i", "--seed", "1"],
    "missing_option": ["verify", "--tower", "q2_i"],
    "not_an_int": ["verify", "--lemma", "vktr", "--tower", "q2_i", "--samples", "many"],
    "bad_choice": ["oracle", "--tower", "q2_i", "--what", "everything"],
    "no_value": ["suite", "--manifest"],
}


def _refusal_line(argv, capsys) -> str:
    """The one line ``cli.main(argv)`` refuses ``argv`` with, exit 64,
    after argparse's usage where it prints one.  A SystemExit fails."""
    code = cli.main(argv)
    out, err = capsys.readouterr()
    lines = err.splitlines()
    # argparse's usage wraps onto indented lines
    while lines and lines[0].startswith(("usage: ", " ")):
        lines.pop(0)
    assert (code, len(lines)) == (64, 1), err
    assert err.endswith("\n") and "Traceback" not in err and "status" not in out
    return lines[0]


class TestMalformedSweep:
    """Every malformed description, in a file or inline in a manifest, and
    every argparse refusal returns 64 from ``cli.main`` on one line; none
    crashes (70), passes (0) or raises SystemExit."""

    @pytest.mark.parametrize("name", sorted(MALFORMED_SWEEP))
    def test_tower_info(self, name, tmp_path, capsys):
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(MALFORMED_SWEEP[name]))
        line = _refusal_line(["tower-info", "--tower", str(path)], capsys)
        assert line.startswith("tower-info: ")

    @pytest.mark.parametrize("name", sorted(set(MALFORMED_SWEEP) - {"name_key"}))
    def test_suite_inline(self, name, tmp_path, capsys):
        # name_key is an inline tower's own key; the rest are refused there too
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            {"towers": [MALFORMED_SWEEP[name]], "lemmas": ["vktr"], "samples": 1}
        ))
        line = _refusal_line(["suite", "--manifest", str(manifest)], capsys)
        assert line.startswith("suite: ")

    @pytest.mark.parametrize("name", sorted(ARGPARSE_REFUSALS))
    def test_argparse(self, name, capsys):
        line = _refusal_line(ARGPARSE_REFUSALS[name], capsys)
        assert re.fullmatch(r"wittlab( [a-z-]+)?: error: .+", line), line


class TestStrictKeys:
    """A tower and a manifest each name their keys; any other key is
    refused on one line that names it (a misspelt key would otherwise take
    its default unseen)."""

    TOWER_KEYS = "the keys are p, N, E_K, E_L and seed"

    def test_tower_file(self, tmp_path, capsys):
        path = tmp_path / "tower.json"
        path.write_text(json.dumps({**description("q2_i"), "sigma_exponet": 5}))
        assert cli.main(["tower-info", "--tower", str(path)]) == 64
        assert capsys.readouterr().err == (
            f"tower-info: unknown tower key 'sigma_exponet': {self.TOWER_KEYS}\n"
        )

    def test_inline_tower_takes_a_name_and_nothing_else(self, tmp_path, capsys):
        inline = {**description("q2_i"), "name": "gauss"}
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"towers": [inline], "lemmas": ["vktr"], "samples": 1}))
        assert cli.main(["suite", "--manifest", str(manifest)]) == 0
        assert "gauss" in capsys.readouterr().out
        manifest.write_text(json.dumps(
            {"towers": [{**inline, "Seed": 1}], "lemmas": ["vktr"], "samples": 1}
        ))
        assert cli.main(["suite", "--manifest", str(manifest)]) == 64
        assert capsys.readouterr().err == (
            f"suite: cannot build inline tower: unknown tower key 'Seed': {self.TOWER_KEYS}\n"
        )

    def test_library_refuses_too(self):
        with pytest.raises(ValueError, match="unknown tower key 'sigma_exponet'"):
            localfield.tower_from_obj({**description("q2_i"), "sigma_exponet": 5})

    @pytest.mark.parametrize("manifest", [[], "q2_i", 5, None])
    def test_manifest_not_an_object(self, manifest, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        assert cli.main(["suite", "--manifest", str(path)]) == 64
        assert capsys.readouterr().err == (
            f"suite: a manifest must be a JSON object, got {type(manifest).__name__}\n"
        )


class TestStringFields:
    """An integer field of a tower may be a JSON string of digits, N
    included, and builds the tower the int does; any other string is
    refused on one line that names the field."""

    @pytest.mark.parametrize("field", ["p", "N"])
    def test_digit_string_builds_the_same_tower(self, field, tmp_path, capsys):
        path = tmp_path / "tower.json"
        hashes = []
        for value in (Q2_I[field], str(Q2_I[field])):
            path.write_text(json.dumps({**Q2_I, field: value}))
            assert cli.main(["tower-info", "--tower", str(path)]) == 0
            hashes.append(re.search(r"tower_hash: (\w+)", capsys.readouterr().out).group(1))
        assert hashes[0] == hashes[1] == localfield.tower_from_obj(Q2_I).tower_hash

    @pytest.mark.parametrize(
        "change,what",
        [
            ({"p": "two"}, "p must be an integer, got 'two'"),
            ({"N": "many"}, "N must be an integer, got 'many'"),
            ({"N": 24.5}, "N must be an integer, got 24.5"),
            ({"E_K": ["x", "1"]}, "E_K coefficient must be an integer, got 'x'"),
            ({"E_L": ["2", "x", "1"]}, "E_L coefficient must be an integer, got 'x'"),
            ({"E_L": [["2", "y"], "0", "1"]}, "E_L coefficient must be an integer, got 'y'"),
        ],
    )
    def test_other_string_names_the_field(self, change, what, tmp_path, capsys):
        path = tmp_path / "tower.json"
        path.write_text(json.dumps({**Q2_I, **change}))
        assert cli.main(["tower-info", "--tower", str(path)]) == 64
        assert capsys.readouterr().err == f"tower-info: tower {what}\n"


class TestClosedReader:
    """A reader that closes stdout early ends the command with 141 (128 +
    SIGPIPE) and nothing on stderr: it is not a crash."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["tower-info", "--tower", "q2_i"],
            ["verify", "--lemma", "vktr", "--tower", "q2_i", "--samples", "5"],
        ],
        ids=["tower-info", "verify"],
    )
    def test_closed_pipe_is_141(self, argv):
        # the read end is closed before the command starts, so its first
        # write to stdout (at the latest the flush in main) finds no reader
        proc = subprocess.Popen(
            [sys.executable, "-m", "wittlab.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=str(ROOT),
        )
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert (proc.returncode, err) == (cli.EXIT_PIPE, b"")
        assert cli.EXIT_PIPE == 141

    def test_in_process_stdout_without_a_descriptor(self, monkeypatch, capsys):
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Closed())
        assert cli.main(["tower-info", "--tower", "q2_i"]) == 141
        assert capsys.readouterr().err == ""


class TestOneExit:
    """``cli.main`` returns every refusal's exit code, argparse's too."""

    def test_argparse_refusal_is_returned(self, capsys):
        assert cli.main(["oracle", "--tower", "q2_i", "--seed", "1"]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: wittlab ")
        assert err.endswith("\nwittlab: error: unrecognized arguments: --seed 1\n")

    def test_a_subcommand_refusal_names_the_subcommand(self, capsys):
        assert cli.main(["verify", "--tower", "q2_i"]) == 64
        assert capsys.readouterr().err.endswith(
            "\nwittlab verify: error: the following arguments are required: --lemma\n"
        )

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_still_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: wittlab")


class TestPrintableModuli:
    """Generated kernels inline their moduli as decimal literals, which
    Python prints only up to ``sys.get_int_max_str_digits()`` digits: an N
    or a Witt length past that is refused on one wittlab line naming the
    limit, never Python's own message and never a crash (70)."""

    # p = 2 at q2_i: N_int = N + 7, the Newton lift 2 digits more, and a
    # Witt pass at length n n - 1 more; 2^14284 has 4 300 digits, 2^14285
    # has 4 301
    LIMIT = (
        "has more than 4300 decimal digits, the limit of sys.get_int_max_str_digits() "
        "on the moduli the kernels print; lower N"
    )

    @pytest.fixture(autouse=True)
    def _default_limit(self):
        if getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300:
            pytest.skip("Python's default int string limit is not in force")

    @pytest.mark.parametrize(
        "N, digits", [(20000, 20007), (14276, 14285)], ids=["working", "newton"]
    )
    def test_build_refuses_the_precision(self, N, digits, capsys):
        assert cli.main(["tower-info", "--tower", "q2_i", "--precision", str(N)]) == 64
        assert capsys.readouterr().err == f"tower-info: the modulus 2^{digits} {self.LIMIT}\n"

    @pytest.mark.parametrize("lemma", ["step_bounds", "carry_identity"])
    def test_witt_length_refuses_the_lift(self, lemma, capsys):
        argv = ["verify", "--lemma", lemma, "--tower", "q2_i", "--precision", "14275"]
        assert cli.main([*argv, "--samples", "1"]) == 64
        assert capsys.readouterr().err == f"verify: --n 4: the modulus 2^14285 {self.LIMIT}\n"

    def test_the_working_digits_are_refused_before_a_tower_is_built(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a tower was constructed")

        monkeypatch.setattr(localfield, "ExtensionTower", refuse)
        assert cli.main(["tower-info", "--tower", "q2_i", "--precision", "20000"]) == 64
        assert capsys.readouterr().err == f"tower-info: the modulus 2^20007 {self.LIMIT}\n"

    def test_a_huge_modulus_is_refused_without_building_it(self):
        # 2^(10^15) would take 125 TB; the digit count's logarithm refuses it
        with pytest.raises(localfield.PrecisionTooLow) as refused:
            localfield.check_printable(2, 10**15)
        assert str(refused.value) == f"the modulus 2^{10**15} {self.LIMIT}"

    def test_the_last_printable_length_runs(self, capsys):
        argv = ["verify", "--lemma", "step_bounds", "--tower", "q2_i", "--precision", "14275"]
        assert cli.main([*argv, "--samples", "1", "--n", "3"]) == 0, capsys.readouterr().err


# JSON files that cannot be read, with the reason the usage error gives:
# each crashed (70) as a manifest, and the nested one as a tower file too
UNREADABLE_JSON = {
    # a UTF-16 byte order mark
    "not_utf8": (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "nested": (b"[" * 100_000,
               "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
}


class TestUnreadableJson:
    """A tower file or a manifest that cannot be decoded or parsed is a
    usage error (64) on one line that gives the reason."""

    @pytest.fixture(params=sorted(UNREADABLE_JSON))
    def unreadable(self, request, tmp_path):
        blob, reason = UNREADABLE_JSON[request.param]
        path = tmp_path / "unreadable.json"
        path.write_bytes(blob)
        return str(path), reason

    @pytest.mark.parametrize(
        "command",
        [
            ("tower-info",),
            ("verify", "--lemma", "vktr", "--samples", "1"),
            ("oracle", "--what", "h1"),
        ],
    )
    def test_tower_file(self, unreadable, command, run_cli):
        path, reason = unreadable
        res = run_cli(*command, "--tower", path)
        assert (res.returncode, res.stdout, res.stderr) == (64, "", f"{command[0]}: {reason}\n")

    def test_suite_tower_file(self, unreadable, tmp_path, run_cli):
        path, reason = unreadable
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"towers": [path], "lemmas": ["vktr"]}))
        res = run_cli("suite", "--manifest", str(manifest))
        assert (res.returncode, res.stdout) == (64, "")
        assert res.stderr == f"suite: cannot load tower {path!r}: {reason}\n"

    def test_suite_manifest(self, unreadable, run_cli):
        path, reason = unreadable
        res = run_cli("suite", "--manifest", path)
        assert (res.returncode, res.stdout) == (64, "")
        assert res.stderr == f"suite: cannot read manifest: {reason}\n"


class TestOracle:
    def test_oracle_passes(self, run_cli):
        res = run_cli("oracle", "--tower", "q2_i", "--what", "all")
        assert res.returncode == 0
        assert "match=True" in res.stdout
        assert "oracle status: PASS" in res.stdout

    def test_h1_prints_the_three_level1_counts(self, run_cli):
        res = run_cli("oracle", "--tower", "q3_ramified", "--what", "h1")
        assert res.returncode == 0, res.stderr
        assert (
            "h1 order: elementary-divisor=3 trace-cokernel=3 closed-form=3 enumeration=3 match=True"
            in res.stdout
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--tower", "q3_ramified", "--what", "h1"],
            ["tower-info", "--tower", "q3_ramified"],
            ["verify", "--lemma", "main", "--tower", "q3_ramified", "--samples", "1"],
        ],
    )
    def test_level1_counts_that_disagree_are_a_crash(self, argv, monkeypatch, capsys):
        # the closed form with s off by one: 9 against 3 on q3_ramified
        monkeypatch.setattr(
            cohomlab, "trace_index_closed_form", lambda p, s: p ** ((p - 1) * (s + 2) // p)
        )
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == cli.EXIT_CRASH == 70
        assert err.count("\n") == 1 and "OrderMismatch: level-one orders disagree" in err
        assert "closed-form=9" in err
        assert "status" not in out

    def test_seed_is_usage_error(self, run_cli):
        # oracle prints no tower hash, so a tower seed would change no byte
        res = run_cli("oracle", "--tower", "q2_i", "--what", "h1", "--seed", "1")
        assert res.returncode == 64
        assert "unrecognized arguments: --seed 1" in res.stderr
        assert "oracle status" not in res.stdout

    @pytest.mark.parametrize("tower", ["q2_i", "q2_sqrt2", "q3_ramified"])
    def test_all_enumerates_once_per_digit_count(self, tower, monkeypatch, capsys):
        # the h1 and linsolve oracles share one enumeration at each digit count
        enumerate_maps = cohomlab.enumerate_maps
        calls = []

        def counted(tower, digits):
            calls.append(digits)
            return enumerate_maps(tower, digits)

        monkeypatch.setattr(cohomlab, "enumerate_maps", counted)
        assert cli.main(["oracle", "--tower", tower, "--what", "all"]) == 0
        assert "oracle status: PASS" in capsys.readouterr().out
        assert calls == list(cohomlab.ENUMERATION_DIGITS) == [2, 3]

    @pytest.mark.parametrize("what", ["h1", "linsolve", "all"])
    def test_enumeration_too_large_is_usage_error(self, what, capsys, monkeypatch):
        # K = Q2(2^(1/4)), L = K(sqrt(pi_K)): flat rank 8, so the digits=3
        # enumeration domain 2^24 is refused, before the digits=2 domain
        # (2^16 vectors, which is allowed) is enumerated
        product = cohomlab.itertools.product
        enumerated = []

        def counting_product(*args, **kwargs):
            for vec in product(*args, **kwargs):
                enumerated.append(vec)
                yield vec

        monkeypatch.setattr(cohomlab.itertools, "product", counting_product)
        code = cli.main(["oracle", "--tower", "rank8", "--what", what])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.err == "oracle: enumeration domain p^24 too large\n"
        assert "oracle status" not in captured.out
        assert enumerated == []
