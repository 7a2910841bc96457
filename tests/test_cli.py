import json
import os
import subprocess
import sys

import pytest

from trunclat.cli import _REPROS, PinnedRun, _config_context, _parse_space, _parse_trunc, main
from trunclat.dsl import compile_assertion
from trunclat.engine import catalog, expected_violations, run_suite
from trunclat.report import render_table
from trunclat.sampling import SampleGen

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*argv):
    return main(list(argv))


def test_eval_examples(capsys):
    assert run_cli("eval", "|x - 1|", "--bind", 'x={"1":"2/1"}', "--unitize") == 0
    assert capsys.readouterr().out.strip() == '{"e":{},"lambda":"1/1"}'

    assert run_cli("eval", "pos(x)", "--bind", 'x={"1":"-1/1"}') == 0
    assert capsys.readouterr().out.strip() == "{}"


def test_eval_one_outside_unitization(capsys):
    assert run_cli("eval", "1") == 2
    assert "unitization" in capsys.readouterr().err


def test_eval_bad_binding(capsys):
    assert run_cli("eval", "x", "--bind", "x=not json") == 2
    assert run_cli("eval", "x", "--bind", "noequals") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "x", "--bind", 'x={"1":1}'],
        ["eval", "x", "--bind", 'x={"1":"1/0"}'],
        ["eval", "2/0 * x", "--bind", 'x={"1":"1/1"}'],
        # int() reads the key "01", but element_to_json writes only str(k): it would overwrite index 1
        ["eval", "x", "--bind", 'x={"1":"1/2","01":"3"}'],
    ],
)
def test_eval_malformed_rational_exits_two(argv, capsys):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--space", "finite_pointwise:99999999999999999999", "--trials", "1"],
        ["check", "--space", '{"space":"finite_pointwise","dim":99999999999999999999}', "--trials", "1"],
        ["eval", "x", "--space", "finite_pointwise:99999999999999999999", "--bind", 'x=["1/1"]'],
        ["eval", "(" * 200 + "x" + ")" * 200, "--bind", 'x={"1":"1/1"}'],
    ],
)
def test_out_of_range_input_exits_two(argv, capsys):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_check_sparse_exits_zero(capsys):
    assert run_cli("check", "--space", "sparse_seq", "--trunc", "meet_with_one",
                   "--seed", "42", "--trials", "50") == 0
    out = capsys.readouterr().out
    assert "tau1" in out and "PASS" in out


def test_check_identity_line_expected_violation(capsys):
    assert run_cli("check", "--space", "identity_line", "--trunc", "identity",
                   "--trials", "30") == 0
    out = capsys.readouterr().out
    assert "REFUTED (expected)" in out


def test_check_lex_unit_on_first_axis_expects_tau3(capsys):
    # n*(0,1) <= (1,0) for every n: check_tau3 decides the refutation symbolically
    assert run_cli("check", "--space", "lex_plane",
                   "--trunc", '{"kind":"meet_with_unit","unit":["1/1","0/1"]}',
                   "--trials", "20") == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["tau3", "REFUTED", "(expected)"] in [row[:3] for row in rows]


def test_check_note_names_the_inconclusive_laws(capsys):
    # unit (1,0) has no closed-form unitization decision; tau2 fails, since tr(0,a) = 0
    assert run_cli("check", "--space", "finite_pointwise:2",
                   "--trunc", '{"kind":"meet_with_unit","unit":["1/1","0/1"]}') == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "note: 2 inconclusive report(s): archimedean.unitization, thm31.equivalence\n"
    )
    rows = [line.split()[:2] for line in captured.out.splitlines()]
    assert ["tau2", "REFUTED"] in rows and "note:" not in captured.out


def test_check_malformed_descriptor(capsys):
    assert run_cli("check", "--space", "no_such_space") == 2
    assert run_cli("check", "--space", '{"space": 3}') == 2
    assert run_cli("check", "--space", "sparse_seq", "--trunc", "identity") == 2
    assert run_cli("check", "--space", "sparse_seq", "--trials", "0") == 2
    for trunc in ("lex_meet_zero_one", '{"kind":"lex_meet_zero_one"}'):
        capsys.readouterr()
        assert run_cli("check", "--space", "sparse_seq", "--trunc", trunc) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    # an argument or key the space does not take is refused, not dropped, and so is a dimension
    # past MAX_DIM, which would otherwise run out of memory building the catalog unit
    for space in ("lex_plane:5", "sparse_seq:x", "identity_line:1", '{"space":"sparse_seq","dim":3}',
                  '{"space":"finite_pointwise","dim":2,"unit":1}', "finite_pointwise:1000000000000"):
        capsys.readouterr()
        assert run_cli("check", "--space", space, "--trials", "1") == 2, space
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), space


def test_default_truncation_is_the_catalogs():
    for name, ctx in catalog().items():
        space = _parse_space(name)
        assert _parse_trunc(space, None) == ctx.trunc, name
    fp = catalog()["finite_pointwise"]
    assert _parse_trunc(fp.space, "meet_with_unit") == fp.trunc


def test_check_json_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    assert run_cli("check", "--space", "lex_plane", "--trials", "25",
                   "--format", "json", "--out", str(out_path)) == 0
    lines = out_path.read_text().strip().splitlines()
    reports = [json.loads(line) for line in lines]
    ids = [r["law_id"] for r in reports]
    assert ids == sorted(ids)
    refuted = {r["law_id"] for r in reports if r["verdict"] == "refuted"}
    assert refuted == {"archimedean.space", "archimedean.unitization"}
    witness = next(r for r in reports if r["law_id"] == "archimedean.space")["witness"]
    assert witness == {"x": ["0/1", "1/1"], "y": ["1/1", "0/1"]}


def test_check_assertions_file(tmp_path, capsys):
    law = tmp_path / "good.law"
    law.write_text("x /\\ y <= x\n|x| >= x\n")
    assert run_cli("check", "--space", "sparse_seq", "--trials", "20",
                   "--assertions", str(law)) == 0
    out = capsys.readouterr().out
    assert "assert:001" in out and "assert:002" in out

    bad = tmp_path / "bad.law"
    bad.write_text("x <= x /\\ y\n")
    assert run_cli("check", "--space", "sparse_seq", "--trials", "20",
                   "--assertions", str(bad)) == 1
    assert "REFUTED" in capsys.readouterr().out


@pytest.mark.parametrize("unitize", [False, True])
def test_assertion_row_replays_from_its_own_seed(tmp_path, capsys, unitize):
    """A refuting ``assert:NNN`` row's witness is re-drawn from the ``seed`` in that row alone."""
    space = "sparse_seq"
    law = tmp_path / "bad.law"
    header = '{"space": {"space": "sparse_seq"}, "trunc": {"kind": "meet_with_one"}, "unitize": %s}'
    law.write_text(f"ctx: {header % str(unitize).lower()}\nx <= x\nx <= x /\\ y\n")
    assert run_cli("check", "--space", space, "--trials", "50", "--seed", "42", "--format", "json",
                   "--assertions", str(law)) == 1
    row = next(json.loads(line) for line in capsys.readouterr().out.splitlines() if '"assert:003"' in line)
    assert row["verdict"] == "refuted" and row["seed"] != 42
    ctx = catalog()[space]
    lat = ctx if unitize else ctx.trunc
    gen = SampleGen(row["seed"], ctx.space)
    for _ in range(row["trials"]):
        env = {name: (gen.unitized() if unitize else gen.element()) for name in ("x", "y")}
        if {name: lat.to_json(v) for name, v in env.items()} == row["witness"]:
            break
    else:
        pytest.fail("the witness is not in the stream of the reported seed")
    assert not lat.leq(env["x"], lat.meet(env["x"], env["y"]))


def test_check_assertions_file_with_header(tmp_path, capsys):
    law = tmp_path / "ctx.law"
    law.write_text(
        'ctx: {"space": {"space": "lex_plane"}, "trunc": {"kind": "lex_meet_zero_one"}}\n'
        "tr(|x|) <= |x|\n"
    )
    assert run_cli("check", "--space", "sparse_seq", "--trials", "10",
                   "--assertions", str(law)) == 0


@pytest.mark.parametrize("unitize", ['"false"', "1", "null"])
def test_check_assertions_header_unitize_must_be_a_boolean(unitize, tmp_path, capsys):
    # a truthy non-boolean must not select the unitization, nor a falsy one the base
    law = tmp_path / "ctx.law"
    law.write_text(
        'ctx: {"space": {"space": "sparse_seq"}, "trunc": {"kind": "meet_with_one"}, '
        f'"unitize": {unitize}}}\n'
        "x <= x\n"
    )
    assert run_cli("check", "--trials", "5", "--assertions", str(law)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "'unitize'" in err


def test_check_assertions_header_unitize_true_selects_the_unitization(tmp_path, capsys):
    law = tmp_path / "ctx.law"
    law.write_text(
        'ctx: {"space": {"space": "sparse_seq"}, "trunc": {"kind": "meet_with_one"}, "unitize": true}\n'
        "x /\\ 1 <= 1\n"
    )
    assert run_cli("check", "--trials", "20", "--assertions", str(law)) == 0


def test_check_dimension_true_exits_two(capsys):
    assert run_cli("check", "--space", '{"space":"finite_pointwise","dim":true}', "--trials", "1") == 2
    assert _one_error_line(capsys)


def _one_error_line(capsys) -> bool:
    err = capsys.readouterr().err
    return len(err.splitlines()) == 1 and err.startswith("error: ")


def test_eval_repeated_binding_exits_two(capsys):
    assert run_cli("eval", "x", "--bind", 'x={"1":"1/1"}', "--bind", 'x={"2":"1/1"}') == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "'x'" in err


@pytest.mark.parametrize(
    "payload, missing",
    [('{"e":{"1":"1/1"}}', "lambda"), ('{"lambda":"1/2"}', "e")],
)
def test_eval_unitized_binding_names_the_missing_key(payload, missing, capsys):
    assert run_cli("eval", "x", "--unitize", "--bind", f"x={payload}") == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"no '{missing}' key" in err and "invalid literal" not in err


def test_check_compiles_each_assertion_once_per_file(tmp_path, monkeypatch, capsys):
    compiled = []

    def counting(assertion, ctx):
        compiled.append(assertion)
        return compile_assertion(assertion, ctx)

    monkeypatch.setattr("trunclat.dsl.compile_assertion", counting)
    law = tmp_path / "three.law"
    law.write_text("x /\\ y <= x\n|x| >= x\ntr(|x|) <= |x|\n")
    assert run_cli("check", "--space", "lex_plane", "--trials", "30", "--format", "json",
                   "--assertions", str(law)) == 0
    assert len(compiled) == 3
    assert capsys.readouterr().out.count('"law_id":"assert:') == 3


def test_check_assertion_evaluation_error_exits_two(tmp_path, capsys):
    law = tmp_path / "unit.law"
    law.write_text("x <= x\nx <= 1\n")
    assert run_cli("check", "--space", "sparse_seq", "--trials", "5", "--assertions", str(law)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: assertion at line 2 failed to evaluate")


def test_check_out_to_a_missing_directory_exits_two(tmp_path, capsys):
    out_path = tmp_path / "missing" / "report.txt"
    assert run_cli("check", "--trials", "1", "--out", str(out_path)) == 2
    assert _one_error_line(capsys)


def test_check_assertions_file_not_utf8_exits_two(tmp_path, capsys):
    law = tmp_path / "latin1.law"
    law.write_bytes("tr(|x|) <= |x|  # \xe9\n".encode("latin-1"))
    assert run_cli("check", "--trials", "1", "--assertions", str(law)) == 2
    assert _one_error_line(capsys)


def test_repro_unknown_id(capsys):
    assert run_cli("repro", "nope") == 2


@pytest.mark.parametrize(
    "repro_id",
    [
        "lex-trunc-archimedean",
        "identity-trunc-tau3",
        "c00-ruc",
        "unitization-not-ruc",
        "thm33-sup",
        "band-decomposition",
    ],
)
def test_repro_ids(repro_id, capsys):
    assert run_cli("repro", repro_id) == 0
    assert capsys.readouterr().out.strip().endswith(f"REPRODUCED: {repro_id}")


def test_every_repro_is_a_pinned_run():
    assert sorted(_REPROS) == [
        "band-decomposition",
        "c00-ruc",
        "identity-trunc-tau3",
        "lex-trunc-archimedean",
        "thm33-sup",
        "unitization-not-ruc",
    ]
    assert all(isinstance(run, PinnedRun) for run in _REPROS.values())


@pytest.mark.parametrize("repro_id", sorted(_REPROS))
def test_pinned_run_reports_are_check_rows(repro_id):
    # each table a repro prints holds the rows `check` reports at the same configuration, seed and trial count
    pinned = _REPROS[repro_id]
    lines = []
    assert pinned(lines.append)
    checks = {}
    for config, law_id, trials, verdict in pinned.runs:
        checks.setdefault((config, trials), []).append((law_id, verdict))
    for (config, trials), laws in checks.items():
        ctx = _config_context(config)
        suite = {r.law_id: r for r in run_suite(ctx.space, ctx.trunc, pinned.seed, trials)}
        assert [suite[law_id].verdict for law_id, _ in laws] == [verdict for _, verdict in laws]
        table = render_table([suite[law_id] for law_id, _ in laws], expected_violations(ctx)).rstrip("\n")
        assert table in "\n".join(lines)
        heading = f"check --space {config} --seed {pinned.seed} --trials {trials}"
        assert (heading in lines) == (len(checks) > 1)


def test_pinned_repro_fails_on_a_witness_that_does_not_replay(monkeypatch, capsys):
    # the lex witness no longer replays, so archimedean.space refutes nothing and the demonstration fails
    monkeypatch.setattr("trunclat.engine.multiples_below", lambda *args, **kwargs: False)
    assert run_cli("repro", "lex-trunc-archimedean") == 1
    out = capsys.readouterr().out
    assert "archimedean.space  INCONCLUSIVE" in out
    assert out.strip().endswith("FAILED: lex-trunc-archimedean")


def test_unitization_not_ruc_fails_when_the_harmonic_prefixes_are_not_cauchy(monkeypatch, capsys):
    # a mutant Cauchy check: the ruc.unitization witness no longer replays, so the demonstration fails
    monkeypatch.setattr("trunclat.engine.uniform_cauchy_prefix", lambda *args, **kwargs: False)
    assert run_cli("repro", "unitization-not-ruc") == 1
    out = capsys.readouterr().out
    assert "ruc.unitization          INCONCLUSIVE" in out
    assert out.strip().endswith("FAILED: unitization-not-ruc")


def test_check_sparse_seq_refutes_ruc_of_the_unitization_as_expected(capsys):
    assert run_cli("check", "--space", "sparse_seq", "--trials", "20") == 0
    rows = {row.split()[0]: row for row in capsys.readouterr().out.splitlines()}
    assert "PASS" in rows["ruc.space"]
    assert "REFUTED (expected)" in rows["ruc.unitization"]


def test_positive_unit_on_the_line_has_an_archimedean_unitization(capsys):
    trunc = '{"kind":"meet_with_unit","unit":"2"}'
    assert run_cli("check", "--space", "identity_line", "--trunc", trunc, "--trials", "20", "--seed", "1") == 0
    rows = {row.split()[0]: row.split(None, 3) for row in capsys.readouterr().out.splitlines()}
    reason = "symbolic: weighted pointwise order on one point plus infinity"
    assert rows["archimedean.unitization"][1:] == ["PASS", "0", reason]
    assert rows["thm31.equivalence"][1] == "PASS"


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["repro", "-h"]])
def test_help_exits_zero_with_the_help_text(argv, capsys):
    assert run_cli(*argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: trunclat") and captured.err == ""


def test_seed_env_variable_is_ignored(tmp_path, monkeypatch):
    # --seed is the one way to choose the seed: TRUNCLAT_SEED changes nothing
    argv = ("check", "--space", "sparse_seq", "--trials", "20", "--format", "json", "--out")
    out_unset = tmp_path / "unset.jsonl"
    out_set = tmp_path / "set.jsonl"
    monkeypatch.delenv("TRUNCLAT_SEED", raising=False)
    assert run_cli(*argv, str(out_unset)) == 0
    monkeypatch.setenv("TRUNCLAT_SEED", "7")
    assert run_cli(*argv, str(out_set)) == 0
    assert out_set.read_bytes() == out_unset.read_bytes()


def test_check_byte_identical_across_processes(tmp_path):
    # two fresh interpreters with different hash seeds must agree byte-for-byte
    outputs = []
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-m", "trunclat.cli", "check", "--space", "sparse_seq",
             "--seed", "42", "--trials", "40", "--format", "json"],
            capture_output=True,
            env=env,
            cwd=REPO,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
