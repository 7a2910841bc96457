"""Golden output pins: refactors and speedups must keep every report byte-identical.

The repro hashes are read from README's table, so README stays the single
source of truth; the catalog hashes pin ``check --format json --seed 42
--trials 200`` for each cataloged configuration, and the assertion hashes pin
the same run with the configuration's shipped ``.law`` file, and the
off-catalog hashes pin the same run with a unit the catalog does not use.
"""

import hashlib
import os
import re

import pytest

from trunclat.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_README_ROW = re.compile(r"^\|\s*`([a-z0-9-]+)`\s*\|.*\|\s*`([0-9a-f]{16})`\s*\|$")


def _readme_repro_hashes() -> dict[str, str]:
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as handle:
        rows = (_README_ROW.match(line.strip()) for line in handle)
        return {m.group(1): m.group(2) for m in rows if m}


README_HASHES = _readme_repro_hashes()

CHECK_HASHES = {
    "sparse_seq": "f8d88e6ee94d6893",
    "lex_plane": "690a3e74b884c8cc",
    "identity_line": "41f8021ada537cd3",
    "finite_pointwise:3": "488b06470681ef6f",
}


# check ... --assertions src/trunclat/laws/<config>.law: the suite plus the DSL path;
# each assert:NNN row carries its own stream seed, derive_seed(42, "assert:NNN")
ASSERTION_HASHES = {
    "sparse_seq": "bfe8d0ddde102972",
    "lex_plane": "102cc17a2d5286be",
    "identity_line": "b7273ce6a52a6e76",
    "finite_pointwise:3": "18de8270d411f971",
}


def _sha16(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_readme_lists_six_repros():
    assert sorted(README_HASHES) == [
        "band-decomposition",
        "c00-ruc",
        "identity-trunc-tau3",
        "lex-trunc-archimedean",
        "thm33-sup",
        "unitization-not-ruc",
    ]


@pytest.mark.parametrize("repro_id", sorted(README_HASHES))
def test_repro_output_matches_readme_hash(repro_id, capsys):
    assert main(["repro", repro_id]) == 0
    assert _sha16(capsys.readouterr().out) == README_HASHES[repro_id]


# Each run: the configuration's flags and the catalog pin its report must match.
CHECK_RUNS = {space: (["--space", space], pin) for space, pin in CHECK_HASHES.items()}
# the lex catalog truncation spelled as the meet with the unit (0,1)
CHECK_RUNS["lex_plane-meet_with_unit"] = (
    ["--space", "lex_plane", "--trunc", '{"kind":"meet_with_unit","unit":["0/1","1/1"]}'],
    CHECK_HASHES["lex_plane"],
)


@pytest.mark.parametrize("run", sorted(CHECK_RUNS))
def test_check_json_report_hash(run, capsys):
    config, pin = CHECK_RUNS[run]
    argv = ["check", *config, "--format", "json", "--seed", "42", "--trials", "200"]
    assert main(argv) == 0
    assert _sha16(capsys.readouterr().out) == pin


# Configurations the catalog pins never reach: the same run with a non-catalog unit.
# Each run: its flags, the report pin, and the exit code (1 where a theorem row
# refutes on a map that is not a truncation).  Together they reach the
# unitization_archimedean arms for the pointwise space, the line and the
# undecided case, the tau3 lex arm with u0 > 0, and the line arms of
# thm11.density and the orthocomplement separator.
OFF_CATALOG_RUNS = {
    "finite_pointwise:4-unit-1020": (
        ["--space", "finite_pointwise:4", "--trunc", '{"kind":"meet_with_unit","unit":["1","0","2","0"]}'],
        "20c279c4169977ac",
        1,
    ),
    "finite_pointwise:2-unit-half-3": (
        ["--space", "finite_pointwise:2", "--trunc", '{"kind":"meet_with_unit","unit":["1/2","3"]}'],
        "cd646ffca17ce469",
        0,
    ),
    "identity_line-unit-2": (
        ["--space", "identity_line", "--trunc", '{"kind":"meet_with_unit","unit":"2"}'],
        "31f45ded477bc2f8",
        0,
    ),
    "lex_plane-unit-10": (
        ["--space", "lex_plane", "--trunc", '{"kind":"meet_with_unit","unit":["1","0"]}'],
        "5b519721cc31a329",
        0,
    ),
    "sparse_seq-unit-1-3": (
        ["--space", "sparse_seq", "--trunc", '{"kind":"meet_with_unit","unit":{"1":"1","3":"2"}}'],
        "f880bc9b779824a3",
        1,
    ),
}


@pytest.mark.parametrize("run", sorted(OFF_CATALOG_RUNS))
def test_off_catalog_json_report_hash(run, capsys):
    config, pin, code = OFF_CATALOG_RUNS[run]
    argv = ["check", *config, "--format", "json", "--seed", "42", "--trials", "200"]
    assert main(argv) == code
    assert _sha16(capsys.readouterr().out) == pin


@pytest.mark.parametrize("space", sorted(ASSERTION_HASHES))
def test_check_assertions_json_report_hash(space, capsys):
    law = os.path.join(REPO, "src", "trunclat", "laws", space.partition(":")[0] + ".law")
    argv = ["check", "--space", space, "--format", "json", "--seed", "42", "--trials", "200", "--assertions", law]
    assert main(argv) == 0
    assert _sha16(capsys.readouterr().out) == ASSERTION_HASHES[space]
