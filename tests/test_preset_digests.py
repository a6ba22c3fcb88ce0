"""Byte identity of the presets' output against recorded SHA-256 digests.

Each case runs one preset in process through ``cli.main``, the function
the ``tumorfem`` entry point calls, and compares the digest of its stdout
and of every file it writes with ``preset_digests.json``. Text files also
carry one short digest per line, so a mismatch names the first file that
differs and, for stdout, ``per_step.csv`` and ``summary.txt``, its first
differing line.

The digests hold for the numpy and scipy versions they were recorded
with, which the file also records; under other versions the comparison
fails with both. To re-record after a change that moves a digest on
purpose, run ``PYTHONPATH=src python tests/record_preset_digests.py``
and say in CHANGES.md which files moved, by how much at most, and why.
"""

import contextlib
import functools
import hashlib
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from tumorfem import output
from tumorfem.cli import main

DIGESTS = Path(__file__).with_name("preset_digests.json")
# (preset, --snapshot-every): every preset without snapshots, and the two
# small ones with snapshots every 10 steps.
RUNS = [
    ("bounds-comparison", 0),
    ("energy-sweep", 0),
    ("lumping-comparison", 0),
    ("bounds-comparison", 10),
    ("lumping-comparison", 10),
]
LINE_DIGESTED = (".csv", ".txt")


def run_key(preset: str, every: int) -> str:
    return f"{preset} --snapshot-every {every}"


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _entry(data: bytes, by_line: bool) -> dict:
    entry = {"sha256": hashlib.sha256(data).hexdigest()}
    if by_line:
        entry["lines"] = " ".join(hashlib.sha256(line).hexdigest()[:8]
                                  for line in data.splitlines(keepends=True))
    return entry


def preset_digests(preset: str, every: int, directory: Path) -> dict:
    """Digests of stdout and of every file of one preset run into ``directory``,
    keyed by ``stdout`` and the files' paths relative to it."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = main(["run", "--preset", preset, "--snapshot-every", str(every),
                       "--output-dir", str(directory)])
    assert status == 0
    digests = {"stdout": _entry(stdout.getvalue().encode(), by_line=True)}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        name = path.relative_to(directory).as_posix()
        digests[name] = _entry(path.read_bytes(), by_line=name.endswith(LINE_DIGESTED))
    return digests


def first_difference(expected: dict, actual: dict) -> str | None:
    """The first file (in name order, stdout first) whose digest differs, and
    for a line-digested file its first differing line; ``None`` if all match."""
    for name in sorted(expected.keys() | actual.keys(), key=lambda n: (n != "stdout", n)):
        if name not in actual:
            return f"{name}: not written"
        if name not in expected:
            return f"{name}: written, but not recorded"
        want, got = expected[name], actual[name]
        if want["sha256"] == got["sha256"]:
            continue
        if "lines" not in want:
            return f"{name}: digest differs"
        want_lines, got_lines = want["lines"].split(), got["lines"].split()
        line = next((i for i, (a, b) in enumerate(zip(want_lines, got_lines), 1) if a != b),
                    min(len(want_lines), len(got_lines)) + 1)
        return (f"{name}: first differs at line {line} "
                f"({len(got_lines)} lines, {len(want_lines)} recorded)")
    return None


@functools.cache
def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


def _check_versions():
    recorded_versions = recorded()["versions"]
    assert versions() == recorded_versions, (
        f"digests were recorded with numpy {recorded_versions['numpy']} and scipy "
        f"{recorded_versions['scipy']}; this is numpy {np.__version__} and scipy {scipy.__version__}"
    )


def test_a_version_mismatch_fails_naming_both(monkeypatch):
    monkeypatch.setattr(np, "__version__", "0.0.0")
    with pytest.raises(AssertionError) as failure:
        _check_versions()
    message = str(failure.value)
    assert f"recorded with numpy {recorded()['versions']['numpy']} and scipy" in message
    assert f"this is numpy 0.0.0 and scipy {scipy.__version__}" in message


def test_recording_covers_exactly_the_listed_runs():
    runs = recorded()["runs"]
    assert list(runs) == [run_key(*r) for r in RUNS]
    for every in (0, 10):
        # files only: every run also records its stdout
        assert sum(len(runs[run_key(p, e)]) - 1 for p, e in RUNS if e == every) == 52


@pytest.mark.parametrize("preset, every", RUNS, ids=[run_key(*r) for r in RUNS])
def test_preset_output_matches_recorded_digests(tmp_path, preset, every):
    _check_versions()
    actual = preset_digests(preset, every, tmp_path)
    difference = first_difference(recorded()["runs"][run_key(preset, every)], actual)
    assert difference is None, difference


def test_one_ulp_in_one_snapshot_fails_the_comparison(tmp_path, monkeypatch):
    write_snapshot = output.write_snapshot

    def nudged(directory, geometry, state):
        # one node of T, one ulp up, in the step-50 snapshot of one run
        if state.step == 50 and directory.endswith("lumping-imex-lumped"):
            T = state.T.copy()
            T[60] = np.nextafter(T[60], np.inf)
            state = replace(state, T=T)
        write_snapshot(directory, geometry, state)

    monkeypatch.setattr(output, "write_snapshot", nudged)
    actual = preset_digests("lumping-comparison", 10, tmp_path)
    expected = recorded()["runs"][run_key("lumping-comparison", 10)]
    assert first_difference(expected, actual) == (
        "lumping-imex-lumped/snapshot_000050.vtk: digest differs")


def test_first_difference_names_the_file_and_line():
    expected = {"stdout": _entry(b"a\n", True), "run/per_step.csv": _entry(b"h\n1\n2\n", True)}
    assert first_difference(expected, dict(expected)) is None
    moved = {**expected, "run/per_step.csv": _entry(b"h\n1\n3\n", True)}
    assert first_difference(expected, moved) == (
        "run/per_step.csv: first differs at line 3 (3 lines, 3 recorded)")
    short = {**expected, "run/per_step.csv": _entry(b"h\n1\n", True)}
    assert first_difference(expected, short) == (
        "run/per_step.csv: first differs at line 3 (2 lines, 3 recorded)")
    assert first_difference(expected, {"stdout": expected["stdout"]}) == (
        "run/per_step.csv: not written")
    assert first_difference({"stdout": expected["stdout"]}, expected) == (
        "run/per_step.csv: written, but not recorded")
    assert first_difference(expected, {**expected, "stdout": _entry(b"b\n", True)}) == (
        "stdout: first differs at line 1 (1 lines, 1 recorded)")
