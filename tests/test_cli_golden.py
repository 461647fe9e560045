"""Every `deconv` command replays its recorded runs byte for byte.

``cli_golden.json`` holds exit code, stdout and output files of every run
in ``cli_golden.cases()``, recorded on the present code.  Every run must
still match, except the ones in ``MOVED``, whose new exit code is checked
instead, together with whether they write files.  A change that moves a
run on purpose lists it there; records rebuilt on that change take the
moved runs in, and ``MOVED`` is then empty again.

The ``refusal/`` runs are the malformed files of
``test_malformed_inputs.CORPUS``; their records also hold stderr, so each
refusal keeps its ``path:line: message`` text.

Spectral runs are compared in full only under the numpy version that wrote
the record; under another one, pocketfft may round differently, so only
their exit code and the names of the files they write are compared.
"""
import json

import numpy as np
import pytest

import cli_golden as golden

RECORD = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
RUNS = RECORD["runs"]
MOVED: dict[str, int] = {}
COMMANDS = sorted({name.split("/", 1)[0] for name in RUNS})


def test_records_cover_every_case():
    assert sorted(RUNS) == sorted(name for name, _, _, _ in golden.cases())
    assert all(RUNS[name]["exit"] != MOVED[name] for name in MOVED)


def _matches(name, got, spectral) -> bool:
    want = RUNS[name]
    if name in MOVED:
        return got["exit"] == MOVED[name] and bool(got["files"]) == (got["exit"] == 0)
    if spectral and np.__version__ != RECORD["numpy"]:
        return got["exit"] == want["exit"] and sorted(got["files"]) == sorted(want["files"])
    return got == {key: want[key] for key in got}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_matches_its_record(command):
    changed = [name for name, inputs, argv, spectral in golden.cases()
               if name.startswith(f"{command}/")
               and not _matches(name, golden.run(name, inputs, argv, spectral), spectral)]
    assert changed == []


@pytest.mark.parametrize("name", ["deblur/reciprocal/image.f64", "experiment/noise-gaussian"])
def test_a_spectral_run_repeated_in_one_process_keeps_its_record(name):
    """The second run reads the grid tables the first one cached."""
    [(inputs, argv, spectral)] = [(i, a, s) for n, i, a, s in golden.cases() if n == name]
    assert spectral
    for _ in range(2):
        assert _matches(name, golden.run(name, inputs, argv, spectral), spectral)
