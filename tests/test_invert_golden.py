"""`deconv invert` replays its recorded runs byte for byte.

``invert_golden.json`` holds exit code, stdout and output file of every
run in ``invert_golden.cases()``, recorded on the present code.  Every run
must still match, except the ones in ``MOVED``, whose new exit code is
checked instead, together with whether they write a file.  A change that
moves a run on purpose lists it there; records rebuilt on that change take
the moved runs in, and ``MOVED`` is then empty again.
"""
import json

import pytest

import invert_golden as golden

RECORDS = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
MOVED: dict[str, int] = {}


def test_records_cover_every_case():
    assert sorted(RECORDS) == sorted(name for name, _, _ in golden.cases())
    assert all(RECORDS[name]["exit"] != MOVED[name] for name in MOVED)


@pytest.mark.parametrize("kernel", sorted(golden.KERNELS))
def test_invert_matches_its_record(kernel):
    changed = []
    for name, text, argv in golden.cases():
        if not name.startswith(f"{kernel}/"):
            continue
        got = golden.run(text, argv)
        if name in MOVED:
            ok = got["exit"] == MOVED[name] and (got["output"] is None) == (got["exit"] != 0)
        else:
            ok = got == {key: RECORDS[name][key] for key in got}
        if not ok:
            changed.append(name)
    assert changed == []
