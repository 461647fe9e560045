"""`deconv invert` replays its recorded runs byte for byte.

``invert_golden.json`` holds exit code, stdout and output file of every
run in ``invert_golden.cases()``, recorded before the named series became
one power-series recurrence.  Every run must still match, except the ones
in ``MOVED``, whose new exit code is checked instead: ``--method onesided``
now inverts any nonzero 1D kernel, and refuses a 2D one as a dimension
mismatch (exit 3).  Records rebuilt on the present code take the moved
runs in; ``MOVED`` is then empty.
"""
import json

import pytest

import invert_golden as golden

RECORDS = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
ONESIDED = [f"{side}/{mode}" for side in ("onesided-right", "onesided-left")
            for mode in golden.MODES]
MOVED = {
    **{f"{kernel}/{run}": 0 for kernel in ("binomial", "binomial-0.3", "three-point",
                                           "no-family") for run in ONESIDED},
    **{f"pair-2d/{run}": 3 for run in ONESIDED},
}


def test_records_cover_every_case():
    assert sorted(RECORDS) == sorted(name for name, _, _ in golden.cases())
    assert all(RECORDS[name]["exit"] == 4 for name in MOVED)


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
