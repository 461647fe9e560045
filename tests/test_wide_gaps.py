"""Measures whose atoms lie far apart cost what their atom counts say.

Convolving atoms at 0 and 10**9 spans a product box of two billion cells
(in 2D, four quintillion), so the core must index only the cells its
products hit.  The convolutions run in a child process whose address space
is capped 256 MB above its size after the imports: an array the size of
the box fails to allocate there instead of filling the machine's memory.
"""
import json
import os
import subprocess
import sys

import pytest

import deconv
import lattice_oracle as oracle
from deconv import io as dio

resource = pytest.importorskip("resource")

MEASURES = {
    "gap1.txt": "1000000000 0.7\n0 0.1\n",
    "gap2.txt": "1000000000 -1000000000 0.7\n0 0 0.1\n",
}

CHILD = r"""
import contextlib, io, json, os, resource, sys
from deconv import cli, io as dio
size = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
resource.setrlimit(resource.RLIMIT_AS,
                   (size + (256 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
done = {}
for name in sys.argv[1:]:
    for mode in ("exact", "float"):
        m = dio.read_measure(name, mode)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["convolve", name, name, "-o", f"{name}.{mode}.out", "--mode", mode])
        done[f"{name} {mode}"] = [repr(list(m.convolve(m).atoms.items())), code,
                                  stdout.getvalue()]
print(json.dumps(done))
"""


def _body(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_wide_gaps_keep_atoms_and_bytes_without_a_box_sized_array(tmp_path):
    for name, text in MEASURES.items():
        (tmp_path / name).write_text(text)
    src = os.path.dirname(os.path.dirname(os.path.abspath(deconv.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    child = subprocess.run([sys.executable, "-c", CHILD, *MEASURES], cwd=tmp_path, env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    done = json.loads(child.stdout)
    for name in MEASURES:
        for mode in ("exact", "float"):
            m = dio.read_measure(tmp_path / name, mode)
            want = oracle.convolve(m, m)
            atoms, code, stdout = done[f"{name} {mode}"]
            assert atoms == repr(list(want.atoms.items()))
            assert code == 0
            assert stdout == (f"atoms={len(want)} "
                              f"tv={dio.format_weight(want.total_variation())}\n")
            expected = tmp_path / f"{name}.{mode}.want"
            dio.write_measure(expected, want)
            assert _body(tmp_path / f"{name}.{mode}.out") == _body(expected)
