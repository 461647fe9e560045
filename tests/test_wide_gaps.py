"""Measures whose atoms lie far apart cost what their atom counts say.

Convolving atoms at 0 and 10**9 spans a product box of two billion cells
(in 2D, four quintillion), so the core must index only the cells its
products hit, and convolution powers and Neumann series must not build
their terms on an array over that box.  The work runs in a child process
whose address space is capped 256 MB above its size after the imports: an
array the size of the box fails to allocate there instead of filling the
machine's memory.
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

CAP = r"""
import os, resource
size = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
resource.setrlimit(resource.RLIMIT_AS,
                   (size + (256 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
"""

CHILD = r"""
import contextlib, io, json, os, resource, sys
from deconv import cli, io as dio
""" + CAP + r"""
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


# mu has tv 1/2; its powers and series stay a few dozen atoms on a box of 10**10 cells
SERIES_MU = {"1D": [((0,), "0.2"), ((10**9,), "0.3")],
             "2D": [((0, 0), "0.2"), ((10**9, -10**9), "0.3")]}
SERIES_ORDER = 10

SERIES_CHILD = r"""
import json, sys
from deconv import NeumannConfig, from_atoms, neumann_inverse
""" + CAP + r"""
done = {}
for name, atoms in json.loads(sys.argv[1]).items():
    for mode in ("exact", "float"):
        mu = from_atoms([(tuple(p), w) for p, w in atoms], mode=mode)
        nu, report = neumann_inverse(mu, NeumannConfig(order=int(sys.argv[2])))
        # exact atoms by position, float ones in their order
        view = sorted if mode == "exact" else list
        done[f"{name} {mode}"] = [repr(view(m.atoms.items())) for m in
                                  (nu, report.residual, mu.power(int(sys.argv[2])))]
print(json.dumps(done))
"""


def _child(script, args, cwd):
    src = os.path.dirname(os.path.dirname(os.path.abspath(deconv.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    child = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def _body(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_wide_gaps_keep_atoms_and_bytes_without_a_box_sized_array(tmp_path):
    for name, text in MEASURES.items():
        (tmp_path / name).write_text(text)
    done = _child(CHILD, list(MEASURES), tmp_path)
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


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_wide_gap_series_match_oracle_without_a_box_sized_array(tmp_path):
    done = _child(SERIES_CHILD, [json.dumps(SERIES_MU), str(SERIES_ORDER)], tmp_path)
    config = deconv.NeumannConfig(order=SERIES_ORDER)
    for name, atoms in SERIES_MU.items():
        for mode in ("exact", "float"):
            mu = deconv.from_atoms(atoms, mode=mode)
            nu, report = oracle.neumann_inverse(mu, config)
            view = sorted if mode == "exact" else list
            assert done[f"{name} {mode}"] == [
                repr(view(m.atoms.items()))
                for m in (nu, report.residual, oracle.power(mu, SERIES_ORDER))]
