"""Recorded `deconv invert` runs: exit code, stdout and output file bytes.

Each run writes one kernel file into an empty directory and calls
``deconv.cli.main`` there with relative paths (``cli_golden.run_in_dir``), so
the echoed header is the same on every machine.  ``tests/invert_golden.json``
holds the records; ``tests/test_invert_golden.py`` replays them.  To rebuild the records:

    PYTHONPATH=src python3 tests/invert_golden.py
"""
import json
from pathlib import Path

from cli_golden import run_in_dir

GOLDEN = Path(__file__).with_name("invert_golden.json")

KERNELS = {
    "pair+1": "0 1\n1 1\n",
    "pair-1": "-1 1\n0 1\n",
    "pair+1x3": "0 3\n1 3\n",
    "pair-1x3": "-1 3\n0 3\n",
    "pair+1x0.7": "0 0.7\n1 0.7\n",
    "pair-1x0.7": "-1 0.7\n0 0.7\n",
    "pair+1x49": "0 49\n1 49\n",
    "pair-1x49": "-1 49\n0 49\n",
    "pair+1x5/2": "0 5/2\n1 5/2\n",
    "pair-1x5/2": "-1 5/2\n0 5/2\n",
    "binomial": "-1 1/4\n0 1/2\n1 1/4\n",
    "binomial-0.3": "-1 0.3\n0 0.6\n1 0.3\n",
    "half-pair": "0 1/2\n1 1/2\n",
    "three-point": "-1 1/8\n0 3/4\n1 1/8\n",
    "zero": "0 0\n",
    "pair-2d": "0 0 1\n0 1 1\n",
    "no-family": "-1 1/5\n0 1/2\n2 3/10\n",
}

METHODS = {
    "onesided-right": ["--method", "onesided", "--N", "6", "--side", "right"],
    "onesided-left": ["--method", "onesided", "--N", "6", "--side", "left"],
    "binomial": ["--method", "binomial", "--N", "5"],
    "halfpair": ["--method", "halfpair", "--N", "5"],
    "neumann": ["--method", "neumann", "--N", "8"],
}

MODES = ("exact", "float")


def cases():
    """(name, kernel text, argv) for every kernel, method and mode."""
    for kernel, text in KERNELS.items():
        for method, flags in METHODS.items():
            for mode in MODES:
                argv = ["invert", "kernel.txt", "-o", "out.txt", *flags, "--mode", mode]
                yield f"{kernel}/{method}/{mode}", text, argv


def run(text, argv) -> dict:
    """Exit code, stdout and output file (None if absent) of one run."""
    code, stdout, written, _ = run_in_dir({"kernel.txt": text}, argv)
    body = written["out.txt"].decode("utf-8") if "out.txt" in written else None
    return {"exit": code, "stdout": stdout, "output": body}


def record() -> dict:
    return {name: {"argv": argv, **run(text, argv)} for name, text, argv in cases()}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
