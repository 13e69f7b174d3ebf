"""The README's commands keep the outputs recorded in tests/data/golden.json.

Every `adaptmreg` line of the README's sh blocks runs in-process through
run_cli, in a fresh directory, at ADAPTMREG_WORKERS=1 here and at 2 in the
CI step, which runs

    PYTHONPATH=src python tests/test_golden.py --check 2

(the two-worker half would add about 8 s to tier-1). Each command's exit
code and the SHA-256 of its stdout, its stderr and every file it writes are
compared with the manifest, which also records the numpy version it was
taken with: numpy's sorts and Generator streams are part of the
reproducibility contract, so an upgrade that moves a digest fails here by
name. The denoise command reads a 256x256 8-bit PGM made by noisy_pgm.

A change that moves outputs on purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_golden.py --write

and lists the moved digests in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

from adaptmreg.cli import run_cli
from adaptmreg.pgmio import write_pgm

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "data" / "golden.json"


def readme_commands() -> list[list[str]]:
    """The arguments of every `adaptmreg` line in the README's sh blocks, in order."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return [shlex.split(line, comments=True)[1:]
            for block in blocks for line in block.splitlines()
            if line.startswith("adaptmreg ")]


def noisy_pgm(path: Path) -> None:
    """The README's noisy.pgm: a 256x256 8-bit image of three flat regions plus Laplace noise."""
    img = np.full((256, 256), 60.0)
    img[:, 128:] = 170.0
    img[96:160, 64:192] = 110.0
    write_pgm(path, img + np.random.default_rng(256).laplace(0, 8, img.shape), maxval=255)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(directory: Path) -> dict[str, str]:
    return {p.name: _sha(p.read_bytes()) for p in sorted(directory.iterdir()) if p.is_file()}


@contextlib.contextmanager
def _inside(directory: Path, workers: int):
    """Run in directory with ADAPTMREG_WORKERS set to workers; restore both after."""
    cwd, env = os.getcwd(), os.environ.get("ADAPTMREG_WORKERS")
    os.chdir(directory)
    os.environ["ADAPTMREG_WORKERS"] = str(workers)
    try:
        yield
    finally:
        os.chdir(cwd)
        if env is None:
            os.environ.pop("ADAPTMREG_WORKERS")
        else:
            os.environ["ADAPTMREG_WORKERS"] = env


def run_readme(directory: Path, workers: int) -> list[dict]:
    """Each README command's exit code and the digests of its stdout, stderr and new files."""
    noisy_pgm(directory / "noisy.pgm")
    results = []
    with _inside(directory, workers):
        for argv in readme_commands():
            before = _files(directory)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(argv)
            written = {name: digest for name, digest in _files(directory).items()
                       if before.get(name) != digest}
            results.append({"command": shlex.join(["adaptmreg", *argv]), "exit": code,
                            "stdout": _sha(out.getvalue().encode()),
                            "stderr": _sha(err.getvalue().encode()), "files": written})
    return results


def first_difference(expected: list[dict], got: list[dict]) -> str | None:
    """The first command, and its first field or file, whose digest differs; None if none."""
    for want, have in zip(expected, got):
        if want["command"] != have["command"]:
            return f"command {have['command']!r} stands where the manifest has {want['command']!r}"
        for key in ("exit", "stdout", "stderr"):
            if want[key] != have[key]:
                return f"{want['command']!r}: {key} differs"
        for name in sorted(set(want["files"]) | set(have["files"])):
            if want["files"].get(name) != have["files"].get(name):
                return f"{want['command']!r}: file {name} differs"
    if len(expected) != len(got):
        return f"the manifest has {len(expected)} commands, the README {len(got)}"
    return None


def manifest_difference(directory: Path, workers: int) -> str | None:
    """Where a run of the README at this worker count first leaves the manifest; None if nowhere."""
    manifest = json.loads(MANIFEST.read_text())
    diff = first_difference(manifest["commands"], run_readme(directory, workers))
    if diff is None:
        return None
    return (f"{diff} at ADAPTMREG_WORKERS={workers}; the manifest was taken with numpy "
            f"{manifest['numpy']}, this run has numpy {np.__version__}")


def test_readme_outputs_match_the_manifest(tmp_path):
    diff = manifest_difference(tmp_path, 1)
    assert diff is None, diff


def write_manifest() -> None:
    """Run the README at one and two workers and record the digests they share."""
    runs = []
    for workers in (1, 2):
        with tempfile.TemporaryDirectory() as tmp:
            runs.append(run_readme(Path(tmp), workers))
    diff = first_difference(*runs)
    if diff is not None:
        sys.exit(f"one and two workers disagree: {diff}")
    MANIFEST.write_text(json.dumps({"numpy": np.__version__, "commands": runs[0]},
                                   indent=1) + "\n")
    print(f"wrote {len(runs[0])} commands to {MANIFEST}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_manifest()
    elif len(sys.argv) == 3 and sys.argv[1] == "--check" and sys.argv[2].isdigit():
        with tempfile.TemporaryDirectory() as tmp:
            diff = manifest_difference(Path(tmp), int(sys.argv[2]))
        sys.exit(diff)
    else:
        sys.exit(f"usage: {sys.argv[0]} --write | --check WORKERS")
