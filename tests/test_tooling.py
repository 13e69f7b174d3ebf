"""The README's library example runs, and the benchmark tracer fits the package.

benchmarks/tracing.py wraps the package's functions by rebinding module
attributes, so every name it binds must exist; it is imported here as it
stands, from its file.
"""

import importlib.util
import re
import sys
from pathlib import Path

import adaptmreg as am
from adaptmreg import imaging
from adaptmreg.noise import RngStream

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(capsys):
    """The README's python block prints a window index in 0..K and a float."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    namespace = {"__name__": "readme_example"}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    k_hat, theta_hat = capsys.readouterr().out.split()
    assert 0 <= int(k_hat) <= namespace["family"].K
    assert isinstance(float(theta_hat), float)
    assert isinstance(namespace["art"], am.CalibArtifact)


def _bindings() -> dict:
    """Every module-level binding of the package, and the one class attribute the tracer sets."""
    out = {(name, attr): value
           for name, mod in list(sys.modules.items())
           if name == "adaptmreg" or name.startswith("adaptmreg.")
           for attr, value in vars(mod).items()}
    out[("RngStream", "generator")] = vars(RngStream)["generator"]
    return out


def test_tracer_installs_and_uninstall_restores_every_binding():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import adaptmreg.cli  # noqa: F401 - the tracer wraps the CLI's bindings too

    had_ndimage = "ndimage" in vars(imaging)
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = {key for key in before if during.get(key) is not before[key]}
        for key in (("adaptmreg.calibration", "calibrate"),
                    ("adaptmreg.cli", "calibrate"),
                    ("adaptmreg.cli", "verify_calibration"),
                    ("adaptmreg.calibration", "load_artifact"),
                    ("RngStream", "generator")):
            assert key in changed, key
            assert during[key].__wrapped__ is before[key]
    finally:
        tracer.uninstall()
    try:
        after = _bindings()
        assert all(after[key] is value for key, value in before.items())
        # the one binding install() adds: imaging's lazily imported ndimage, restored to it
        added = set(after) - set(before)
        assert added <= {("adaptmreg.imaging", "ndimage")}
        if added:
            assert after[("adaptmreg.imaging", "ndimage")] is imaging.__getattr__("ndimage")
    finally:
        if not had_ndimage:
            vars(imaging).pop("ndimage", None)
