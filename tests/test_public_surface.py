"""What readers outside the package rely on: README's library example runs
as written, and every function the benchmark traces by name still exists."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs_unchanged():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library example\n\n```python\n(.*?)^```$", text, re.S | re.M)
    assert block is not None, "README has no python block under '## Library example'"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), "README.md", "exec"), {})
    assert len(out.getvalue().splitlines()) == 2


def test_every_traced_function_is_defined_in_its_module():
    # bench/tracing.py reports a missing name as absent, not as an error
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.FUNCTIONS:
        layer, attr = name.split(".")
        module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name
