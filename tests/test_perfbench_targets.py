import importlib
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_every_traced_name_resolves_in_src():
    # the tracer wraps these names by string, so a rename in src/ would only
    # show up as a failed benchmark run
    missing = []
    for metric, modname, attr in tracing.TARGETS:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in getattr(getattr(module, cls_name, None), "__dict__", {})
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{metric}: {modname}.{attr}")
    assert missing == []
