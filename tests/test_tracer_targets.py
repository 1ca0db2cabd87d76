"""Every span target of `perfbench/tracer.py` still resolves in the package.

`install` reads a class attribute from the class's own `__dict__`, so a
method moved to a base class, renamed or deleted would break traced runs
without failing any other test.  The tracer also reads the hit counts of the
`universal_sl2_fusion` cache.
"""

import importlib.util
from pathlib import Path

from dybax import fusion

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _tracer()
    missing = []
    for modname, path, _, _ in tracer.TARGETS:
        owner, attr = tracer._resolve(modname, path)
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if not found:
            missing.append(f"{modname}:{path}")
    assert not missing, "tracer targets that install cannot wrap:\n" + "\n".join(missing)


def test_universal_sl2_fusion_keeps_its_cache_info():
    info = fusion.universal_sl2_fusion.cache_info()
    assert info.hits >= 0 and info.misses >= 0
