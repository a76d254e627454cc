"""The benchmark harness under perfbench/ reaches into qmu by name.

It patches the functions its tracer lists and calls qmu attributes from its
workloads; a renamed or deleted name would break the benchmark, not qmu's
own tests, so these checks keep the two in step.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import qmu
import qmu.cli  # noqa: F401  (the tracer looks up every qmu module it times)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_enters_and_exits_with_every_layer_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    run_scenario = qmu.scenarios.run_scenario
    tracer = tracing.Tracer()
    try:
        tracer.__enter__()
        assert qmu.scenarios.run_scenario is not run_scenario
    finally:
        tracer.__exit__(None, None, None)
    assert qmu.scenarios.run_scenario is run_scenario


def _qmu_names_used(path: Path):
    """(module, attribute) pairs a file imports from qmu or reads off a qmu module.

    Every qmu module is imported above, so a submodule is one in ``sys.modules``.
    """
    tree = ast.parse(path.read_text())
    aliases, used = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "qmu" or alias.name.startswith("qmu."):
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qmu":
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                if submodule in sys.modules:
                    aliases[alias.asname or alias.name] = submodule
                else:
                    used.append((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.append((aliases[node.value.id], node.attr))
    return used


def test_workloads_call_only_existing_qmu_names():
    used = [pair for path in sorted(PERFBENCH.glob("*.py")) for pair in _qmu_names_used(path)]
    assert ("qmu.cli", "main") in used
    missing = [f"{module}.{attr}" for module, attr in used
               if not hasattr(sys.modules[module], attr)]
    assert not missing
