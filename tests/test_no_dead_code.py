"""Every function, class and method in ``src/scantraj`` has a reason to exist.

A definition passes when something in ``src/`` names it outside its own
body, when ``bench/tracer.py`` binds it in ``SPANS``, or when it is one of
the public helpers below that the tests, the demos or the README's users
call. Names are matched by identifier, so a name shared with another
definition counts for both: the guard catches code nothing names at all.
Likewise every switch of ``ModelConfig`` picks a code path that a demo or a
benchmark workload runs. ``bench/`` is parsed, not imported, so nothing
under it is written.
"""

import ast
import dataclasses
from pathlib import Path

from scantraj.model import ModelConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "scantraj"

# "module.name" or "module.Class.method" -> why it stays without a caller in src/.
PUBLIC_HELPERS = {
    "autodiff.sigmoid": "reference op the tests compose LSTM and loss references from",
    "autodiff.log": "reference op the tests compose loss references from",
    "autodiff.ParamStore.names": "public accessor: parameter names in update order",
    "cli._Parser.error": "argparse hook: argparse calls it on a usage error",
    "generative.PredictionSet.positions_array": "public accessor, used by the diversity demo",
    "generative.sample_spread": "evaluation metric of sample spread, used by the diversity demo",
    "geometry.bin_index": "scalar reference that geometry.bin_indices equals bit for bit",
    "metrics.MetricReport.from_csv": "documented reader of the evaluate/sweep CSV",
    "metrics.near_collision_rate": "documented metric: percent of colliding pedestrians",
    "metrics.linear_extrapolation": "constant-velocity baseline of the collision demo",
    "training.read_curve": "documented reader of the loss-curve CSV",
}


def definitions() -> dict:
    """"module.name" -> (module, definition node) for every top-level
    function and class and every method, dunders excepted: Python calls
    those itself."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found[f"{module}.{node.name}"] = (module, node)
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef):
                    found[f"{module}.{node.name}.{sub.name}"] = (module, sub)
    return {key: value for key, value in found.items()
            if not key.rsplit(".", 1)[1].startswith("__")}


def references() -> list:
    """(module, identifier, line) of every name, attribute and import in src/."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name.rsplit(".", 1)[-1] if isinstance(node, ast.alias) else None)
            if name is not None:
                out.append((path.stem, name, getattr(node, "lineno", 0)))
    return out


def tracer_bound() -> set:
    """"module.name" of every (namespace, attribute) pair in ``SPANS``."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    [spans] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SPANS"]]
    bound = set()
    for bindings in spans.values:
        for pair in bindings.elts:
            namespace, attribute = pair.elts
            bound.add(f"{ast.unparse(namespace)}.{attribute.value}")
    return bound


def test_every_definition_has_a_caller_a_tracer_binding_or_a_reason():
    refs = references()
    spared = tracer_bound() | set(PUBLIC_HELPERS)
    uncalled = []
    for key, (module, node) in definitions().items():
        name = key.rsplit(".", 1)[1]
        called = any(ref == name and not (mod == module
                                          and node.lineno <= line <= node.end_lineno)
                     for mod, ref, line in refs)
        if not called and key not in spared:
            uncalled.append(key)
    assert uncalled == [], f"nothing in src/ calls {uncalled}: delete them or say why they stay"


def test_every_public_helper_still_exists():
    assert set(PUBLIC_HELPERS) - set(definitions()) == set()


def test_every_model_switch_is_set_off_its_default_by_a_demo_or_the_bench():
    # A bool or str field picks a code path; one that no ModelConfig(...)
    # call in demos/ or bench/ sets to another literal is a path only the
    # tests run.
    defaults = {field.name: field.default for field in dataclasses.fields(ModelConfig)
                if isinstance(field.default, (bool, str))}
    moved = set()
    for path in sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) != "ModelConfig":
                continue
            moved |= {kw.arg for kw in node.keywords if kw.arg in defaults
                      and isinstance(kw.value, ast.Constant)
                      and kw.value.value != defaults[kw.arg]}
    assert set(defaults) - moved == set(), "switches no demo or workload sets"



# The batched geometry works on whole arrays: no Python loop over agents or
# pairs, and no trip through Python floats.
ARRAY_GEOMETRY = ("_moves", "advance_kinematics", "track_kinematics", "pair_offsets",
                  "bin_indices", "_normalize_deg_array")


def test_the_array_geometry_has_no_python_loop():
    defs = definitions()
    found = []
    for name in ARRAY_GEOMETRY:
        for node in ast.walk(defs[f"geometry.{name}"][1]):
            func = getattr(node, "func", None)
            if (isinstance(node, (ast.For, ast.While, ast.comprehension))
                    or isinstance(func, ast.Name) and func.id == "map"
                    or isinstance(func, ast.Attribute) and func.attr == "tolist"):
                found.append(f"{name}: {ast.unparse(node).splitlines()[0]}")
    assert found == [], "a Python loop in the array geometry"
