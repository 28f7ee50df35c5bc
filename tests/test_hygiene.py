"""Source hygiene: every module of the package uses each name it imports,
every function, class and method it defines is named somewhere else in
``src/`` or ``perfbench/`` (a name that only tests read belongs in the
tests), every parameter default it declares is overridden by some call in
``src/`` or ``perfbench/`` (a setting that only tests set is a constant),
each package ``__init__`` exports exactly what it imports, the README's
Layout names every module, every name the benchmark's tracer patches
still exists, and importing the package loads no scipy.ndimage.

Package ``__init__`` files are left out of the use checks: they import
names to re-export them, and a re-export is not a use.
"""

import ast
import importlib
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "psimlab"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
INITS = sorted(PACKAGE.rglob("__init__.py"))


def user_files(root):
    """The files under ``root`` where a definition of the package may be
    named: the package itself and the benchmark, not the tests."""
    return sorted(p for d in ("src", "perfbench")
                  for p in (root / d).rglob("*.py") if p.name != "__init__.py")


USERS = user_files(ROOT)


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def definitions(source):
    """The name of each function, class and method that ``source``
    defines, dunder methods left out."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(node.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, kinds) and not (
                      node.name.startswith("__") and node.name.endswith("__")))


def dead_names(defined, sources):
    """The names in ``defined`` that no text of ``sources`` names as a
    word, besides the definitions of that name."""
    text = "\n".join(sources)
    words = Counter(re.findall(r"\w+", text))
    defs = Counter(re.findall(r"\b(?:def|class)\s+(\w+)", text))
    return sorted(name for name in set(defined) if words[name] <= defs[name])


def test_checker_flags_a_dead_name(tmp_path):
    source = ("class Used:\n    def used(self): pass\n"
              "    def orphan(self): pass\n    def __len__(self): pass\n"
              "def helper(): pass\n")
    user = "from m import Used\nUsed().used()\n# helper is kept for...\n"
    defined = definitions(source)
    assert defined == ["Used", "helper", "orphan", "used"]
    assert dead_names(defined, [source, user]) == ["orphan"]
    # a second definition of a name is no mention of it
    assert dead_names(["used"], [source, source]) == ["used"]
    # a name whose only user is a test file is dead
    bench = "from m import Used\nUsed().used()\n"
    for rel, text in (("src/m.py", source), ("perfbench/b.py", bench),
                      ("tests/test_m.py", "from m import helper\nhelper()\n")):
        (tmp_path / rel).parent.mkdir(exist_ok=True)
        (tmp_path / rel).write_text(text)
    users = [p.read_text() for p in user_files(tmp_path)]
    assert dead_names(defined, users) == ["helper", "orphan"]


def test_every_definition_is_named_elsewhere():
    sources = [p.read_text() for p in USERS]
    defined = [name for p in MODULES for name in definitions(p.read_text())]
    assert dead_names(defined, sources) == []


def defaulted_parameters(source):
    """Each function, method and constructor that ``source`` defines, as
    (class or None, name, positional parameters, parameters with a
    default), and each class's base names.  A method's positional
    parameters leave out its ``self``."""
    found, bases = [], {}

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                bases[child.name] = [getattr(b, "id", getattr(b, "attr", None))
                                     for b in child.bases]
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a.arg for a, d in zip(args.kwonlyargs,
                                                    args.kw_defaults) if d]
                if cls and "staticmethod" not in [
                        getattr(d, "id", None) for d in child.decorator_list]:
                    positional = positional[1:]
                found.append((cls, child.name, positional, defaulted))
                visit(child, None)

    visit(ast.parse(source), None)
    return found, bases


def unset_parameters(package, sources):
    """Each parameter with a default, of a function, method or constructor
    of the ``package`` sources, that no call in ``sources`` sets, as
    "function.param", "Class.method.param" or "Class.param" for a
    constructor.  A call sets a parameter by keyword, by position or
    through ``*args`` / ``**kwargs``; a method is matched by its name on
    any object, and a constructor by its class or by any subclass that
    inherits it."""
    defs, bases = [], {}
    for source in package:
        found, declared = defaulted_parameters(source)
        defs += found
        bases.update(declared)
    calls = [node for source in sources for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call)]
    own_init = {cls for cls, name, *_ in defs if name == "__init__"}

    def inheritors(cls):
        subs = [sub for sub, base in bases.items()
                if cls in base and sub not in own_init]
        return {cls}.union(*map(inheritors, subs))

    unset = []
    for cls, name, positional, defaulted in defs:
        names = inheritors(cls) if name == "__init__" else {name}
        done = set()
        for call in calls:
            if getattr(call.func, "id", getattr(call.func, "attr", None)) \
                    not in names:
                continue
            for keyword in call.keywords:
                done |= set(defaulted) if keyword.arg is None else {
                    keyword.arg}
            for k, arg in enumerate(call.args):
                done |= set(positional[k:] if isinstance(arg, ast.Starred)
                            else positional[k:k + 1])
        label = [cls] if name == "__init__" else [cls, name]
        unset += [".".join(filter(None, label + [p]))
                  for p in defaulted if p not in done]
    return sorted(unset)


def test_checker_flags_an_unset_parameter(tmp_path):
    source = ("class Base:\n    def __init__(self, by_subclass=0): pass\n"
              "    def method(self, by_position=0): pass\n"
              "class Sub(Base): pass\n"
              "def f(by_keyword=0, never=0): pass\n"
              "def g(*, by_kwargs=0): pass\n"
              "def h(by_test=0): pass\n")
    for rel, text in (("src/m.py", source),
                      ("perfbench/b.py", "Sub(1).method(2)\nf(by_keyword=1)\n"
                                         "g(**options)\n"),
                      ("tests/test_m.py", "from m import h\nh(by_test=1)\n")):
        (tmp_path / rel).parent.mkdir(exist_ok=True)
        (tmp_path / rel).write_text(text)
    users = [p.read_text() for p in user_files(tmp_path)]
    assert unset_parameters([source], users) == ["f.never", "h.by_test"]


def test_every_parameter_default_is_set_somewhere():
    package = [p.read_text() for p in MODULES]
    assert unset_parameters(package, [p.read_text() for p in USERS]) == []


def imports_and_exports(source):
    """The names an ``__init__`` imports, and its ``__all__``."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    exported = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["__all__"]]
    return imported, exported[0] if exported else None


@pytest.mark.parametrize("path", INITS,
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_init_exports_what_it_imports(path):
    imported, exported = imports_and_exports(path.read_text())
    assert exported is not None
    assert len(set(exported)) == len(exported)
    assert sorted(exported) == sorted(imported)


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\nfrom os import path, sep\n"
              "x = np.pi + len(sep)\n")
    assert unused_imports(source) == [(2, "math"), (4, "path")]


def test_readme_layout_names_every_module():
    """Each module and subpackage directly under ``src/psimlab`` has its
    bullet in the README's Layout section; a subpackage's bullet covers
    its own modules."""
    layout = (ROOT / "README.md").read_text().split("## Layout", 1)[1]
    layout = layout.split("\n## ", 1)[0]
    entries = [p.name + ("/" if p.is_dir() else "")
               for p in sorted(PACKAGE.iterdir())
               if p.name != "__init__.py" and (
                   p.suffix == ".py" or (p / "__init__.py").exists())]
    assert {"cli.py", "gan/", "nn/"} <= set(entries)
    assert [e for e in entries if f"`src/psimlab/{e}`" not in layout] == []


def test_package_modules_are_found():
    names = {p.relative_to(PACKAGE).as_posix() for p in MODULES}
    assert {"cli.py", "reconstruct.py", "nn/ops.py", "gan/data.py"} <= names


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_only_rotation_loads_scipy_ndimage():
    """Importing the package and its CLI leaves ``scipy.ndimage``, which
    would be the largest import of every command, unloaded; the first
    off-axis rotation of augmentation loads it.  A fresh interpreter, so
    that no other test's imports count."""
    code = ("import sys\n"
            "import numpy as np\n"
            "import psimlab, psimlab.cli\n"
            "from psimlab.gan import rotations_12\n"
            "from psimlab.gan.data import PairedSample\n"
            "print('scipy.ndimage' in sys.modules)\n"
            "z = np.zeros((8, 8))\n"
            "rotations_12([PairedSample(z, z)])\n"
            "print('scipy.ndimage' in sys.modules)\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "True"]


def test_benchmark_tracer_installs(monkeypatch):
    """Installing fails with AttributeError if a patched name is gone."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    with tracer.Tracer().installed():
        pass


def test_traced_step_records_finite_conv_flops(monkeypatch):
    """A train step and an inference run under the tracer, and each of the
    four traced conv ops records at least one span, every one with a
    finite, positive FLOP count, so a conv op whose results the tracer's
    counters cannot read fails here.  A partial conv backward runs
    ``ops.conv_grads``, which the tracer does not wrap, so its work is in
    no count."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    from psimlab.gan import GanSpec, init_gan
    from psimlab.gan.data import PairedSample

    # the module, which the package's ``train`` function shadows
    gan_train = importlib.import_module("psimlab.gan.train")

    rng = np.random.default_rng(0)
    batch = [PairedSample(rng.uniform(-1, 1, (16, 16)),
                          rng.uniform(-1, 1, (16, 16))) for _ in range(2)]
    state = init_gan(GanSpec(depth=2, base=4, disc_blocks=2, disc_base=4,
                             image_side=16))
    with tracer.Tracer().installed() as traced:
        gan_train.train_step(state, batch)
        gan_train.generator_apply(state, batch[0].input)
    for op in ("conv2d_forward", "conv2d_backward",
               "conv_transpose2d_forward", "conv_transpose2d_backward"):
        flops = [span.counts["conv_flop"] for span in traced.spans
                 if span.name == f"nn.ops.{op}"]
        assert flops and all(math.isfinite(f) and f > 0 for f in flops), op
