"""The package namespace: every public name resolves on first use."""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import signed_nullity
from signed_nullity import bicyclic_base, documents, nullity, recognize_rank3

ROOT = Path(__file__).resolve().parent.parent

SUBMODULES = (
    "graphs",
    "rank",
    "reductions",
    "recognizers",
    "canonical",
    "enumeration",
    "graphio",
    "verification",
    "documents",
    "cli",
)


def _fresh_stdout(code: str) -> str:
    """stdout of ``code`` run in a new interpreter, where no module is loaded yet."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout


def test_import_loads_no_submodule():
    code = "import sys, signed_nullity; print(*[m for m in sys.modules if m.startswith('signed_nullity.')])"
    assert _fresh_stdout(code) == "\n"


def test_every_name_is_the_object_of_its_defining_module():
    # in a fresh interpreter, so that each name is resolved here first; the
    # function ``nullity`` loads the submodule ``rank`` before ``rank`` is read
    code = (
        "import sys, signed_nullity\n"
        "for name in signed_nullity.__all__:\n"
        "    value = getattr(signed_nullity, name)\n"
        "    assert value is getattr(sys.modules[value.__module__], name), name\n"
        "    assert value.__module__.startswith('signed_nullity.'), name\n"
        "print('ok')"
    )
    assert _fresh_stdout(code) == "ok\n"


def test_the_function_rank_keeps_its_name_over_the_submodule():
    # the CLI loads the submodule ``rank`` without the package's help; the
    # module itself is reached through importlib
    code = (
        "import importlib, sys\n"
        "import signed_nullity.cli\n"
        "from signed_nullity import rank\n"
        "import signed_nullity.rank as also_rank\n"
        "from signed_nullity.rank import rank as defined\n"
        "module = importlib.import_module('signed_nullity.rank')\n"
        "print(rank is defined is also_rank, module is sys.modules['signed_nullity.rank'],"
        " hasattr(module, '_eliminate'))"
    )
    assert _fresh_stdout(code) == "True True True\n"


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from signed_nullity import *", namespace)
    assert set(signed_nullity.__all__) <= set(namespace)
    for name in signed_nullity.__all__:
        assert namespace[name] is getattr(signed_nullity, name)


def test_dir_lists_the_public_names():
    listed = dir(signed_nullity)
    assert set(signed_nullity.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        signed_nullity.no_such_name
    with pytest.raises(ImportError):
        exec("from signed_nullity import no_such_name", {})


def test_version_is_the_tool_version():
    assert signed_nullity.__version__ == documents.TOOL_VERSION


def test_submodules_resolve():
    from signed_nullity import cli, verification

    assert cli.main is sys.modules["signed_nullity.cli"].main
    assert signed_nullity.documents is documents
    assert signed_nullity.verification is verification
    assert signed_nullity.verification.verify_theorem is signed_nullity.verify_theorem
    for name in SUBMODULES:
        if name != "rank":  # the name belongs to the function
            assert getattr(signed_nullity, name) is sys.modules[f"signed_nullity.{name}"]


def _readme_library_example() -> tuple:
    """Run the README's Library example, then read off its graph ``g`` what
    the example's comments say: the nullity, the rank-3 verdict and the
    base shape."""
    text = (ROOT / "README.md").read_text()
    code = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(code, namespace)
    g = namespace["g"]
    base = bicyclic_base(g)
    return nullity(g), recognize_rank3(g).matches, (base.kind, base.p, base.q, base.l)


def test_the_readme_library_example_gives_its_commented_results():
    assert _readme_library_example() == (1, True, ("theta", 2, 2, 1))


def test_every_ci_check_is_a_call_of_a_named_helper_under_tests():
    # CI runs the helpers that tier-1 runs at smaller orders, one line a
    # step; a renamed helper fails here, not only in CI
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert not re.findall(r"(?<!<)<<(?!<).*", workflow)  # a here-string, <<<, is not a heredoc
    imports = re.findall(r"from (test_\w+|oracles) import (\w+(?:, \w+)*)", workflow)
    assert len(imports) >= 12, imports
    for module, names in imports:
        for name in names.split(", "):
            assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
