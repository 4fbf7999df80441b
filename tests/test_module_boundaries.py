import ast
import pathlib
import re
import sys

import fhuplink

SRC = pathlib.Path(fhuplink.__file__).parent


def test_no_module_imports_a_private_name_of_another():
    # a _-prefixed name belongs to its module; a second module that needs
    # it calls for a public name, or for the behaviour to move
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}: {alias.name} from {node.module}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def test_the_runtime_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency that pyproject.toml declares;
    # scipy, mpmath and hypothesis are test extras, so no change to src/
    # may bring them, or anything else, into a run
    project = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    deps = re.search(r"^dependencies = \[(.*)\]$", project, re.M).group(1)
    assert re.findall(r'"([A-Za-z0-9_]+)', deps) == ["numpy"]
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []
