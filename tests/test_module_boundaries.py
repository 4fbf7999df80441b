import ast
import pathlib

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
