"""Import layering of the package: the command line sits on top of the library."""

import ast
from pathlib import Path

import rdcss
import rdcss.cli

SRC = Path(rdcss.__file__).parent


def _imports(path: Path):
    """(module, names) for every import in the file, relative ones resolved."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "rdcss" + (f".{module}" if module else "")
            yield module, [alias.name for alias in node.names]


def test_no_library_module_imports_the_cli():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for module, names in _imports(path):
            assert module != "rdcss.cli", path.name
            assert not (module == "rdcss" and "cli" in names), path.name


def test_cli_imports_no_private_name_of_another_module():
    for module, names in _imports(SRC / "cli.py"):
        if module.startswith("rdcss"):
            assert not [n for n in names if n.startswith("_")], module


def test_verification_payload_is_defined_in_the_cli():
    # The benchmark's span tracer (perfbench/spans.py) wraps cli functions only
    # when fn.__module__ == "rdcss.cli"; a re-export from elsewhere would drop
    # the cli.verification_payload span without any error.
    assert rdcss.cli.verification_payload.__module__ == "rdcss.cli"
