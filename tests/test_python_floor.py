"""Portability guard: ``src/`` calls nothing newer than ``requires-python`` admits."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: method name -> first Python version that has it
TOO_NEW = {"bit_count": (3, 10)}


def test_no_call_of_a_method_newer_than_requires_python():
    declared = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                         (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.MULTILINE)
    floor = (int(declared.group(1)), int(declared.group(2)))
    offenders = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and floor < TOO_NEW.get(node.func.attr, floor)):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno} .{node.func.attr}()")
    assert offenders == [], f"requires-python admits {floor}"
