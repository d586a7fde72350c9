"""Portability guard: ``src/`` calls nothing newer than ``requires-python`` admits."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: method name -> first Python version that has it
TOO_NEW = {"bit_count": (3, 10)}

#: function name -> (keyword, first Python version that accepts it)
TOO_NEW_KEYWORDS = {
    name: ("key", (3, 10))
    for name in ("bisect", "bisect_left", "bisect_right", "insort", "insort_left", "insort_right")
}


def declared_floor():
    declared = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                         (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.MULTILINE)
    return int(declared.group(1)), int(declared.group(2))


def offenders(source, floor, where="<string>"):
    """Calls in ``source`` that ``floor`` cannot run: a too-new method, or a
    too-new keyword (by function name, plain or module-qualified)."""
    found = []
    for node in ast.walk(ast.parse(source, where)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if isinstance(func, ast.Attribute) and floor < TOO_NEW.get(name, floor):
            found.append(f"{where}:{node.lineno} .{name}()")
        keyword, since = TOO_NEW_KEYWORDS.get(name, (None, floor))
        if floor < since and any(given.arg == keyword for given in node.keywords):
            found.append(f"{where}:{node.lineno} {name}({keyword}=)")
    return found


def test_no_call_of_a_method_newer_than_requires_python():
    floor = declared_floor()
    found = [offender for path in sorted((ROOT / "src").rglob("*.py"))
             for offender in offenders(path.read_text(encoding="utf-8"), floor,
                                       str(path.relative_to(ROOT)))]
    assert found == [], f"requires-python admits {floor}"


def test_the_walker_catches_each_kind_of_call():
    source = ("mask.bit_count()\n"
              "bisect.bisect_left(rows, 3, key=f)\n"
              "insort(rows, 3, key=f)\n"
              "bisect_right(rows, 3, lo=1)\n"
              "sorted(rows, key=f)\n")
    assert offenders(source, (3, 8)) == [
        "<string>:1 .bit_count()", "<string>:2 bisect_left(key=)", "<string>:3 insort(key=)"]
    assert offenders(source, (3, 10)) == []
