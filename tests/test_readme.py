"""README.md's "Library entry points" block runs and prints what its
comments say."""

import re
from pathlib import Path

import tropcircle as tc

README = Path(__file__).resolve().parent.parent / "README.md"


def entry_points_block() -> str:
    section = README.read_text().split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def run_block(block: str) -> dict:
    """Run the block line by line; map each comment to the value of its
    line: the expression's value, or the value an assignment bound."""
    namespace, results = {}, {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        try:
            value = eval(compile(code, "README.md", "eval"), namespace)
        except SyntaxError:
            exec(compile(code, "README.md", "exec"), namespace)
            value = namespace.get(code.split("=", 1)[0].strip())
        if comment:
            results[comment] = value
    return results


def test_library_entry_points_print_their_comments():
    results = run_block(entry_points_block())
    d = results["{1 -> 4/3, 2 -> -2/3}; degree 0, chi 0"]
    assert repr(d) == "Divisor(p=3, 1 -> 4/3, 2 -> -2/3)"
    assert d.degree() == 0 and d.chi() == 0
    assert results["3"] == 3
    witness = results["a function with this divisor, anchored at 0"]
    assert tc.divisor_of(witness) == d and witness.anchor == 0
    assert results["True"] is True
    assert len(results) == 4
