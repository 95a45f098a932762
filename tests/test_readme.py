"""The README's library example runs and states what it gives."""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECKED = ("sol.breakpoints", "entry.int_image", "integral_image(")


def _library_block() -> str:
    """The python block under README's ## Library heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```\n", start)]


def test_the_readme_library_example_gives_what_its_comments_state(monkeypatch):
    """The block runs from the repository root, and each of its
    breakpoints, int_image and lambda-map lines gives the value that its
    comment states, up to the comment's first ': '."""
    block = _library_block()
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if code.startswith(CHECKED):
            stated = eval(comment.split(": ")[0], namespace)
            assert eval(code, namespace) == stated, line
            checked.append(code.split("(")[0].split()[0])
    assert checked == ["sol.breakpoints", "entry.int_image", "integral_image"]
