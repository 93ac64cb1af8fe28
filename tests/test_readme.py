"""The python examples of README.md run as written."""

import re
import sys
from pathlib import Path

from thzpair import model

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_python_blocks_run_standalone():
    """Each python block runs in a namespace of its own: a block that uses a
    name it does not import fails here as it would for a reader."""
    blocks = _python_blocks()
    assert len(blocks) >= 2
    for k, code in enumerate(blocks):
        exec(compile(code, f"{README.name} python block {k}", "exec"), {"__name__": "readme"})


def test_printed_values_match_their_comments():
    """On each `print(...)  # a, b` line of a python block, a commented value
    that ends in "..." is a prefix of the printed value, and any other value
    equals it: the comments show what a reader sees."""
    checked = 0
    for k, code in enumerate(_python_blocks()):
        printed = {}  # line of the block -> the printed values, as print shows them

        def capture(*args, _printed=printed):
            _printed[sys._getframe(1).f_lineno] = [str(a) for a in args]

        exec(compile(code, f"{README.name} python block {k}", "exec"),
             {"__name__": "readme", "print": capture})
        for lineno, line in enumerate(code.splitlines(), 1):
            comment = re.fullmatch(r"\s*print\(.*\)\s+#\s*(.*)", line)
            if comment is None:
                continue
            want = [v.strip() for v in comment.group(1).split(",")]
            got = printed[lineno]
            assert len(got) == len(want), (line, got)
            for w, v in zip(want, got):
                if w.endswith("..."):
                    assert v.startswith(w[:-3]), (line, v)
                else:
                    assert v == w, (line, v)
            checked += 1
    assert checked >= 2


def test_config_key_list_is_the_accepted_key_set():
    """The keys that README's "Config files" section lists are the keys a
    config file may set, so the docs cannot drift from the dataclass fields."""
    section = README.read_text(encoding="utf-8").split("### Config files", 1)[1]
    sentence = re.search(r"Keys: (.*?)\.", section, re.DOTALL).group(1)
    listed = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", sentence))
    assert sorted(listed) == sorted(model.CONFIG_KEYS)
