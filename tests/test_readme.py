"""The python examples of README.md run as written."""

import re
from pathlib import Path

from thzpair import model

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_standalone():
    """Each python block runs in a namespace of its own: a block that uses a
    name it does not import fails here as it would for a reader."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    for k, code in enumerate(blocks):
        exec(compile(code, f"{README.name} python block {k}", "exec"), {"__name__": "readme"})


def test_config_key_list_is_the_accepted_key_set():
    """The keys that README's "Config files" section lists are the keys a
    config file may set, so the docs cannot drift from the dataclass fields."""
    section = README.read_text(encoding="utf-8").split("### Config files", 1)[1]
    sentence = re.search(r"Keys: (.*?)\.", section, re.DOTALL).group(1)
    listed = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", sentence))
    assert sorted(listed) == sorted(model.CONFIG_KEYS)
