"""The README's Python blocks run as written: in order, in one namespace,
inside an empty working directory (they write a few small files)."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_python_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert len(BLOCKS) == 5  # a fence the pattern misses would go unchecked
    namespace = {"__name__": "readme"}
    for k, block in enumerate(BLOCKS, 1):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
    assert capsys.readouterr().out  # the blocks print their results
