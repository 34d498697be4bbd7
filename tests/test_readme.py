"""The README's code must run as printed."""
from __future__ import annotations

import contextlib
import io
import pkgutil
import re
from pathlib import Path

import hiertune
from hiertune import gen_synth

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    (tmp_path / "data").mkdir()
    texts = gen_synth(27, 3, 64, 1, 0.6, 0)
    for name, text in zip(("tree.txt", "embeddings.tsv", "samples.tsv"), texts):
        (tmp_path / "data" / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().strip()


def test_every_module_name_the_readme_gives_exists():
    # A backticked `<module>.<name>`, a call or a bench metric after it
    # included, names an attribute of that hiertune submodule.
    modules = {info.name for info in pkgutil.iter_modules(hiertune.__path__)}
    named = {
        (m.group(1), m.group(2))
        for m in re.finditer(r"`(\w+)\.(\w+)", README.read_text(encoding="utf-8"))
        if m.group(1) in modules
    }
    assert ("metrics", "EVAL_BYTES") in named
    missing = {
        f"{module}.{name}" for module, name in named
        if not hasattr(getattr(hiertune, module), name)
    }
    assert not missing
