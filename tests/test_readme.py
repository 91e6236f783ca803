import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_prints_what_its_comments_say(capsys, monkeypatch):
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    expected = re.findall(r"^print\(.*#\s*(.*?)\s*$", block, re.M)
    assert expected, "the snippet documents no output"
    monkeypatch.chdir(ROOT)  # the snippet opens fixtures/ by a relative path
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
