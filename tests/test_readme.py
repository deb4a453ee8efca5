"""README's config example and "Library use" block, run as written."""

import json
import re
from pathlib import Path

from uavlink.config import load_config, load_preset, preset_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(section: str, language: str) -> str:
    """The first ```language code block of README's "## section"."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def test_readme_config_example_is_the_dense_urban_preset(tmp_path):
    text = _block("Configuration", "json")
    assert json.loads(text) == preset_config("dense_urban")
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert load_config(path) == load_preset("dense_urban")


def test_readme_library_use_gives_its_annotated_rates():
    code = _block("Library use", "python")
    namespace = {}
    exec(code, namespace)
    annotated = re.findall(r"^(.*?)#\s*(\d+\.(\d+)) bits/use$", code, re.M)
    assert len(annotated) == 2
    for expression, shown, decimals in annotated:
        assert f"{eval(expression, namespace):.{len(decimals)}f}" == shown, expression
