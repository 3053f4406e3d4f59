"""The public API is the README's "API" section, name for name."""

import inspect
import pkgutil
import re
from importlib import import_module
from pathlib import Path

import emscan

README = Path(__file__).resolve().parent.parent / "README.md"
# Modules that export nothing through ``emscan``.
_UNLISTED = {"__main__", "cli"}


def documented_api() -> dict[str, list[str]]:
    """Module name -> the names listed under its heading in the API section."""
    section = README.read_text(encoding="utf-8").split("\n## API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    groups = {}
    for line in section.splitlines():
        heading = re.match(r"### `emscan\.(\w+)`", line)
        if heading:
            module = groups.setdefault(heading.group(1), [])
        bullet = re.match(r"\* `(\w+)", line)
        if bullet:
            module.append(bullet.group(1))
    return groups


def test_readme_api_is_the_package_api():
    groups = documented_api()
    listed = [name for names in groups.values() for name in names]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(emscan.__all__)
    modules = {m.name for m in pkgutil.iter_modules(emscan.__path__)} - _UNLISTED
    assert set(groups) == modules
    for module, names in groups.items():
        assert sorted(import_module(f"emscan.{module}").__all__) == sorted(names), module
    public = {name for name, value in vars(emscan).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(emscan.__all__)
