import functools
import pathlib
import re

import pytest

from cipher_audit import cipher, cli, experiments, image_io, metrics, streams

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MODULES = {"cipher": cipher, "experiments": experiments, "metrics": metrics,
           "image_io": image_io, "cli": cli, "streams": streams}
# A code span that starts with a package module and a dotted name: `cipher.MAX_SIDE`.
NAME = re.compile(rf"({'|'.join(MODULES)})\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")


def readme_names() -> list[str]:
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    return sorted({match.group(0) for span in spans if (match := NAME.match(span))})


def test_readme_names_some_package_attributes():
    assert len(readme_names()) >= 3


@pytest.mark.parametrize("name", readme_names())
def test_readme_name_resolves(name):
    module, _, path = name.partition(".")
    functools.reduce(getattr, path.split("."), MODULES[module])
