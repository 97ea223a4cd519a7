import functools
import pathlib
import re
import shlex

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


def readme_commands() -> list[list[str]]:
    """The argv of each `cipher-audit ...` line of README's sh blocks, with
    continuation lines joined and comments dropped."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [argv for line in lines if (argv := shlex.split(line, comments=True))[:1] == ["cipher-audit"]]


def test_readme_shows_some_commands():
    assert len(readme_commands()) >= 5


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    cli.build_parser().parse_args(argv[1:])


def readme_python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_shows_some_python():
    assert len(readme_python_blocks()) >= 1


@pytest.mark.parametrize("block", [pytest.param(block, id=f"block{k}")
                                   for k, block in enumerate(readme_python_blocks(), 1)])
def test_readme_python_runs(block):
    # each block on its own, in a fresh namespace, as a reader would paste it
    exec(compile(block, str(README), "exec"), {})
