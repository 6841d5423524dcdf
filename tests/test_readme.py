"""The README's library example runs as written and its commands parse."""
import pathlib
import re
import shlex

import numpy as np

from fracadi.cli import make_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["u"].shape == (1, 1)
    assert np.isfinite(namespace["u"]).all()
    assert 0.0 < namespace["result"].stability_ratio <= 1.0
    assert len(capsys.readouterr().out.split()) == 3


def test_shell_commands_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("fracadi ")]
    assert len(commands) >= 5
    for argv in commands:
        make_parser().parse_args(argv)
