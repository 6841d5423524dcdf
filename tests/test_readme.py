"""The README's library example runs as written."""
import pathlib
import re

import numpy as np

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
