"""No module of ``src/enslab`` reaches the parser's 4,096-token step.

CPython's parser grows its token array by doubling.  A module of 4,096
tokens or more, compiled with no bytecode cache, raised the peak resident
memory of its import by 384 KiB, and the benchmark's ``peak_rss_mb`` by 0.2
to 0.4 MiB.  ``tokenize`` also counts comments and blank lines, which the
parser skips, so the bound is conservative.  ``cli.py`` and ``linsolve.py``
were past the step when this guard came, and are exempt until they are split.
"""

import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src/enslab").glob("*.py"))
STEP = 4096
EXEMPT = {"cli.py", "linsolve.py"}


def token_count(path: pathlib.Path) -> int:
    with open(path, "rb") as f:
        return sum(1 for _ in tokenize.tokenize(f.readline))


def test_every_module_stays_below_the_token_step():
    assert EXEMPT <= {p.name for p in PACKAGE}
    over = {p.name: n for p in PACKAGE
            if p.name not in EXEMPT and (n := token_count(p)) >= STEP}
    assert over == {}
