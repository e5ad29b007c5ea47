"""What `import pathscape` loads: numpy, not scipy.

The product-law CDF, the one special function (K1), is a numpy port, so
no command and no CDF evaluation loads scipy.  The check runs in a fresh
interpreter, since this test process has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pathscape

SRC = str(Path(pathscape.__file__).resolve().parents[1])

NO_PRODUCT_LAW = [
    ["tree", "sample", "--dim", "7", "--x", "0.1", "--samples", "30", "--seed", "11"],
    ["moments", "second", "--dim", "12", "--X-scaled", "1"],
    ["recursion", "pexist", "--levels", "40", "--grid", "256", "--at", "0.1"],
    ["cascade", "ks", "--k", "3", "--delta", "1e-4", "--samples", "50", "--seed", "11"],
]

SCRIPT = """
import contextlib, io, json, sys
import pathscape, pathscape.cli, pathscape.verify
from pathscape import cli, stats

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.run(argv))
before = scipy_modules()
cdf = stats.prodexp_cdf([0.0, 1e-6, 0.25, 1.0, 4.0, 30.0]).tolist()
print(json.dumps({"codes": codes, "before": before, "after": scipy_modules(), "cdf": cdf}))
"""


def test_the_product_law_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(NO_PRODUCT_LAW)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0] * len(NO_PRODUCT_LAW)
    assert out["before"] == []
    assert out["after"] == []
    # the bits of 1 - u k1e(u) e^-u with scipy.special.k1e
    assert out["cdf"] == [
        0.0,
        1.3661086808336442e-05,
        0.3980927698027654,
        0.720268236366955,
        0.9500660044509263,
        0.9999250736243142,
    ]
