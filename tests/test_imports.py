"""`import statdisc` loads no submodule, and each CLI subcommand loads only
the modules it runs (a CLI process compiles every module it imports)."""

import json
import subprocess
import sys

import numpy as np
import pytest

import statdisc
from statdisc import Hyperquadric, cli, make_disc


def loaded_after(code):
    """The statdisc.* modules that a fresh interpreter holds after `code`."""
    script = code + (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('statdisc.'))))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_submodule():
    assert loaded_after("import statdisc") == set()


def test_public_names_are_their_modules_objects():
    for name in statdisc.__all__:
        obj = getattr(statdisc, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(statdisc.__all__) <= set(dir(statdisc))
    with pytest.raises(AttributeError):
        statdisc.PointEval  # noqa: B018


@pytest.fixture(scope="module")
def boundary_csv(tmp_path_factory):
    q = Hyperquadric(n=1, A=np.array([[1.0]]))
    params = statdisc.DiscParams(y0=0.0, v=[0.0], w=[1.0], a=0.3)
    path = tmp_path_factory.mktemp("cli") / "disc.csv"
    path.write_text(cli.boundary_csv(make_disc(q, params).boundary(256)))
    return str(path)


DISC_ONLY = ("disc", ("rh_solver", "indices"))
INDICES = ("indices", ("rh_solver",))
# argv, (the module the handler runs, modules it must not load)
SUBCOMMANDS = [
    (["disc-make", "--a", "0.3"], DISC_ONLY),
    (["disc-through", "--z", "4,2"], DISC_ONLY),
    (["disc-invert", "--input", "{csv}"], DISC_ONLY),
    (["verify", "--input", "{csv}"], DISC_ONLY),
    (["lift", "--a", "0.3"], DISC_ONLY),
    (["indices-maslov", "--a", "0.3"], INDICES),
    (["indices-partial", "--a", "0.3"], INDICES),
    (["indices-replay", "--a", "0.3"], INDICES),
    (["solve", "--a", "0.2", "--grid", "64", "--modes", "24"], ("rh_solver", ("indices",))),
]


@pytest.mark.parametrize("argv,modules", SUBCOMMANDS, ids=[c[0][0] for c in SUBCOMMANDS])
def test_subcommand_loads_only_its_modules(boundary_csv, argv, modules):
    argv = [arg.format(csv=boundary_csv) for arg in argv]
    loaded = loaded_after(
        "import contextlib, io\n"
        "from statdisc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )
    runs, absent = modules
    assert f"statdisc.{runs}" in loaded
    assert not loaded & {f"statdisc.{m}" for m in absent}
