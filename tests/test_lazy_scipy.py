"""``scipy.special`` loads on the first ``Beta``, not with the package.

Each check runs in a fresh interpreter, where nothing has imported scipy
yet: a bare import and a uniform ``solve-rs`` must leave it unloaded, a
``Beta`` unpickled there must still compute, threads binding scipy at
once must get the single-threaded values, and ``betainc`` calls counted
through a patched ``distributions.betainc`` must all be seen.
"""

import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

from robustmech import Beta, Mixture, Uniform

ROOT = Path(__file__).resolve().parent.parent


def _run(*args: str, stdin: bytes = b"") -> str:
    """Standard output of ``python args`` in a fresh interpreter on ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, env=env, cwd=ROOT, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace") + proc.stdout.decode()
    return proc.stdout.decode()


def _values(dist) -> list:
    """CCDF, a CCDF integral and seeded draws, as JSON keeps them: to the last bit."""
    xs = np.linspace(0.0, 1.0, 101)
    draws = dist.sample(2_000, np.random.default_rng(5))
    return [dist.ccdf(xs).tolist(), dist.ccdf_integral(0.1, 0.8), draws.tolist()]


#: the child's preamble: the imports and ``_values`` above
PREAMBLE = "import json, sys\nimport numpy as np\n" + inspect.getsource(_values)


def test_import_leaves_scipy_unloaded():
    out = _run("-c", "import sys, robustmech, robustmech.cli; print('scipy' in sys.modules)")
    assert out.split() == ["False"]


def test_uniform_solve_rs_leaves_scipy_unloaded():
    code = (
        "import sys, robustmech.cli\n"
        "argv = ['solve-rs', '--reference', '{\"kind\": \"uniform\"}', '--tau', '0.2']\n"
        "code = robustmech.cli.main(argv)\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    *report, last = _run("-c", code).splitlines()
    assert last.split() == ["0", "False"]
    assert json.loads("\n".join(report))["tau"] == 0.2


def test_unpickled_beta_computes_in_a_fresh_interpreter():
    dists = [Beta(2.0, 5.0), Mixture((Beta(2.0, 10.0), Uniform()), (0.85, 0.15))]
    code = PREAMBLE + (
        "import copy, pickle\n"
        "dists = pickle.loads(sys.stdin.buffer.read())\n"
        "dists.append(copy.deepcopy(dists[0]))\n"
        "print(json.dumps([_values(d) for d in dists]))\n"
    )
    got = json.loads(_run("-c", code, stdin=pickle.dumps(dists)))
    assert got == json.loads(json.dumps([_values(d) for d in dists + dists[:1]]))


def test_threads_binding_scipy_at_once_get_single_threaded_values():
    # more threads than cores, switching often, all building their Beta at once
    shapes = [(2.0, 5.0), (0.5, 0.5), (10.0, 2.0), (2.0, 10.0)]
    code = PREAMBLE + (
        "import threading\n"
        "from robustmech import Beta\n"
        "assert 'scipy' not in sys.modules\n"
        "sys.setswitchinterval(1e-6)\n"
        f"shapes = {shapes!r}\n"
        "start = threading.Barrier(len(shapes))\n"
        "out = [None] * len(shapes)\n"
        "def work(i, a, b):\n"
        "    start.wait()\n"
        "    out[i] = _values(Beta(a, b))\n"
        "threads = [threading.Thread(target=work, args=(i, *s)) for i, s in enumerate(shapes)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(timeout=120)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "print(json.dumps(out))\n"
    )
    got = json.loads(_run("-c", code))
    assert got == json.loads(json.dumps([_values(Beta(*s)) for s in shapes]))


def test_betainc_patched_before_the_first_beta_counts_every_call():
    # the first read of distributions.betainc binds scipy, and the first Beta
    # built after the patch leaves the patched name in place: the table
    # build certifies about 2,900 cells at three points each (the kernel
    # polishes many of the octave cells' points), and only the draws outside
    # those cells, about 2 per million, take an evaluation
    code = (
        "import sys, numpy as np\n"
        "from robustmech import Beta, distributions\n"
        "assert 'scipy' not in sys.modules\n"
        "betainc, calls = distributions.betainc, []\n"
        "def counting(a, b, x):\n"
        "    calls.append(np.size(x))\n"
        "    return betainc(a, b, x)\n"
        "distributions.betainc = counting\n"
        "dist = Beta(2.0, 5.0)\n"
        "distributions._beta_knots(2.0, 5.0)\n"
        "built = sum(calls)\n"
        "dist.sample(100_000, np.random.default_rng(23))\n"
        "print(built, sum(calls) - built)\n"
    )
    built, drawn = map(int, _run("-c", code).split())
    assert 14_000 <= built <= 15_500
    assert drawn <= 100


def test_betainc_count_test_passes_alone():
    node = "tests/test_sample_scale.py::test_beta_draws_with_the_table_built_take_few_betaincs"
    assert "3 passed" in _run("-m", "pytest", "-q", "-p", "no:cacheprovider", node)
