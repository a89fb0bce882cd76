import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    # the benchmark's tracer wraps public functions by name; every one of
    # them must still exist, whether or not the scenario paths call it
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "from tracer import Tracer, install\n"
            "install(Tracer(full=True))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
