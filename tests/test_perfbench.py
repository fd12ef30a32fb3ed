import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_this_tree():
    # The benchmark's tracer patches hhverify functions at the module
    # bindings its callers use; a binding that is gone fails here.
    # -B keeps the import from writing bytecode into perfbench/.
    code = "import sys; sys.path[:0] = sys.argv[1:]; from tracer import Tracer; Tracer('t').install()"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
