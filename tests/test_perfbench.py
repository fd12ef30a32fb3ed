import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_with_perfbench(code: str) -> subprocess.CompletedProcess:
    # -B keeps the import from writing bytecode into perfbench/.
    return subprocess.run(
        [sys.executable, "-B", "-c", "import sys; sys.path[:0] = sys.argv[1:]\n" + code,
         str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )


def test_tracer_installs_on_this_tree():
    # The benchmark's tracer patches hhverify functions at the module
    # bindings its callers use; a binding that is gone fails here.
    proc = run_with_perfbench("from tracer import Tracer; Tracer('t').install()")
    assert proc.returncode == 0, proc.stderr


def test_workload_configs_load():
    # Each benchmark workload's config passes the program's validation, so a
    # stricter check fails here rather than as a failed benchmark run.
    proc = run_with_perfbench(
        "from workloads import WORKLOADS\n"
        "from hhverify.harness import SuiteConfig\n"
        "for build in WORKLOADS.values():\n"
        "    SuiteConfig.from_dict(build(0).config)\n"
        "print(len(WORKLOADS))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "3"
