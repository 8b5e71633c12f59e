"""Peak resident memory of a snippet run in a fresh interpreter."""

import subprocess
import sys

_REPORT = """
import resource, sys
try:
    print(next(int(row.split()[1]) for row in open("/proc/self/status") if row.startswith("VmHWM")))
except OSError:  # no /proc: ru_maxrss, in bytes on macOS
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // (1024 if sys.platform == "darwin" else 1))
"""


def peak_rss_mb(code: str) -> float:
    """Run ``code`` in a fresh interpreter and return its peak RSS in MB.
    On Linux a child's ru_maxrss starts from its parent's high-water mark
    (it survives fork and exec), so the child reads its own VmHWM there."""
    proc = subprocess.run([sys.executable, "-c", code + _REPORT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.splitlines()[-1]) / 1024
