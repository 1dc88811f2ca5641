"""The yardstick's second core: runs the frozen kernel each time it is asked.

Started by ``measure.Calibrated(cores=2)``; one line on stdin is one request,
the kernel's wall time on stdout is the answer, end of input is the end.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import hostcal  # noqa: E402

if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(hostcal.measure()), flush=True)
