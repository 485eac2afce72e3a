"""Print the seconds a fresh process takes to import qcorr and parse one configuration.

    python3 setup_probe.py SRC cli ARGV...            # qcorr.cli.parse_config(ARGV)
    python3 setup_probe.py SRC library JX JY JZ DZ T  # one ThermalPoint

Only the standard library is loaded before the clock starts, so numpy and
scipy imports count as set-up, as they do for a user.
"""

import os
import sys
import time

src, kind, *rest = sys.argv[1:]
src = os.path.abspath(src)
sys.path.insert(0, src)
start = time.perf_counter()
import qcorr  # noqa: E402

if kind == "cli":
    import qcorr.cli  # noqa: E402

    qcorr.cli.parse_config(rest)
else:
    jx, jy, jz, dz, temperature = (float(v) for v in rest)
    qcorr.ThermalPoint(qcorr.ModelParams(jx, jy, jz, dz), temperature)
elapsed = time.perf_counter() - start
if not qcorr.__file__.startswith(src):
    sys.exit(f"setup_probe: imported qcorr from {qcorr.__file__}, not {src}")
print(repr(elapsed))
