"""Time one set-up from a fresh interpreter: package import, spectral_setup
and the free and tunneling model construction (barrier coefficients
included).  Prints the seconds elapsed.  run.py starts this script several
times with quantracer's source on PYTHONPATH and reports the median.
"""

import time

started = time.perf_counter()

import quantracer  # noqa: E402  (the import is part of what is timed)

from workloads import build_models  # noqa: E402

build_models(quantracer)
print(repr(time.perf_counter() - started))
