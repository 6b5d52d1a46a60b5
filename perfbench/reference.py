"""Fixed reference job that gauges the machine's speed during a benchmark run.

    python3 perfbench/reference.py

It imports the numpy and scipy modules the program imports, then runs FFT
round trips of the oracle's size and ``quad`` calls on a numpy integrand,
like ``verify``.  It uses nothing from the repo, so no change to the program
can move its time.
"""

import numpy as np
import scipy.special  # noqa: F401  (part of the program's import mix)
from scipy.integrate import quad

x = np.exp(-np.linspace(-8.0, 8.0, 65536) ** 2).astype(complex)
for _ in range(50):
    x = np.fft.ifft(np.fft.fft(x))
total = sum(
    quad(lambda u, k=k: np.exp(-u * u) * np.cos(0.01 * k * u), 0.0, 5.0)[0]
    for k in range(1500)
)
if not (abs(x[32768] - 1.0) < 1e-6 and total > 0.0):
    raise SystemExit("reference job computed a wrong result")
