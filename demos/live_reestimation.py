"""
Re-estimating a delay as congestion moves
=========================================

A navigation service keeps one process running and re-estimates the
delay between two roads each time a new stretch of speed readings
arrives. Here each stretch is a fresh simulated pair whose true delay
drifts from 6 to 12 minutes as the congestion builds. Every estimate
uses two workers: the first call opens the process pool and each later
call reuses it, so only the first pays the pool's start-up.
"""

import time

from lagte import PipelineConfig, estimate_delay
from lagte.simulate import SimSpec, generate_pair

# Reduced bootstrap count keeps each estimate quick.
config = PipelineConfig(boot_reps=40, lag_max=20)

print("stretch  true delay  mu_hat  ci95              seconds")
for stretch, u0 in enumerate((6, 7, 8, 9, 10, 11, 12)):
    source, target = generate_pair(
        SimSpec(u0=u0, noise_sigma=1.0, length=120, seed=stretch)
    )
    start = time.perf_counter()
    sample = estimate_delay(source, target, config, workers=2)
    seconds = time.perf_counter() - start
    low, high = sample.ci95
    print(
        f"{stretch:7d}  {u0:10d}  {sample.mu_hat:6.2f}  "
        f"({low:5.2f}, {high:5.2f})    {seconds:.3f}"
    )
