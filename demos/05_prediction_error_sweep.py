"""Degrading the predictions, one coin flip at a time.

Credence drives its accept/drop choices with per-packet drop predictions.
Here the predictions start perfect (the recorded LQD outcomes) and are then
flipped with growing probability. With clean predictions Credence transmits
exactly what LQD does; as the flip probability rises its throughput decays
smoothly, and even at 70% flipped it stays ahead of DynamicThresholds. The
closed-form error bound computed from the confusion counts tracks the
measured error ratio from above.

Run:  python3 demos/05_prediction_error_sweep.py [out.csv [out.svg]]
"""

import sys
from statistics import mean

from shbuf import LongestQueueDrop, SwitchConfig, run_simulation
from shbuf.analysis import (
    compute_eta,
    competitive_sweep,
    simulate_with_prediction_log,
    write_sweep_chart,
    write_sweep_rows,
)
from shbuf.oracles import FlipOracle, PerfectOracle, ground_truth_from_run
from shbuf.workloads import poisson_bursts

config = SwitchConfig(num_ports=48, buffer_size=48)
p_values = (0.0, 0.1, 0.3, 0.5, 0.7)
seeds = range(10)

rows = competitive_sweep(config, p_values, seeds, rate=1 / 120, horizon=1000)
print(f"switch: {config.num_ports} ports, buffer {config.buffer_size}; {len(seeds)} seeds\n")
print(f"{'flip p':>6} {'LQD/Credence':>13} {'LQD/DT':>8}")
for p in p_values:
    at_p = [r for r in rows if r.p == p]
    print(
        f"{p:>6.1f} {mean(r.ratio_credence for r in at_p):>13.3f} "
        f"{mean(r.ratio_dt for r in at_p):>8.3f}"
    )
# clean predictions: Credence transmits exactly what LQD does, seed by seed
assert all(r.credence_throughput == r.lqd_throughput for r in rows if r.p == 0.0)
# 70% flipped: still ahead of DynamicThresholds on average (a seed may trail it)
at_07 = [r for r in rows if r.p == 0.7]
assert mean(r.ratio_credence for r in at_07) < mean(r.ratio_dt for r in at_07)

# the error ratio and its closed-form ceiling on one run; a narrow switch
# keeps the ceiling finite, since every false negative is charged N - 1 times
narrow = SwitchConfig(num_ports=3, buffer_size=24)
sequence = poisson_bursts(narrow, 1 / 60, 1000, seed=0)
truth = ground_truth_from_run(run_simulation(narrow, sequence, LongestQueueDrop()))
print(f"\nerror ratio vs its ceiling at N={narrow.num_ports}, B={narrow.buffer_size}:")
print(f"{'flip p':>6} {'eta':>7} {'bound':>8}")
for p in (0.0, 0.01, 0.03, 0.05):
    oracle = FlipOracle(PerfectOracle(truth), p, seed=0, sequence=sequence)
    _, predictions = simulate_with_prediction_log(narrow, sequence, oracle)
    report = compute_eta(narrow, sequence, predictions, truth)
    print(f"{p:>6.2f} {report.eta:>7.3f} {report.eta_bound:>8.3f}")
    assert report.eta_bound >= report.eta

if len(sys.argv) > 1:
    write_sweep_rows(sys.argv[1], rows)
    print(f"\nwrote {sys.argv[1]}")
if len(sys.argv) > 2:
    write_sweep_chart(sys.argv[2], rows)
    print(f"wrote {sys.argv[2]}")
