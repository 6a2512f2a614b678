"""Train a small drop predictor from a push-out reference run.

Every packet of a bursty workload is labeled with its fate under LQD
(transmit, or drop/push-out), paired with the four features a switch could
cheaply expose: the arriving queue's length, the total buffer occupancy,
and moving averages of both. A four-tree, depth-four forest is plenty for
this signal, and growing the ensemble further buys almost nothing.

Run:  python3 demos/04_train_drop_predictor.py
"""

from shbuf import SwitchConfig
from shbuf.learner import (
    collect_trace,
    evaluate_on,
    split_examples,
    train_forest,
    tree_count_sweep,
)
from shbuf.workloads import poisson_bursts

config = SwitchConfig(num_ports=8, buffer_size=32)
sequence = poisson_bursts(config, rate=1 / 32, horizon=4000, seed=101)
examples = collect_trace(config, sequence)
positives = sum(example.label for example in examples)  # a label is a drop flag
print(
    f"trace: {len(examples)} packets, {positives} dropped by the reference "
    f"policy ({positives / len(examples):.1%})"
)

train_part, test_part = split_examples(examples, split=0.6, seed=7)
model = train_forest(train_part, trees=4, max_depth=4, seed=7)
metrics = evaluate_on(model, test_part)
print(
    f"\nheld-out scores (4 trees, depth 4): accuracy={metrics.accuracy:.4f} "
    f"precision={metrics.precision:.4f} recall={metrics.recall:.4f} f1={metrics.f1:.4f}"
)
print(f"confusion: {metrics.confusion}")

print(f"\n{'trees':>5} {'accuracy':>9} {'f1':>7}")
for count, m in tree_count_sweep(examples, [1, 2, 4, 8, 16], max_depth=4, split=0.6, seed=7):
    print(f"{count:>5} {m.accuracy:>9.4f} {m.f1:>7.4f}")
print("\nscores plateau at about four trees")
