"""Golden CLI outputs.

Every command below runs in one scratch directory with relative paths, so
the sidecar files and stdout lines name the same paths on every run. The
SHA-256 of each output file and of each command's stdout must equal the
digest recorded in ``GOLDEN``; a refactor of the simulator may not change a
single byte of what the CLI writes. To see the digests of the current code,
run this file with ``python tests/test_golden_outputs.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from pathlib import Path

import pytest

from shbuf import SwitchConfig
from shbuf.cli import main
from shbuf.learner import collect_trace, save_examples
from shbuf.workloads import poisson_bursts

TRACE = ["--ports", "8", "--buffer", "32", "--trace", "trace.csv", "--seed", "7"]
POLICIES = ("complete_sharing", "dynamic_thresholds", "lqd", "follow_lqd", "credence")
ORACLES = {
    "perfect": [],
    "flip": ["--flip-p", "0.3"],
    "forest": ["--model", "model.json"],
    "constant_accept": [],
    "constant_drop": [],
}

# (name, argv); the commands run in this order, and every file they leave is hashed
COMMANDS = (
    [
        ("gen", ["gen", "--ports", "8", "--buffer", "32", "--workload", "poisson_bursts",
                 "--rate", "0.03", "--horizon", "1500", "--seed", "7", "--out", "trace.csv"]),
        ("gen_adversary", ["gen", "--ports", "4", "--buffer", "16", "--workload",
                           "followlqd_adversary", "--cycles", "3", "--out", "adversary.csv"]),
        ("gen_uniform", ["gen", "--ports", "4", "--buffer", "16", "--workload", "uniform_random",
                         "--load", "0.6", "--horizon", "300", "--seed", "7", "--out", "uniform.csv"]),
        ("train", ["train", "--data", "examples.csv", "--trees", "4", "--depth", "4",
                   "--split", "0.6", "--seed", "7", "--out", "model.json",
                   "--tree-sweep", "1,2,4", "--sweep-out", "trees.csv"]),
    ]
    + [
        (f"simulate_{policy}", ["simulate", *TRACE, "--policy", policy, "--out", f"out_{policy}.csv"])
        for policy in POLICIES
    ]
    + [
        (f"simulate_credence_{oracle}",
         ["simulate", *TRACE, "--policy", "credence", "--oracle", oracle, *extra,
          "--out", f"out_credence_{oracle}.csv"])
        for oracle, extra in ORACLES.items()
    ]
    + [
        ("simulate_adversary_follow_lqd",
         ["simulate", "--ports", "4", "--buffer", "16", "--trace", "adversary.csv",
          "--policy", "follow_lqd", "--out", "out_adversary.csv"]),
        ("evaluate", ["evaluate", "--model", "model.json", "--data", "examples.csv",
                      "--split", "0.6", "--seed", "7", "--out", "metrics.csv"]),
        ("evaluate_eta", ["evaluate", "--model", "model.json", "--data", "examples.csv",
                          "--split", "0.6", "--seed", "7", "--ports", "8", "--buffer", "32",
                          "--eta-trace", "trace.csv", "--out", "metrics_eta.csv"]),
        ("sweep", ["sweep", "--ports", "8", "--buffer", "32", "--rate", "0.0156",
                   "--horizon", "300", "--p-list", "0,0.1,0.5", "--seeds", "2", "--seed", "3",
                   "--out", "sweep.csv"]),
        ("sweep_chart", ["sweep", "--ports", "8", "--buffer", "32", "--rate", "0.0156",
                         "--horizon", "300", "--p-list", "0,0.001,0.3,0.7", "--seeds", "2",
                         "--seed", "4", "--out", "sweep_chart.csv", "--chart", "sweep.svg"]),
        # README's sweep shape: at N = B the safeguard never straddles B/N
        ("sweep_n48", ["sweep", "--ports", "48", "--buffer", "48", "--rate", "0.00833",
                       "--horizon", "1000", "--p-list", "0,0.1,0.3,0.5,0.7", "--seeds", "4",
                       "--seed", "11", "--out", "sweep_n48.csv", "--chart", "sweep_n48.svg"]),
        ("opt", ["opt", "--ports", "2", "--buffer", "4", "--workload", "uniform_random",
                 "--load", "1.0", "--horizon", "6", "--seed", "21"]),
    ]
)

GOLDEN = {
    'adversary.csv': '6f47e92c48d8b017d7ce1e6ef3247d16ec9147111f5b244bae2b8550de54681a',
    'adversary.csv.config.txt': '2b115cb86eb92cdf8fcb9cf7d121c2b5e0358638c3a01d9fd6eae9b1ea5e3b9d',
    'evaluate:stdout': '8bea9897221e1abbe578560c456b5d9e5db806ac817661c5e991878fc265bbb8',
    'evaluate_eta:stdout': '77d1ce9d15faa959d30f69827a0d0bf0ed06f43fc59696674a65fc419096954d',
    'examples.csv': '7aced0a40c6cc79930e6b9a91116f9acb2a239b4dcc5c90b1f42a47d494f7da3',
    'gen:stdout': '2041385eb3e643e732927781e6f5840124da5fd7bd0cb65a821a551e9fd1ce6e',
    'gen_adversary:stdout': '4b441dd13341c1f75ff7fa4bb76b63315440c0b8adf2a04478160b0aeeb2ab78',
    'gen_uniform:stdout': '931ee57d79801c4d4f05e2875ab8de5c6fa0d78a0ca7ae117c1eca5105e91b64',
    'metrics.csv': '616801c547f71eed40b1b0204c8a4994e9b61b457d000c0150cf7c28ddb88365',
    'metrics.csv.config.txt': '66a9e5b9f419f680c2c6cd6dad777acfd487fcb0e350e99ad343473e4ea18850',
    'metrics_eta.csv': 'feed34b901bdb3f6254a40b5722ab85d8d1830998417cd2e6065ad29129df73e',
    'metrics_eta.csv.config.txt': 'e3c422031327698ef0504dc8097ef84c3032c0b9ccff231da8b5fd08d94b57cd',
    'model.json': '9b6f2645c99a251a59301cf2711a5d7446cb35b1f19f4d54a7b5464866284be5',
    'model.json.config.txt': '528b8c0c2bba2487cca00404a5de939347ec873e48607c2e3236ecedb149b413',
    'opt:stdout': '4572ad044e8339f40cd4c4af0cca729ce0dc3d37da45ac5ae36b63873380bfcb',
    'out_adversary.csv': '2199e1754f6455fc584ce070e4800f8464b258a7390df837a0f32fa2be116a7c',
    'out_adversary.csv.config.txt': 'bce9abc212f4949098ebe105e580a8067cb3fc7a7b6917ceaf12e820a389d01d',
    'out_complete_sharing.csv': '19e587bc52cb7b3cc5a6b29746752510f32e2c07fd4a8cc6832f6dd7fe2a08f6',
    'out_complete_sharing.csv.config.txt': '2794225154b55493eaf74b2adb70ef924efe89f185a56884d93491effad9fadb',
    'out_credence.csv': 'c824f1121f2f307a6484763323e3b49c7e701f358f8a91110b43d75d2524ca6e',
    'out_credence.csv.config.txt': '46a2551153a6863ab2b95b6b3ece3950d7ab57cef1934d97bd9026bc468ab00f',
    'out_credence_constant_accept.csv': 'e49c919d85750e7d046fb08655532c1475e41b72c85b2620a35ad39ba50bd406',
    'out_credence_constant_accept.csv.config.txt': '8feb81138716cca884d87222b9dff1a89c24f0fd37b6b69a3e06709f8c34e2a1',
    'out_credence_constant_drop.csv': 'a84bf0295d1f51cb488a4ef6447990fdd0a42720dc98601c3c8d7858bed7d391',
    'out_credence_constant_drop.csv.config.txt': 'af6c6130b85158bf73377dd3e344592a54fdff29f3a0371399315e379d9c58b8',
    'out_credence_flip.csv': 'e939ed7c78dc3e1c9c7235a981e9cd175e5fa811cd5d25bac541c1a77ca50fb8',
    'out_credence_flip.csv.config.txt': 'ee11002a82a833885281d012754a95ebbe7b0e018e9a7ec29e3069b558b95126',
    'out_credence_forest.csv': '4142c0928f6df56432ad70cfc3143a4e94e35fc597982fdec23fc7cf99af6ed7',
    'out_credence_forest.csv.config.txt': 'a348160002bafbe471132bb493bb166a0774cbdd3b4f07320216fb73c2c1db4c',
    'out_credence_perfect.csv': 'c824f1121f2f307a6484763323e3b49c7e701f358f8a91110b43d75d2524ca6e',
    'out_credence_perfect.csv.config.txt': '059a7a115f50543478ebcb5d8bf10556cad8b5fb493131f8f0f9027b4548177e',
    'out_dynamic_thresholds.csv': 'a87ee867eb81614e3b658b46d9cca17349a697bc4d11d95f350f9a14aa8bf8b1',
    'out_dynamic_thresholds.csv.config.txt': 'c8b1ac58d14bdccdd16e7ef320959fe28ebf8af5caffedcbb63f921409ae5568',
    'out_follow_lqd.csv': 'e49c919d85750e7d046fb08655532c1475e41b72c85b2620a35ad39ba50bd406',
    'out_follow_lqd.csv.config.txt': 'aed59cf5e7930f8d7daf1ec995de13cb59e4b766e671c3f468c1b232f0c9ae54',
    'out_lqd.csv': 'e356425ce0cc5d78020fcd928d75e9b30c84bacf1aa6e7110822f382d4b9dbfa',
    'out_lqd.csv.config.txt': '5ea16c12b94904774bc79d783732948555f6b897bcdee64406bd482b3dc8c82d',
    'simulate_adversary_follow_lqd:stdout': '553fda042147f4ee370a2482097ddbda2855adf95d318029050d3ad6b9ae1b61',
    'simulate_complete_sharing:stdout': '790b2de24ca8a13162b9d15c383838407aa6e996cb005610ad7088356d1ab0ce',
    'simulate_credence:stdout': '546ef99c0215c3e458c73abfb2337eb32312d31a0023c6c5b0ce68405d0b406a',
    'simulate_credence_constant_accept:stdout': '5f05975529d03a15505cdb43f3737064358e53142c1d20faf7cefe7045a5f322',
    'simulate_credence_constant_drop:stdout': '99c0b9bcbac336b4088c79c8a1421442589f8610979fd92fa2dcb044852be27a',
    'simulate_credence_flip:stdout': 'dd72a312c8806cc29c725af24629cc69ec996c2155c737118f5fa4e05962a31e',
    'simulate_credence_forest:stdout': '5f05975529d03a15505cdb43f3737064358e53142c1d20faf7cefe7045a5f322',
    'simulate_credence_perfect:stdout': '546ef99c0215c3e458c73abfb2337eb32312d31a0023c6c5b0ce68405d0b406a',
    'simulate_dynamic_thresholds:stdout': 'c852a8a9ba1ae8e4d893385eaae783d9f4cccf922e48cd15cb66e8423504ed7f',
    'simulate_follow_lqd:stdout': '474ee1b7622c173b2c9134318a3fd98509eaf0209af884de691823609b2623a1',
    'simulate_lqd:stdout': 'fec4e79cafc8ac2f445fc9942e03a86d9e57ea245e312982d26e2b3d57859f9d',
    'sweep.csv': '0378c193ebba6631d359c9543e1e0d40d81bc76338d67786141e8ddfe4d0dd21',
    'sweep.csv.config.txt': '8c94c66b45b80290cd382c6e663929f466f9e90fc3b402b90ec4713975ec0269',
    'sweep.svg': '5c4bb075d11aab766e9216e04c82e66a2cacdc1a6226e5a47d0237d5a36ef8ad',
    'sweep:stdout': '122b44c84971d8ca719aa5d8039eb35e546f81ebb3f88510a5fd18502623ccfe',
    'sweep_chart.csv': '595b3be3e1dfe61903dc76537cf33223631765ce76d447d79bdf637a94295e53',
    'sweep_chart.csv.config.txt': 'b20cfb0acfee429828a9e7d5a5f65cd2f115ad4ddc77aa0b26b16aaaf6ae5711',
    'sweep_chart:stdout': 'a815fca17ebf52e6cf25d6d59b9bbd93b397abb541b586890cb6ab70a91f5686',
    'sweep_n48.csv': '87a045dbcc19f48bfb76512915f093e63d4102d27da7efa17a62628c08fb33dc',
    'sweep_n48.csv.config.txt': '87df047f0afefb0b570e7c2ec365d66a6e38d0bcdcd783ee198d70f227ea49e6',
    'sweep_n48.svg': '5e1132ff1840176feedb328e57f6231239b2830ebfec572de9186c67d027b8d3',
    'sweep_n48:stdout': '30d94cd8299e253c05622203442bcad0ed758fa4d1d8741e64960baa0b7329cb',
    'trace.csv': '10a90951754c847be4ca24fdbad818b32c54a7f9bea8c46fe8a26438e8acfa7f',
    'trace.csv.config.txt': '374c1f8197aca52f3b08a15f52584057c7659eab80aee0b08ed3db572c6dfe0f',
    'train:stdout': '60f946a13c99ddc285ed727d2b8b59e1e4b9efc1013fc3b5ab568c56d2116db5',
    'trees.csv': '4c1c314e58d3173bd1f55f05cd152258ef4691159d53835b0a4c7c5e7222bf8e',
    'uniform.csv': '3b9ce1673a515a74647a2b53981ba851d29a8511aeeac95f0df417fca864a52b',
    'uniform.csv.config.txt': '909da3b02fdee13472e570482e6c405ee7d1e98f7d7486ee2cb841f842cdf515',
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def produce(workdir: Path) -> dict[str, str]:
    """Run every command in ``workdir``; return artifact name -> SHA-256."""
    digests: dict[str, str] = {}
    previous = Path.cwd()
    os.chdir(workdir)
    try:
        config = SwitchConfig(8, 32)
        save_examples(collect_trace(config, poisson_bursts(config, 1 / 32, 1500, seed=101)), "examples.csv")
        for name, argv in COMMANDS:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = main(argv)
            assert code == 0, f"{name} exited {code}"
            digests[f"{name}:stdout"] = _sha(printed.getvalue().encode())
        for path in sorted(Path(".").iterdir()):
            digests[path.name] = _sha(path.read_bytes())
    finally:
        os.chdir(previous)
    return digests


@pytest.fixture(scope="module")
def produced(tmp_path_factory) -> dict[str, str]:
    return produce(tmp_path_factory.mktemp("golden"))


def test_every_artifact_has_a_golden_digest(produced):
    assert sorted(produced) == sorted(GOLDEN)


@pytest.mark.parametrize("artifact", sorted(GOLDEN))
def test_output_matches_golden(produced, artifact):
    assert produced.get(artifact) == GOLDEN[artifact], f"{artifact} changed"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for key, value in sorted(produce(Path(scratch)).items()):
            print(f"    {key!r}: {value!r},")
