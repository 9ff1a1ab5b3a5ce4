"""Pinned sha256 digests of small fixed-seed CLI outputs.

Each case runs one subcommand in-process on a small configuration and
hashes every file it writes (and, for ``run``, its stdout). A refactor that
keeps behaviour keeps every digest; one that moves a single output byte
fails here and names the output. Regenerate a digest only when an output
format or an algorithm is meant to change, and say so in CHANGES.md.
"""

import hashlib

import pytest

from scubasearch import generate, save_landscape
from scubasearch.cli import main

GOLDEN = {
    "gen-random": {
        "land.txt":
            "58d517af6c322d544d0e9de528df7929c5fb790f88981826af3b0b0261fd309d",
    },
    "gen-adjacent": {
        "land.txt":
            "95d00e8e19c8dddec370204447976d73e5676c7e7939d4f128a1dd7cf791d108",
    },
    "run-hc": {
        "stdout":
            "e0a76188717ac9c161c9a9050ca84e903e756d7c5663e131526a9a2ccf8799ed",
    },
    "run-nc": {
        "stdout":
            "cc23b509d54ce4f433a33c51c520a933ceaecf26dae7c016c86f570d17a7c9c7",
    },
    "run-hc2": {
        "stdout":
            "027e2680a50621c3868264acebf040489325b0fba9f44c0ebf8a71ed3469af4f",
    },
    "run-ss": {
        "stdout":
            "75144da681eebaaa4fd762ee3e685b0484eb84d1fee77bc8fb98a2d95d7f1535",
    },
    "run-file": {
        "stdout":
            "196d17bca1b654fe7ad7c35e72eb213e605896a97fa5c4419b32b278d2efcd7e",
    },
    "sweep": {
        "out.csv":
            "4324b3c7949fe72bb82e8617b2f7c85dc863c6f4a62675590fa8b5c85070efcc",
        "profile.csv":
            "a68ee0712a52e66a8f8d5c79017ee7ef3e706d4ce9f26a90288fb5a67d51b898",
        "records.csv":
            "2f0bf6ded6ec4d7c22b6592785ede91e6d07592ff04319ae20438d746b67a0fa",
        "stepstats.csv":
            "12bc237c72f733ba7bf59cc3a4a0fd33ae0902e20863df5077f1070b1052b062",
    },
    "degn": {
        "out.csv":
            "8ef884707beb31dfc69da1fc9ad7a2832a74d03105fb2a7b3b28585076e70184",
    },
    "graph-hc": {
        "census.csv":
            "f0050af337ecb1e4ec1d0b08130c2354cf0ae8808568d82eaa7952abf80b104b",
        "g.dot":
            "b0602cce377e6a8f4c7bfff8c7b3192ea41c3fd6f9252e95f19671c7eaeea0c4",
    },
    "graph-ss": {
        "census.csv":
            "f0050af337ecb1e4ec1d0b08130c2354cf0ae8808568d82eaa7952abf80b104b",
        "g.dot":
            "357ae5f29591fe7989a31142e0b72cc65a537e8f81cd0b8dbaf94adc97362af4",
    },
    "graph-nc": {
        "census.csv":
            "f0050af337ecb1e4ec1d0b08130c2354cf0ae8808568d82eaa7952abf80b104b",
        "g.dot":
            "29882440848215551f7f97bd1b18c07972a5bcc362b52868c884327d6c3a690a",
    },
    "graph-hc2": {
        "census.csv":
            "f0050af337ecb1e4ec1d0b08130c2354cf0ae8808568d82eaa7952abf80b104b",
        "g.dot":
            "a525cf44cd2469c5a48313730d15d93650a31fd1935637ceece8eafd5a2f69eb",
    },
    "graph-file": {
        "census.csv":
            "426d7a2b256b1042c209abe6240fbb613dcdb729f01b069c62eac88641e120a7",
        "g.dot":
            "71e52ae0522476672b8efdfc44e0d042fdf182c43b50dc44dc5e4efbaf04dd39",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_file_landscape(tmp_path):
    path = tmp_path / "given.txt"
    save_landscape(generate(8, 3, 3, "adjacent", seed=21), path)
    return str(path)


def _argv(case, tmp_path):
    """CLI argv of ``case``; output files go under ``tmp_path``."""
    out = lambda name: str(tmp_path / name)  # noqa: E731
    kind, _, variant = case.partition("-")
    if kind == "gen":
        return ["gen", "--n", "12", "--k", "3", "--q", "4", "--mode", variant,
                "--seed", "5", "--out", out("land.txt")]
    if kind == "run":
        if variant == "file":
            return ["run", "--heuristic", "ss", "--landscape",
                    _write_file_landscape(tmp_path), "--seed", "4", "--trace"]
        return ["run", "--heuristic", variant, "--n", "16", "--k", "2", "--q", "2",
                "--step-max", "60", "--seed", "3", "--trace"]
    if kind == "sweep":
        return ["sweep", "--n", "12", "--k", "0,2,4", "--q", "2,3",
                "--heuristics", "hc,nc,hc2,ss", "--runs", "6", "--instances", "2",
                "--step-max", "60", "--seed", "11", "--out", out("out.csv"),
                "--records-out", out("records.csv"),
                "--stepstats-out", out("stepstats.csv"),
                "--profile-out", out("profile.csv")]
    if kind == "degn":
        return ["degn", "--n", "16", "--k", "0,2,4", "--q", "2,3,100",
                "--samples", "50", "--instances", "2", "--seed", "5",
                "--out", out("out.csv")]
    if variant == "file":
        return ["graph", "--heuristic", "ss", "--landscape",
                _write_file_landscape(tmp_path), "--out", out("g.dot"),
                "--census", out("census.csv")]
    return ["graph", "--heuristic", variant, "--n", "6", "--k", "2", "--q", "2",
            "--seed", "3", "--out", out("g.dot"), "--census", out("census.csv")]


def output_digests(case, tmp_path, capsys):
    """Run ``case`` once and return ``{output name: sha256}``."""
    capsys.readouterr()
    assert main(_argv(case, tmp_path)) == 0
    stdout = capsys.readouterr().out
    digests = {}
    for name in GOLDEN[case]:
        data = stdout.encode() if name == "stdout" else (tmp_path / name).read_bytes()
        digests[name] = _sha(data)
    return digests


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_digest(case, tmp_path, capsys):
    assert output_digests(case, tmp_path, capsys) == GOLDEN[case]
