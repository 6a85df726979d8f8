"""Golden bytes: construct and simulate requests whose files are pinned by sha256.

Each construct request's design.json, runs.csv and verification.json must
hash to the digests recorded here, so any change to the construction, the
search order, the payload layout or the run-sheet format shows up as a
changed digest.  Each simulate request runs on a design constructed into a
fixed relative path (summary.json records that path), and its estimates.csv,
halfnormal.csv and summary.json are pinned the same way.
"""

import hashlib

import pytest

from rdcss.cli import main

FRACTION_8_6 = ["--factors", "8", "--basic", "6", "--t", "2"]

GOLDEN = {
    "blocked_splitlot_p6": (
        ["--p", "6", "--stage", "ABC,BDE,CEF:exact", "--stage", "A,B", "--stage", "D"],
        {
            "design.json": "a4d2ed18e33418f8f20f2f9718779e6d4b6ea09fd51f525e0e9913bcc02d6772",
            "runs.csv": "38688f23d08f41ed0bd0347f8095cb75bbffa170dd12de6f733160983a8d7b5d",
            "verification.json": "c7371c4c1a1f5eff9e3a91f55eb3174374eda31e094e34e7727467ef74194e78",
        },
    ),
    "mixed_p7": (
        ["--p", "7", "--stage", "A,B,C,D:exact", "--stage", "E,F", "--stage", "G"],
        {
            "design.json": "4aad4feea54e6d794c5f0d2fd8f096932876e99332068cb4ba8f6254f3cf9b03",
            "runs.csv": "f247d8a0259866d2027c33be44649e5598b8898fb3f7aa22804fc480e8fd28fe",
            "verification.json": "db44ee48fd40af5a38f4e0f75c5461eba052f2aabc1c9fc4f2def45ba77f7ce8",
        },
    ),
    "fraction_2pow8m2": (
        [*FRACTION_8_6, "--stage", "A,B", "--stage", "C,D", "--stage", "E,F", "--stage", "G,H"],
        {
            "design.json": "5a07890fc7895c14c06fbd540cc560cae27af8f4eeed985fab9edd02d73d741a",
            "runs.csv": "da77057169624ed8eaf82e8a3681abe838e414024cc525b6518030cbd4cbba5f",
            "verification.json": "30cab9ed3228d0410790485e2a7dadcd4d3320484cdb9f0c6d8e7cb3743276cd",
        },
    ),
    "added_only_p8": (
        [*FRACTION_8_6, "--stage", "G"],
        {
            "design.json": "ffa2c7d59f319b1b9e72b16418d9b33c1917ebcfcacbccc975b1e26145f3dd33",
            "runs.csv": "a2b357823faa9993fb7b013875b0b1f815210c19b1f8ea6817470505a6b5b396",
            "verification.json": "35e5ebc5e32016c38e6d173c53016c54c60aab38f2bd3a375ab8411897bf7569",
        },
    ),
    "mixed_stages_p8": (
        [*FRACTION_8_6, "--stage", "A,B", "--stage", "G,H"],
        {
            "design.json": "a80e7fc6dcbc77e44501903265dc77a444f8b004faf0c4905fb7a556b7ecb6b8",
            "runs.csv": "50fbae44c23462144162a91c94b1e69b184bfb26b8414ce0c6819215e20586ea",
            "verification.json": "baf123858444a4fa6af61b5b44bde7020a316b5fb864f6bb86f81b20c7ad8727",
        },
    ),
    "three_stages_p9": (
        ["--factors", "9", "--basic", "6", "--t", "3"]
        + ["--stage", "A,B", "--stage", "G", "--stage", "H,I"],
        {
            "design.json": "0134f9e2b09cb874c326ec285e97ed43e41d84fa769aa13f541ad74400548a22",
            "runs.csv": "b709d362a9b9ba2655d010222e8b77bd411335d70a38b6ea0f53886827947e97",
            "verification.json": "c578bcd934b09814864146833f1d945c38bb5a1c681b86f0742f2fc337cdc07d",
        },
    ),
    "four_stages_p12_pm1": (
        ["--p", "12", "--t", "3", "--coding", "pm1"]
        + ["--stage", "A,B,C", "--stage", "D,E,F", "--stage", "G,H,I", "--stage", "J,K,L"],
        {
            "design.json": "4c8c6857feae1430d2b0068f2f4482bba5f0532ea4502503881b0cc496483826",
            "runs.csv": "f1d215c9d3af7cfe2bbc2aeaf9a27aa0c392a23f9ae174314d2c8b55ddbfbdb8",
            "verification.json": "89aceb1b28a023a71420cd4e4c595a1fb7aa5963d245d0fa00cde3ceb29452e8",
        },
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_construct_writes_golden_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("RDCSS_SEED", raising=False)
    argv, digests = GOLDEN[name]
    assert main(["construct", *argv, "--out-dir", str(tmp_path)]) == 0
    got = {
        file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
        for file in digests
    }
    assert got == digests


FIVE_STAGES_P10 = ["--p", "10", "--t", "2"] + [
    arg for pair in ("A,B", "C,D", "E,F", "G,H", "I,J") for arg in ("--stage", pair)
]

SIMULATE_GOLDEN = {
    "splitlot_p6": (
        ["--p", "6", "--stage", "ABC,BDE,CEF:exact", "--stage", "A,B", "--stage", "D"],
        ["--sigma2", "1.5", "--stage-var", "4", "--stage-var", "2.5", "--stage-var", "0.75"]
        + ["--beta", "A=2", "--beta", "BC=-1.25", "--reps", "16", "--seed", "11"],
        {
            "estimates.csv": "c0eabee16b29baed84b3adf89000796fbcb9efb36d2432203940ca26a10b8748",
            "halfnormal.csv": "f6400b9b8c108eed25bf8b922ef59f6d289d88e6238f41063edd3d3b7d82faf6",
            "summary.json": "8d595f0bcafcac5f4dfdaf0a203bebcecddc2c8a154d3c3ecded891323fe87d5",
        },
    ),
    "five_stages_p10": (
        FIVE_STAGES_P10,
        ["--sigma2", "0.8"]
        + [arg for v in ("3", "1.5", "0", "2.25", "5") for arg in ("--stage-var", v)]
        + ["--beta", "ABJ=1.5", "--reps", "8", "--seed", "7"],
        {
            "estimates.csv": "dacbd30a2e8c8b740dea9de8a910c32e8a7c75cf23dd2d45bd0e90b28de2b12e",
            "halfnormal.csv": "2862b3f6b7c189e3df514965ca450dd72043ade5a59945d8c8a9f44c5077e9b9",
            "summary.json": "bb4648d6d772bcafcea46a021a46c08c2750f5ae6b7f8f28d25a3b505581bd0a",
        },
    ),
}


@pytest.mark.parametrize("name", list(SIMULATE_GOLDEN))
def test_simulate_writes_golden_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("RDCSS_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    construct_argv, simulate_argv, digests = SIMULATE_GOLDEN[name]
    assert main(["construct", *construct_argv, "--out-dir", "design"]) == 0
    argv = ["simulate", "--design", "design/design.json", *simulate_argv]
    assert main([*argv, "--out-dir", "out"]) == 0
    got = {
        file: hashlib.sha256((tmp_path / "out" / file).read_bytes()).hexdigest()
        for file in digests
    }
    assert got == digests
