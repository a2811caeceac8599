"""The walk, orbit, lift and reduction outputs pinned byte for byte: sha256
digests of CLI stdout and of certified reduction paths."""

import hashlib
import json

import pytest

from oracles import component_of_base
from wsep.cli import main
from wsep.subsets import Dihedral
from wsep.wscoll import base_collection, reduce_to_base, translate


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "enumerate --k 3 --n 7",
            "22a56c98ae3aba231c8e775ab5dba2198af9423a1bfef61a1aeaeb2cf7b120e0",
        ),
        (
            "orbits --k 3 --n 7",
            "295df3fe1435807af5726dba2aa320537d93e2a394dc77c5262b9d3a74e95c66",
        ),
        (
            "enumerate --k 4 --n 7",
            "2df67c4baa07c878ceb5d3430f629831e19842baa3687a0cc21a5978c1dad28b",
        ),
        (
            "gen-w3 --n 7",
            "2ab004d06711167eefb0c6760cd99a2933958fcf12f2f421d60450c31d95e234",
        ),
        (
            "enumerate --k 2 --n 8",
            "0eff735fa363de1e2759cce852e31565ff449a76c311f6d8fd7bec711057a989",
        ),
        (
            "enumerate --k 3 --n 8",
            "3f0f47789ad376816620e87e1978686206132232ea6368dd8800c62c060204f3",
        ),
        (
            "orbits --k 4 --n 8",
            "36f81dc8051710f382d84f2d3ea7381a58f6870285d2b2eef27eb7a1e4340834",
        ),
        (
            "gen-w3 --n 8",
            "f26d7e4490ef409f0f8a16bb6ec1d353c7d6f5283e184dceec64f2746737a9ab",
        ),
    ],
)
def test_cli_stdout(capsys, argv, digest):
    assert main(argv.split()) == 0
    assert sha256(capsys.readouterr().out) == digest


def path_digest(cs) -> str:
    paths = (json.dumps(reduce_to_base(c).to_json_dict(), sort_keys=True) + "\n" for c in cs)
    return sha256("".join(paths))


def test_reduction_paths():
    digest = path_digest(sorted(component_of_base(3, 7))[:20])
    assert digest == "64be0794946aecc08df706a3bbd3de1794065070990141131370b3955407c857"


@pytest.mark.parametrize(
    "k, n, digest",
    [
        (2, 8, "71e5516437f1af3e4b2996839c7efb01c2b29231bdd0b9cead076ed11f091c57"),
        (3, 7, "49d3728eb8722c7e8b6858c97fce7b1dcdbb1b76e7c31ad3f96083adb257010a"),
    ],
)
def test_every_reduction_path(k, n, digest):
    assert path_digest(sorted(component_of_base(k, n))) == digest


@pytest.mark.parametrize(
    "k, digest",
    [
        (2, "7767ac09a673db531cf78fb0b7d16f974c7d5fe58bcadccce37e1c04d827b558"),
        (3, "2ebdf578aee2cd104e97649525fd47779a0ad6728f3aa3d1c58ea183a9cbf2ff"),
    ],
)
def test_reduction_paths_from_every_translate_of_base(k, digest):
    # every rotation and reflection of the base, undone by the symmetry moves
    base = base_collection(k, 12)
    assert path_digest(translate(base, g) for g in Dihedral.group(12)) == digest
