"""Golden outputs of both inlining strategies.

Both strategies run the same clone and inline helpers and differ only
in which sites they walk and which budget they answer to, so a change
to the shared transform core must leave every build byte-identical.
These digests pin the final isoms and the inlining ledger (decision
text, order and region tags) of ``cp`` builds of four suite programs
under ``HLOConfig(budget_percent=400)``, for ``strategy="global"`` and
``strategy="demand"``.
"""

import hashlib

import pytest

from repro.core.config import HLOConfig
from repro.linker.isom import to_isom_text
from repro.linker.toolchain import Toolchain
from repro.obs import BuildObserver, InliningLedger
from repro.workloads.suite import get_workload

# (workload, strategy) -> (isom sha256, ledger JSONL sha256)
GOLDEN = {
    ("compress", "global"): (
        "0a452b4d0c1801317c51f781d39fbde75072031d56656391faa36b21af0c8f92",
        "86acba365c6c7a9667f5367d391f5ef943ce9d28132c050aa3900fc2c74768e0",
    ),
    ("compress", "demand"): (
        "6c4148e8b0a02e45ed3aa28cbf1a68b8e5f0ecd1e482343c2d222b7f74c831bb",
        "056fc944bdc8e22b59b42ab986d98fb0abe2ca33da043636f2f71a7f07aab8f4",
    ),
    ("sc", "global"): (
        "5113aee71629f5483f28401ac556c5914eacf4d7bded5a6e9f4ea8e36d0d0b82",
        "565fc7107413f8e12db39a8f93f526a918e563c2dff5d05d9070c62a8d11bb90",
    ),
    ("sc", "demand"): (
        "3d02cbf828e915c4697909fed8bb8f80f2d8317fec2a954b35fa96030cd77a00",
        "126614419c0865ee477597d813264b67cbb359098d10c924eabbf29c200f9f1d",
    ),
    ("vortex", "global"): (
        "092fe5ea5176c14359e9fe275e1b4db1fe562acdc99cb9c5f904317277d0dab2",
        "d3037399e64faaa0549d438479b8860069a9e1c2ae5ab9b3310ee7e8c2ddf563",
    ),
    ("vortex", "demand"): (
        "9d8f8220c357f5e7a1fc24fe918ee366b9eebf2c4a195a1f13139fc4d60365e7",
        "9be4801446d14c8aa4f732512d428fb8bece42d186582539e5730f96aeac4611",
    ),
    ("li", "global"): (
        "bd84e790e67d06426231072b3dba387a4979a7483f4ee8afed0a972b25d32c26",
        "2617fd294aed750a721e1e0b373a5acf41b76349d8793d01d1522d608596fb1d",
    ),
    ("li", "demand"): (
        "636fa3e51c55bb21934c4b63e7ad03aa7183f99fbc7a3e01df5e61cdafdea76c",
        "4fd5d744e91b4eebb91f0348a4c7d55c2dc7edb7daf25518e006fb8ba0c71cb7",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload,strategy", sorted(GOLDEN))
def test_cp_build_matches_golden(workload, strategy):
    w = get_workload(workload)
    ledger = InliningLedger()
    build = Toolchain(
        list(w.sources), train_inputs=[list(t) for t in w.train_inputs]
    ).build(
        "cp", HLOConfig(budget_percent=400, strategy=strategy),
        observer=BuildObserver(ledger=ledger),
    )
    isom = "".join(
        to_isom_text(module) for module in build.program.modules.values()
    )
    assert (_sha256(isom), _sha256(ledger.to_jsonl())) == GOLDEN[
        (workload, strategy)
    ]
