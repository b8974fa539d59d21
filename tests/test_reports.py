"""Byte-exact reports of the bundled scenarios.

Each digest is the sha256 of ``cli.run(command, scenario).to_json()``.  A
change that is meant to keep every output unchanged (a refactor, a faster
algorithm) must leave all of them equal; a change that means to alter an
output re-records the affected digests and says why.  The flat scenarios are
pinned at their own order.  A curved ``verify`` at its own order 3 takes
12-28 s on a shared 2-vCPU machine, so the curved scenarios are pinned at
``order=1``, where every layer still runs (chart checks, curvature
identities, sections, the perturbed product).  Their ``star`` and
``compare`` reports are pinned at ``order=2`` as well: a passing ``verify``
prints only "0" residuals, while ``star`` prints coefficients and
``compare`` the probe and predicted bivectors of two engines, and order 2
(cap 5) is the first to reach the k = 3 contractions on a curved chart.
At that order the solved forms themselves are pinned too: r and the
sections behind each curved ``verify``.
"""

import hashlib
import os

import pytest

from fedosov_lab import cli
from fedosov_lab.algebra import Polynomial
from fedosov_lab.fedosov import StarEngine, flat_section, solve_r
from fedosov_lab.io import load_scenario

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

DIGESTS = {
    ("flat_r2_k1_const", "verify"): "787c70d61689f819f591cde3c4a01ee43101ae436de97fcac2a6e083e34cdc0e",
    ("flat_r2_k1_const", "star"): "91567c765944b33f00bd36364c6012feb40899ed21401dd0c19ef902b44e9ff0",
    ("flat_r2_k1_const", "compare"): "145c3c662068ed30138aabac1187189b00043b456d79de062fd384fe42c341d3",
    ("flat_r2_k1_const", "poisson"): "ad9d4191684c3b406237b92888ee407be7da349bfaa004b99ef320a43f31b063",
    ("flat_r2_k1_poly", "verify"): "b9040549640b134bf7d9746d2de0ba6412f297da4427f84c0c331a0a4f985653",
    ("flat_r2_k1_poly", "star"): "a1b8dd2c8daa4dee45f4d446d203a3195ad6426ec4e256797de4a15ff8e4f178",
    ("flat_r2_k1_poly", "compare"): "ea28e89251dc4a45476efcc8bfc4cf166c5e855fb56bd1cbc0fef038a0d529e8",
    ("flat_r2_k1_poly", "poisson"): "c73d4d39a93dc90c9bdee67c9d188aca2223d1f19d99a5da9948e4b053ea4316",
    ("flat_r2_k2_const", "verify"): "072201e330a9db37c7a6e298c98f93189ac55438f876f101be8bbd905577e2a7",
    ("flat_r2_k2_const", "star"): "e412eb7cab9441a0966c6ae2b74ff6e937a13e0ee009bb1394959d81a1b8c68d",
    ("flat_r2_k2_const", "compare"): "2e6e5799436212bd15972c50de528710cea2b8a88e27125f146227b98a8be1d6",
    ("flat_r2_k2_const", "poisson"): "813c5433cb9e560f83579190adf4eeb8812a501cabc13d6a71e275817f3807d8",
    ("flat_r2_plain", "verify"): "f69585f00e74ece5a6c316f634aa2a4bddb4e27418bf583c7a467132c310b986",
    ("flat_r2_plain", "star"): "9c70e31e5d421d1ae037dc79ca2aa8f4117566ffb659de2530cff26730d600d7",
    ("flat_r4_formal", "verify"): "b005eeb0f026126a47a451756cd49c429894efe7cab88e9b65ff2d4b356e97ff",
    ("flat_r4_formal", "star"): "079e911d06cf9231ba2f5394b7bca5cff34d3f1514b9cc9b812fd3693b3b9d1e",
    ("flat_r4_formal", "compare"): "0a40a77355d97ff013861443418e25c596029a5a84261b2355c6f30b6b97fec8",
    ("flat_r4_formal", "poisson"): "0da716a34f295249bb06e5545d0ab4db3008356a3ae5fb8c113bd13c6eb3990f",
    ("flat_r4_k1_const", "verify"): "143376560d2ece3268cd2be1e19afbd999478bb66d6205300c0f1f2ffd03600a",
    ("flat_r4_k1_const", "star"): "d33009da892781af1ac9a8e72d4e6d30c637aa706a6b00c28db226e44a5901a0",
    ("flat_r4_k1_const", "compare"): "791c0560808a81a4aa14695a9823cf48e834be57a002c84361bb5122eea9894c",
    ("flat_r4_k1_const", "poisson"): "1466311b164122aeafeb5420bf2fc4b74efb876caae2865a552b24883383dee1",
    ("flat_r4_k1_poly", "verify"): "113f619fb62a1193f8fc1ba6d6252af8c38d65b8e84647523068944f2174ce18",
    ("flat_r4_k1_poly", "star"): "146c82eb1a11e6009b93cab3b4473c564c789a49438cdca8b80a7bfdb380baa5",
    ("flat_r4_k1_poly", "compare"): "6a0459ef97c15a9d5668902d40ac856262de2db890da537f76eda026028fa7eb",
    ("flat_r4_k1_poly", "poisson"): "a4865f3146e2f953358bb2708f08d0c8f9b29789baec36e654d6d0d315f6d4db",
    ("flat_r4_k2_const", "verify"): "ee27995a6c3616c635dc1789bab3ee221ad85b69fb15ea30d2a4747a1c05df6b",
    ("flat_r4_k2_const", "star"): "9a4066d6499fbb12de5db8e140eeb9d6940548108af156661bebbd64c2e3a688",
    ("flat_r4_k2_const", "compare"): "99e6eea2f67a5bda5cb3375451a1a828ec38825a05a423f9b1d0c1ddf15cbad2",
    ("flat_r4_k2_const", "poisson"): "6329c7ec16ee2f8051d1a7ad0b08d7b621722c1d222d86ae3d41c5afde573582",
}

# The curved charts at order 1: about 6 s for all fourteen reports.
CURVED_DIGESTS = {
    ("curved_r4_k1_const", "verify"): "0388bc64aee6112434781ae14dbdbf9d2b0ce0435fbcd7a4863ffc28a72e3788",
    ("curved_r4_k1_const", "star"): "b446774b488507431dc1a67db1e8989f90b2b8cce9250ec4a7e5408fe41dd2ae",
    ("curved_r4_k1_const", "compare"): "cd4be5f0c51fd8675c43ea354ba77b33628173f2dd70d001b045063448dc9778",
    ("curved_r4_k1_const", "poisson"): "880bef6176e7e11ed834aa2cec015c48bad125b476ac6c224bb12efa1d416129",
    ("curved_r4_k1_poly", "verify"): "20815aca382b5ac1f7cf1b91d9895bf706eb25c731870aeee2092cfba09ce69c",
    ("curved_r4_k1_poly", "star"): "fe4eb4a489182b3fe33c566825726dcdc4ade90fe24a83a29a5b2d6214efa6c6",
    ("curved_r4_k1_poly", "compare"): "a03a336c26d1e813c1a2623aef27dcfc0eff978136acfd9e5880947e41953e62",
    ("curved_r4_k1_poly", "poisson"): "1bef24f01bae8b781b2f9bec8977ca17a32d830699b651a42caa1c52d3e89453",
    ("curved_r4_k2_const", "verify"): "1b7bb001707cf414e374f3c4f3e584f4c34b24b7edd07356773990ed4c4910e6",
    ("curved_r4_k2_const", "star"): "456d68ef531e352cb6340984f908f5349abbbf297caac3f2f282a952550c631c",
    ("curved_r4_k2_const", "compare"): "f28fbd00adc0177ccf7a9b96681903073dbbd325946db7d50081ca07fc2b308f",
    ("curved_r4_k2_const", "poisson"): "524f179b4d1fd258937649bcd8b28724e2ea490b8342315510877d07be1d97a7",
    ("curved_r4_plain", "verify"): "baff41091290edf9c8b4e6957a2fedd3e9b7983f7db123b9a9e9aff023cc9ac1",
    ("curved_r4_plain", "star"): "393cb52a11e20156a2176e6217f75f577f5543dbbaa4411a2749746681a182b6",
}

# The curved star and compare reports at order 2: under a second each.
CURVED_ORDER2_DIGESTS = {
    ("curved_r4_k1_const", "compare"): "3c062d15de478a226625ef311b1120f67c7f01bdfd1fa7109c76d36a7ad1a39f",
    ("curved_r4_k1_poly", "compare"): "1de06e0d34bd57fcc04ec4c7ffa8110e2d6a937c6dfaeabaa8f4b5878f167fb6",
    ("curved_r4_k2_const", "compare"): "04d82f943ec39ec914b8b34c976cbc8cfe8c00919235c86596c7650d792b468c",
    ("curved_r4_k1_const", "star"): "2827468e63fd3f4cc21854bb5c76f5c3c8023faefcab5f9a28fc2495a747d0b9",
    ("curved_r4_k1_poly", "star"): "9f7b88b9e36aee924e7d77cbdb08b1852dfd00288329ad77adf5cf95443747ca",
    ("curved_r4_k2_const", "star"): "ae3db75214e22d18311e9f8e75c5b17eb0e550bbf13d34433355bd36db603562",
    ("curved_r4_plain", "star"): "0edbb1a7c82879414b604b7d39b632e64390b5e6e6dc09faa0b5e0c59dfbbeb4",
}

# The solved forms of the curved charts at cap 6, by the reference solves:
# the sha256 of str(r) and of the sections of f, g and each coordinate.  A
# solve stores degrees 0..cap-1 only, each exact, so these pin every
# coefficient that a product through hbar^2 reads (degrees through 4, which
# an order-2 engine stores at its cap 5), and degree 5, which the verify
# residuals read at order 2.  The order-2 engine's forms must equal these
# capped at degree 4.  About 3 s for all four.
FORM_DIGESTS = {
    "curved_r4_k1_const": {
        "r": "5f0e814e0532c94e38cb0818ba0ad55b1110e9323fb41a49db31f166339dd459",
        "f": "43bb4b52f393235ff68d8cad46f6f34ab74440b4922f711f047b93f448b556c2",
        "g": "47ac5aa9a048784a674d3cd63281a3bc3ed5cb97ced1c21a8386d60ff327cf0d",
        "x1": "628a3af5492d406eddb6cf05a1e93757b1b7966924fc33488d4955c3715a1457",
        "x2": "f8c27667703c62d872177168207c3347f6f33f614f6547d67dc1632e5c37d528",
        "x3": "39b49ec74361f57c1bd575928dc2a8574c42063b03a5df675370b8c50fc573f9",
        "x4": "bd7e86d29410c2ca3cdbcfed3b01ee99a53f9217eb2a3a449630e515579fa80e",
    },
    "curved_r4_k1_poly": {
        "r": "5fce93a89b50c01c957c4d7f9418317a40460971b286b38231598608d493020a",
        "f": "8c282feb92aa21da2c7887ca0cceabd6d071192df953e9ad4ad287feb2a58194",
        "g": "64c6eca8e04b3c6c0891011cb763db36ddb3fe186ece7c88352b0bf75b55f86a",
        "x1": "0b4facaafa82365c3c50fc50c8a647b69c755952644e81cba0982c00116ff9c2",
        "x2": "d5ff432c58bb46e159d3715e11d7774b296affe2b7e4e7ac97e15ad4f7a1d55a",
        "x3": "bc64cb5fee710064a71e1fc13c6abb3591e24e4ba124ddd9cd62003de962a692",
        "x4": "e89e0835bf168906612194c4b2f103b97a62675472edfbf256676d239e7694c5",
    },
    "curved_r4_k2_const": {
        "r": "382b16f9879db954125bf733f7ca9bef7023d0543ce715a06fecd7ec468119c0",
        "f": "1405efbd74572861ea98b71eff86ac375b8000fdf5c3ebd56f1d8b7ceae0c20b",
        "g": "bbd9a5a5b73ae22c12a6068eb320b8f2863feffefa0e74aef10ee4485a30931e",
        "x1": "5962d503c52bb153174b9464512c8d9c11cbc0f762d91498b0be765e3c1019e6",
        "x2": "ed25e6dde2d415de6f2bc431fbfd36db6467779651c0ac419ffbbcb7ee29614d",
        "x3": "7e6f58ecfcd15c70479a2f756289284f3b7f66c62a75300df9f78cc334870f88",
        "x4": "39145a6f46112b8eafb16ef6c4b38fb06cd86d09774fb4eb299945391c94fee7",
    },
    "curved_r4_plain": {
        "r": "6d1db1b9a7efc1f342538360957ee5492849853604ebbbb6fb7eb834980175c7",
        "f": "913eb40b6fcda47daae13e98f393490acd3f7d82322115e5ff39dd3452714d64",
        "g": "4a7d0a718ba430e8f2a49df050588b411eb26f9df2f13c05ad3a5066f2127ac8",
        "x1": "3c79b66c9a32b62942d62ac2f784ecc5210a16826401807a079638533ee7356f",
        "x2": "c6cabc44b84dc5b440a4e5ff8add15651560cc6301b2ff9f6fd4328f608e8ed4",
        "x3": "78324a487dc66c9dbf78f5da35b4eb03710903f2ddee5ffac48faafa2dab1086",
        "x4": "1e79987818de4c12504c056402c70dee3ab77c2934985bb46284fd74e17ae867",
    },
}

CURVED_CASES = (
    [pytest.param(name, cmd, 1, d, id="%s-%s" % (name, cmd))
     for (name, cmd), d in sorted(CURVED_DIGESTS.items())]
    + [pytest.param(name, cmd, 2, d, id="%s-%s-order2" % (name, cmd))
       for (name, cmd), d in sorted(CURVED_ORDER2_DIGESTS.items())])


def _digest(name, command, order=None):
    scenario = load_scenario(os.path.join(SCENARIOS, name + ".json"))
    report = cli.run(command, scenario, order=order).to_json()
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def test_every_scenario_is_pinned():
    bundled = sorted(name[:-5] for name in os.listdir(SCENARIOS) if name.endswith(".json"))
    pinned = {name for name, _cmd in DIGESTS}
    assert all(name.startswith("flat_") for name in pinned)
    assert all(name.startswith("curved_") for name, _cmd in CURVED_DIGESTS)
    assert sorted(CURVED_ORDER2_DIGESTS) == sorted(
        key for key in CURVED_DIGESTS if key[1] in ("star", "compare"))
    assert sorted(pinned | {name for name, _cmd in CURVED_DIGESTS}) == bundled


@pytest.mark.parametrize("name,command", sorted(DIGESTS))
def test_report_bytes_are_unchanged(name, command):
    assert _digest(name, command) == DIGESTS[(name, command)]


@pytest.mark.parametrize("name,command,order,digest", CURVED_CASES)
def test_curved_report_bytes_are_unchanged(name, command, order, digest):
    assert _digest(name, command, order=order) == digest


@pytest.mark.parametrize("name", sorted(FORM_DIGESTS))
def test_solved_forms_are_unchanged(name):
    scenario = load_scenario(os.path.join(SCENARIOS, name + ".json"))
    spec = scenario.build_spec()
    f, g = cli._default_observables(scenario)
    dim = scenario.geometry.dim
    obs = {"f": f, "g": g}
    for i in range(dim):
        obs["x%d" % (i + 1)] = Polynomial.variable(dim, i)
    r = solve_r(spec, 6)
    forms = {"r": r}
    forms.update((key, flat_section(p, spec, r, 6)) for key, p in obs.items())
    got = {key: hashlib.sha256(str(a).encode("utf-8")).hexdigest()
           for key, a in forms.items()}
    assert got == FORM_DIGESTS[name]
    engine = StarEngine(spec, 2)
    assert engine.r() == r.capped(4)
    for key, p in obs.items():
        assert engine.section(p) == forms[key].capped(4), key
