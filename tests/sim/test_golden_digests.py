"""Golden digests: every engine's observable output, pinned byte for byte.

The differential suites prove the engines and the scalar oracle
(:func:`~repro.sim.reference.exact_lifetime`, results labelled
``fluid-exact``) agree with *each other*; this file pins what they agree
*on*.  Each case hashes the full
:meth:`SimulationResult.to_dict` -- served writes, counts, failure
reason, the metadata (regime counters included) and the per-death
timeline -- for the 7 sparing schemes x 3 attacks of the differential
suite on one small linear map.  A kernel refactor must leave every
digest where it is; a deliberate change of engine numerics moves them
and must also bump ``CACHE_SCHEMA_VERSION`` (``repro/sim/cache.py``) so
cached results of the old numerics stop being served.

The small map never reaches the machinery that only switches on at a
million lines (the unpatched ``BATCH_LIMIT`` cap, compact work rows,
death runs, the width-64 region reduction), so the full-scale batch is
pinned too, and checked once against the scalar oracle.
"""

import hashlib
import json

import pytest

from repro.endurance.linear import LinearEnduranceModel, linear_endurance_map
from repro.obs.metrics import MetricsRegistry
from repro.sim.batch import RunSpec, run_batch
from repro.sim.config import ExperimentConfig
from repro.sim.lifetime import simulate_lifetime
from repro.sim.reference import exact_lifetime
from tests.sim.test_engine_equivalence import ATTACK_FACTORIES, SCHEME_FACTORIES

#: sha256 of ``json.dumps(result.to_dict(), sort_keys=True)`` per
#: ``(scheme, attack)``; the two engines differ only in
#: ``metadata["engine"]``, and the oracle's ``fluid-exact`` column also in
#: its regime counters and summation order.
GOLDEN = {
    "fluid-batched": {
        ("ecp", "bpa"): "b36d18b39e3e8a9562db2a68e78f15f8937568883671c31aceadf74727ee139c",
        ("ecp", "streaming"): "a669947d2873ef7cf32143842a51b4c2d82b9ec9ef5895e197defcbb228cbbf8",
        ("ecp", "uaa"): "27632ed6fd6c4feed15993e8dfaf2383cb5a7afafb7a77e37e1df8ea0ac1d1bc",
        ("freep", "bpa"): "e56b0bae6df185491f14a7778619c42e1dcba5920beab057094f0eced6d8246e",
        ("freep", "streaming"): "1e83e42604c294fb0c09a8908e3b3cff770635bc5f1466cacd4fb41ff9ee590c",
        ("freep", "uaa"): "a37c0d346886686cd09a1a5944fd876f2e62b6bef9e0a29bed0d493f2082cb6c",
        ("max-we", "bpa"): "65c31b9109d8accdda54c45d621f437f3cc4614f636f6591c25a3bd3f261385a",
        ("max-we", "streaming"): "63e3acbd76710c9ec94a7cc1bf910fdb17348fa3f14968919a7f0ebd65db1ee6",
        ("max-we", "uaa"): "8cbe569435e56477dfaa18ed06d636e2770d882c453b412c012d1c1f175c73d4",
        ("none", "bpa"): "f28302383fdb89d24b474202eb61ffe063c0cb5abe34688fd9500e1659918417",
        ("none", "streaming"): "0562a6f714a2f41d9cc8d0015388d378ff0369d6687d985422fa374788012cf9",
        ("none", "uaa"): "14c1816e2f09d8d77e10dc456a2185bd5329cae8351f1e7bc8bff16614777d3c",
        ("pcd", "bpa"): "ee32fe104502862b9bc4b2b5a2476b1cc827ba53bbc2911422a11e23112198de",
        ("pcd", "streaming"): "f3f5b2f26c73c5862214d0ee48c1dbdcc1c8e916e26ef7b68afbcd965e27ff0f",
        ("pcd", "uaa"): "6a012e46094ff1e5e5481c634524868a13963d2f305b5ce9244406521d6c83a0",
        ("ps", "bpa"): "46b34269ce5d5dd6d758d6d67901299f5c7f2acf3619fc537c97fb20a3e13fbf",
        ("ps", "streaming"): "b71f242e31e660c77f3b0708043172be5ef139969d61e02c98d8b29054fcdea1",
        ("ps", "uaa"): "0dac10a50422e8cc758a8bb3754022c5632d563843c8ce481f01147c10c7b29a",
        ("ps-weakest", "bpa"): "3f107cc49a7bfc7d4e967da9a828c2d792c096ccf1267abab5c3b63c02d79134",
        ("ps-weakest", "streaming"): "446958dd5c1e73af77cbb8d473d6858082b73240609acc7cee1f3747abac8b88",
        ("ps-weakest", "uaa"): "628562e6fc1f0165dd711fe1626c7eaafdf18578a93f20f733ffb2fb6d5d36c6",
    },
    "fluid-exact": {
        ("ecp", "bpa"): "4aebf33f8160e195f17dcffdec414d7f8145bedbc9c4043544bf17f2aebd2dcd",
        ("ecp", "streaming"): "8eb8839691628687a1dae69a9563889236f4ee9959f90d07959f456b0e76cf97",
        ("ecp", "uaa"): "d3662a9078457dd2fa4efa7d5aad3caf88be45605bb6e9af91e33c709f1ef338",
        ("freep", "bpa"): "c87a6aa44271608ef0f2ae5212cd4b6694ef2b2c38e6bd95fc179d05a3be0a42",
        ("freep", "streaming"): "9df4737f7702dafff4d0a37af0af3a0460d5dbf583432219dc117a1380c17849",
        ("freep", "uaa"): "bf7f93b54ac9615e2a845a044a6f5e4ef1f57109015a7f73482f44d14c7efe2a",
        ("max-we", "bpa"): "7e28f2dace1a8fa909c6ee990cf380bdd0315cd817bac81cf81e0bca3ef796a8",
        ("max-we", "streaming"): "47453fbdf143f4c69baf07ba125082db7252c11fcb43705ef0a93b2437ef8c21",
        ("max-we", "uaa"): "aedf3ddd48da0396f070ec6e0b898edcb9f0c97db5ca70c44e91c08b83ef5b45",
        ("none", "bpa"): "53b26783c71d966caa5b990ed1d2c30539b9a3051de4f5d6a5f1493642b18a8e",
        ("none", "streaming"): "f7c19406a6e626c0e74b7b6a2d0c1e549c39754d19a656857ba05305b4d69f0e",
        ("none", "uaa"): "766340d0ca79fecfeefcca2171d252048834230fff37853a0fb3b6b4a8fc1ffa",
        ("pcd", "bpa"): "abf8fa3762caf0996459e34f2ea035ec38c17f820e091c5332f33319f091cfae",
        ("pcd", "streaming"): "534455aff82facd4f95c718a7a90d2910612f7e60388dbd9fb57e9e0acc17700",
        ("pcd", "uaa"): "3d539b066f60447e2e95fb22780aca1448005fff95241b1a7e56d17b814ed339",
        ("ps", "bpa"): "dd5fb224502b78cc9e5fe3bba191dd14bba321f6fd59d430558b50d5749db78c",
        ("ps", "streaming"): "66bd596ca1b7534ee13d6c5f188fe0e6d960d6309ba2b8fdf52e749fa059a6a9",
        ("ps", "uaa"): "04940209f8a258c6feecba678d9cde3f9c0a7cfe575721c8c5b57121703abe45",
        ("ps-weakest", "bpa"): "512d09c80e5fa6d0d21a29bc7ff270ee869636f7ac57cdec81194124d757b25d",
        ("ps-weakest", "streaming"): "acc877112f6b99599c5f19fd31ce31e681ce6d38f6e0c1072968529d10ebe0ee",
        ("ps-weakest", "uaa"): "a8848e977e7188a57940f663fcc76b6f9bbac2a41e470a5f2fcb9f9e4f469c01",
    },
    "fluid-ensemble": {
        ("ecp", "bpa"): "6f70cf20bbcc9da0a87adc7a6189cbc8e61e07ae8a18eecb9bd01bec20a94f7a",
        ("ecp", "streaming"): "c329421e46612e79ca990b2eaae1f4b0656ba0dde4b2c765839f559a8b8dec0f",
        ("ecp", "uaa"): "fecd8aeb69a98915e04cd8cfe590e8f01b8a167b165375b27f49e9b690301b6e",
        ("freep", "bpa"): "85c18ef541c20e8d34874d8669fafe5dc49bb0fb2bf38807bc48c7d713ba9584",
        ("freep", "streaming"): "02e2aab4ee7eb73aac23dc15c42f57f3483657072663ad761629b439792e6656",
        ("freep", "uaa"): "cc429d3ec66fe41898025331ed0006dedd61ebc01d9c6dd9b604c5810ce12867",
        ("max-we", "bpa"): "5327d28f5c3a212e1f004cd85d6fea955835298fe9395b0e21b35ba6e0a4a7ef",
        ("max-we", "streaming"): "4de8688edce45b519230a8f381fffd72cf6c865a50c4299c363fb46bb69c7bac",
        ("max-we", "uaa"): "ef4a798b2b161b5b902b1b008c0821dd5f6701904fba04eed31636148a6a0488",
        ("none", "bpa"): "9903ff54f32852fd5a58c9aff7b07fe6586fabcbc969b5c70a16563c8d9da1c8",
        ("none", "streaming"): "3ea214f6227d1263e4e28d58cb462d43321fb6731396282a4646341c3495859c",
        ("none", "uaa"): "19d426b086c83b24a9010e4363d7246b8283650743d5e8b2d4c2da810c11c6a3",
        ("pcd", "bpa"): "8509e4eb94a41869a3a910e663e02c88e1428837f53839e9cfef7c4b100d9202",
        ("pcd", "streaming"): "88dabded8a3020e9f75f2ded67d53f4c5402e4250d9209327e36326a082075bf",
        ("pcd", "uaa"): "59f2535f7feab034b3194af94ebb2cb8d2435523d4bf88eddd76b3dc2e02cdf6",
        ("ps", "bpa"): "ce2c15e6df8ac827060c75c053aa66276211424e6486f24d10662a32a7564ed2",
        ("ps", "streaming"): "e0d925703f42a214bb66442a6e5ba3d2389e6c1d54bbebcab8ecf190202629ad",
        ("ps", "uaa"): "d1632840c7b7d238910d9752545588ea7904256fb39b33c9bd5a1c9e7e848221",
        ("ps-weakest", "bpa"): "44b7cd302402565be7b0fa763c4ad5768e1318531b1f1254e769d1299c28bad3",
        ("ps-weakest", "streaming"): "fe913e69606a76aea767af3b7284a2943ec0a310455891975cefd49ba02d4084",
        ("ps-weakest", "uaa"): "879405da96af9691e3b04573509e05c243e7b6f3f2aafa878a15527721cd425b",
    },
}


def result_digest(result) -> str:
    payload = json.dumps(result.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("engine", sorted(GOLDEN))
@pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
@pytest.mark.parametrize("attack_name", sorted(ATTACK_FACTORIES))
def test_result_digest_is_pinned(engine, scheme_name, attack_name):
    emap = linear_endurance_map(
        120, 40, LinearEnduranceModel.from_q(20.0, e_low=200.0), rng=11
    )
    components = (ATTACK_FACTORIES[attack_name](), SCHEME_FACTORIES[scheme_name]())
    if engine == "fluid-exact":
        result = exact_lifetime(emap, *components, rng=13, record_timeline=True)
    else:
        result = simulate_lifetime(
            emap, *components, rng=13, engine=engine, record_timeline=True
        )
    assert result_digest(result) == GOLDEN[engine][(scheme_name, attack_name)], (
        f"{engine} {scheme_name}/{attack_name}: SimulationResult.to_dict() "
        "moved.  If the engine numerics changed on purpose, bump "
        "CACHE_SCHEMA_VERSION in repro/sim/cache.py and re-pin GOLDEN; "
        "otherwise the change broke bit-identity."
    )


#: Max-WE under UAA and under BPA on one 1M-line device (perfbench's
#: ``fullscale`` batch).
FULLSCALE_SPECS = (
    RunSpec("max-we/uaa", attack="uaa", sparing="max-we"),
    RunSpec("max-we/bpa", attack="bpa", sparing="max-we"),
)

#: sha256[:16] of ``run_batch(FULLSCALE_SPECS, config).to_json()`` per seed.
FULLSCALE_GOLDEN = {
    1: "ff046c7fbc6400b6",
    2: "accd2a959ba8cf14",
    3: "18caa769d4842c5e",
    4: "072c48998be2d689",
    5: "75de1aaede44393b",
}


def fullscale_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(regions=16384, lines_per_region=64, seed=seed)


def batch_digest(batch) -> str:
    return hashlib.sha256(batch.to_json().encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(FULLSCALE_GOLDEN))
def test_fullscale_batch_is_pinned(seed):
    batch = run_batch(FULLSCALE_SPECS, fullscale_config(seed))
    assert batch_digest(batch) == FULLSCALE_GOLDEN[seed], (
        f"full-scale batch (seed {seed}) moved; see the GOLDEN message above"
    )


def test_fullscale_batch_agrees_with_exact_engine():
    # shadow_sample=1.0 re-runs every sim on exact_lifetime and raises on
    # any divergence (compare_runs); verification leaves results as is.
    metrics = MetricsRegistry()
    batch = run_batch(
        FULLSCALE_SPECS, fullscale_config(1), shadow_sample=1.0, metrics=metrics
    )
    assert metrics.counter("verify.shadow_audits") == len(FULLSCALE_SPECS)
    assert batch_digest(batch) == FULLSCALE_GOLDEN[1]
