"""Golden SHA-256 digests of simulated traces.

Traces are bit-exact functions of (chain, partition, config), so any change
to the stepper that alters one IEEE operation, one meeting or one event
shows up here.  The metrics ``evaluate_trace`` reports from the same traces
are pinned too, as plain floats compared with ``==``.  The first nine digests were recorded from the numpy-array kernel that
the list kernel replaced, and the last three from the list kernel before it
carried its boundary flags from step to step; the event times in them are
plain Python floats.
The general-chain digests (40 viewpoints with gaps U[0.3, 2]) were recorded
from the list kernel that fires a phase timer within a step, before the
kernel advanced free robots a stretch at a time.  Their waits are not whole
numbers of steps, so a robot whose timer fires partway through a step moves
for less than ``dt`` in it; noisy runs on them pin that partial step.
The failure schedules ``m12_parked_down_at_detect``, ``detect_drops_resume``
and ``window_past_horizon`` were recorded before ``simulate`` drove its
failures from one robot-status table.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from patrolsim.partition import optimal_partition_bisect
from patrolsim.roadmap import ChainRoadmap
from patrolsim.simulate import (
    FailureWindow,
    SimConfig,
    case_study_chain,
    evaluate_trace,
    simulate,
)

DT = 1.0 / 32.0

CONFIGS = {
    # criterion 5: noiseless convergence from seeded starts
    "c5_seed0": SimConfig(dt=DT, horizon=160.0, seed=0),
    "c5_seed1": SimConfig(dt=DT, horizon=160.0, seed=1),
    "c5_seed2": SimConfig(dt=DT, horizon=160.0, seed=2),
    "c5_seed3": SimConfig(dt=DT, horizon=160.0, seed=3),
    # noise-sweep style runs
    "noisy_0.1": SimConfig(dt=DT, horizon=140.0, seed=11, sigma2=0.1),
    "noisy_0.2": SimConfig(dt=DT, horizon=140.0, seed=12, sigma2=0.2),
    "noisy_0.3": SimConfig(dt=DT, horizon=140.0, seed=13, sigma2=0.3),
    # criterion 6: temporary stop of robot 6
    "c6": SimConfig(dt=DT, horizon=520.0, seed=5, failures=(FailureWindow(6, 300.0, 400.0),)),
    # criterion 7: permanent failure, detection and repartition
    "c7": SimConfig(
        dt=DT, horizon=440.0, seed=5, failures=(FailureWindow(6, 300.0),),
        detection_theta=8.0, detection_arm_time=200.0,
    ),
    # twelve robots on ten clusters: robots 10 and 11 park at the chain end
    "m12_noisy_0.2": SimConfig(dt=DT, horizon=140.0, seed=21, sigma2=0.2),
    # twelve robots, robot 6 fails for good; after detection the survivors
    # repartition and parked robot 10 rejoins the team
    "m12_detect_rejoin": SimConfig(
        dt=DT, horizon=300.0, seed=22, failures=(FailureWindow(6, 100.0),),
        detection_theta=8.0, detection_arm_time=50.0,
    ),
    # meetings need exact arrival at the shared viewpoint
    "eta0": SimConfig(dt=DT, horizon=160.0, seed=4, eta=0.0),
    # as m12_detect_rejoin, but parked robot 10 is down from 90 to 150, over
    # the detection: no fail or resume is logged for it, it stays parked,
    # and parked robot 11 rejoins instead
    "m12_parked_down_at_detect": SimConfig(
        dt=DT, horizon=300.0, seed=22,
        failures=(FailureWindow(6, 100.0), FailureWindow(10, 90.0, 150.0)),
        detection_theta=8.0, detection_arm_time=50.0,
    ),
    # as c7, but robot 2 is down from 305 to 330 when the detection fires:
    # it is declared dead and stands still, and its resume is dropped; a
    # rule that lets it rejoin must re-record this digest
    "detect_drops_resume": SimConfig(
        dt=DT, horizon=440.0, seed=5,
        failures=(FailureWindow(6, 300.0), FailureWindow(2, 305.0, 330.0)),
        detection_theta=8.0, detection_arm_time=200.0,
    ),
    # a window that ends past the horizon: robot 3 fails and never resumes
    "window_past_horizon": SimConfig(
        dt=DT, horizon=140.0, seed=7, sigma2=0.1, failures=(FailureWindow(3, 100.0, 200.0),)
    ),
}

# general chains: ``g<c>_m<m>_...`` runs m robots on the chain whose gaps
# are drawn from default_rng(c)
for _c in (1, 2):
    for _m in (8, 5):
        for _v in (0.0, 0.2, 0.5):
            CONFIGS[f"g{_c}_m{_m}_{_v}"] = SimConfig(
                dt=DT, horizon=140.0, seed=30 + 10 * _c + _m, sigma2=_v
            )
CONFIGS.update(
    {
        "g2_m8_dt64": SimConfig(dt=1.0 / 64.0, horizon=140.0, seed=41, sigma2=0.2),
        "g1_m5_eta0": SimConfig(dt=DT, horizon=140.0, seed=42, sigma2=0.5, eta=0.0),
        # robot 2 stops for 10 time units, too short to be detected; robot 5
        # fails for good, is detected and the survivors repartition
        "g1_m8_fail": SimConfig(
            dt=DT, horizon=200.0, seed=43, sigma2=0.2,
            failures=(FailureWindow(2, 40.0, 50.0), FailureWindow(5, 90.0)),
            detection_theta=20.0, detection_arm_time=10.0,
        ),
    }
)

# team size of each config; the others run ten robots
ROBOTS = {"m12_noisy_0.2": 12, "m12_detect_rejoin": 12, "m12_parked_down_at_detect": 12}
ROBOTS.update({name: int(name.split("_")[1][1:]) for name in CONFIGS if name[0] == "g"})

# (positions.tobytes(), dirs.tobytes(), repr(events))
DIGESTS = {
    "c5_seed0": (
        "0d4310b6b2b81bc8c90bd96de907440cb74249cae8df2f373bb7563b18c029b0",
        "d3ec2746d7bc02e4aea218953860e38eef0a1d17c6335980abcee98ea0a3369e",
        "f4e863334cae242f3ee62111536ca93dbfa253ee2143a91ff8add0cdb819db94",
    ),
    "c5_seed1": (
        "a3a8ea0254e72cf4704a7d793537fa9663977ebe6364817857d20f1f83033f4f",
        "e3d0d57a2640f7ae6c298112c69b77dc73269fc5552508fb03fb8df8553ac8ad",
        "d85a3c9a8dcfea41b7f8824ea0a0cfe8948926e52ad88ef96e640b08eb7b8435",
    ),
    "c5_seed2": (
        "c364f8a53f09e4d01d8d9860fe898352a20e2d80189b21b10a4223896e22662a",
        "2fdbcde290afd9a170040b737535ae2eae9ea98028700e70ab966f4deb633033",
        "5ea13d5862113600fe58d2ae8ba7b042831cb85d1ea156dd26b89657b5a43b4f",
    ),
    "c5_seed3": (
        "95b38e772c63ed4993487b1f601972874f783f5acaa7461ef8ba1a8bcdadeb7c",
        "273ee4bd88a54d4aa1dde73761c6baccad8384306270d8fd52ba27cf8447e33c",
        "ce30ae03e2db03470024fbeb09ff5e065056fa85935f46429f75403b2281dc0d",
    ),
    "noisy_0.1": (
        "928bed76bbf3ed77acdd82ea771e6d67a0d696a35cfccabe82650b287fd50498",
        "9aa7b85c675963e7510d65921db7e9ccad90ac95d2549f3eab63fb9488e22079",
        "00d4a5c248ec1ccd2890919691cf6d309a89791c8c9833a59736f7662cf31980",
    ),
    "noisy_0.2": (
        "83631c30315eff45e7403d48d8d0c6e705cba9be0496547bfcd38549159203f0",
        "5baf23cf96182c8ac2e1257a0352d3c1b8683e68c50990bfc393ccd3515ff154",
        "7649c0b854ccfadd363de11aa93c4cdb8069675359d5e9cf242d86b1a1cfd3f2",
    ),
    "noisy_0.3": (
        "7fb0194a0872df5a5b0d1f285b3565d3155d69f8b39bdebb68f4fd9445354e4e",
        "edc31df4a64881d5f694fea89f90856e3182573fc8f5f2894c8e61bed32712a5",
        "b8697af38f9dcb9c333f1ffecd394b007191af63a4ed11bf991b700f4492fef2",
    ),
    "c6": (
        "22055327afca64c2fd7142f270379cea4e1b359e1216236479164cdb896556b3",
        "e93356a3b29240e7ced2357b575ce6b34d63e91a092dccbdf7ad1273ff2ad1d9",
        "16fc6f0c7a20f0dcd5e078f02520683aff551751358199e7f259ebc10607283c",
    ),
    "c7": (
        "677d989ea8e03e41ec05f887d2ad854c6990f0c125558cbea7126aef0d2e233c",
        "c1bfff3f90ecfdf4094529859017210a1dca21db491139ea29984a3d7568707a",
        "c6db34b8eec72744c88e9e343826ea6a89f29b4be8d16ffca009ea4ae016992c",
    ),
    "m12_noisy_0.2": (
        "a5da07ff3e2b948dd8c6e0506c3ee246298dead11eff4e0a179e7dea293003db",
        "b865b2ba0c8787cc54ef5ddf7435dd3b3cc8a3347d1adac2b1e30e9f984921c8",
        "6af6eb6669a5f0193797d6f2b7d34b40d40950694fa9fa55e0492a01ba7572f0",
    ),
    "m12_detect_rejoin": (
        "0b3043aed14cb65fd391215113932889a6584b73abe1704e544d4e144663caed",
        "e78c4f15fdf1fd538d159fd66687f3025ef5515798714304350aca2d728def28",
        "aeac579e1224e44541314c6e9b2aa55b68a93f049ba80a744642a914ddd16355",
    ),
    "eta0": (
        "3df0050ef192c7f74d9a56f4bf113da58d2db5f0c5dca7d4cab40fca3960a37a",
        "6b5ae39ca4f7251632df812509d9573462a1e8ef2c2e0fc43bcfd02205c06199",
        "147aec08467a883ed7cbd05d3fbafd5626f97ce4cb7a6b4e933ff740f2c1bed9",
    ),
    "m12_parked_down_at_detect": (
        "c20969a6d568af54acdf6c8eb4b45674f29c08735ffef6fd6c655b7f15e8e41b",
        "d602f4e742290148c49387180853c88f685d3b73965855b8729099843422d9e3",
        "c888c2eb1ce8ce2f0e4a44ad05bceb7bd69bf812345ed0d410ed27ac4d90ea22",
    ),
    "detect_drops_resume": (
        "1cc13fcbaf14852ad7d65de3c09aeaed9675e7ce9a495b84a8331f577f2a42ae",
        "10ccff3de8d1bd2f9a593cf0cc6dc7e4065dab66534a9406c8a3600e290bc0ea",
        "a98b6e298d32e92532db1a633aee768f635092cb6133e72c20454936aa8b0b9b",
    ),
    "window_past_horizon": (
        "18650cbe23a6ae25e0fada67201128c2ac3ad6bf3c3685c7cfe715ff68de0aaa",
        "caf6a3cb7b422ba518036dd4d03078e779881787560dc83054397ec741e122f9",
        "85ca6d06b7581f4256da7e7ac3af4119af85a3a968bb9ac6d386eb53d6955ddc",
    ),
    "g1_m8_0.0": (
        "89ac2eb99ec7ca0c459a0e6d9c17f1fddf4c67e9792882fc32e33be666d64e3f",
        "bfaae579deb966e173e1efb03426aaebdb194d4895bfff148c34eead1da4d7b5",
        "8857ee5cd52f4764ea39dc9b50cf4a095a5a3d0f84d913232b549841603c9d96",
    ),
    "g1_m8_0.2": (
        "78d2b49d0bb6d69cede3b413ce0955c169a275903e559e6ceed1a3a6c7bf10d4",
        "374e040b84e2e4d3e717cf3da02a39565ab288a93c6ce9d54e4ab2fbbb96c724",
        "61f3a3d518a067c49e5b5772e4b0a5f2e88198302b3579a5ebc8507fdfeea3e8",
    ),
    "g1_m8_0.5": (
        "394909b6843033da2e1db4b0e7ea4f043cc0ccec64d28795f850c669423e0778",
        "c5470cb3989427f146a338687ebbdced30a24d3eb9c047bedc7561825cc0c1d7",
        "2c05ad834b0d2bae5dccd302b08db1713b686f10500417357c755f9a1b08db30",
    ),
    "g1_m5_0.0": (
        "d582b460d43de9f4728483bb7607721f1c859204f437f1d266a31e54330cd752",
        "432dd0d4bf2376b0185eda02ded0e494cb9f1fa6dc95699c63cd96ffdab5b1f5",
        "4b7a0971779ca3c7dc45c445a998b839dceda258141b749bc69a0e34afe4477e",
    ),
    "g1_m5_0.2": (
        "79ede32753f1f93d96a17e0e9fe19362c34280e0d15816da8da37fe1d78be7db",
        "c9219426a60e38c6b869817c8446a4d5a1b016b0314ae4371f2e368b7583e7d8",
        "9b751707924a3464dd2779e14783fd5007c006ef9d41e53b3aa95ef0642ca4c1",
    ),
    "g1_m5_0.5": (
        "4f58b170b02b038e0686bfdb757254016fb8e0f3ca259b6a5b74ac249c07a157",
        "aab33aaae17c8fd67474d2b8664753da8a07d7ae643a7421d84f3f6380772ed3",
        "9ab1703cb2ee79af74ed651ceace97429ec0fc446dad5127069fa5255c4d6ecd",
    ),
    "g2_m8_0.0": (
        "f8ceb3f1427da889ff455989e2f553bff0ad4f5e80fd559116bb540dd9b285b7",
        "eaa024a5a6bbbab1a193e9c90f1b18f2414b52ca8f037d42b633f7f635ddb491",
        "b8f6cd4661ab43b0b1964ef7bc27667e71ccb2ca491392a5c606b6a2df6e7ced",
    ),
    "g2_m8_0.2": (
        "ea7859ce155dc23b3bd125f417d33adc946b438c69b47c76671548917adb81c2",
        "454b744fff89986fee9252ccf144512e8744b644b489b4d5a5097a1297099ade",
        "163d8efa7a5bdddf9a85b27a151c5d13ac2ad2464a2b896c106dce703961e0fc",
    ),
    "g2_m8_0.5": (
        "69110626bed4bfd5e34e7b0a05a898806ffa6019b198cecf51ee5325b8db58ba",
        "c60361a3445ebf333873b57cd307f6b4bdf7b85a38a0a8856df1ccafddce459d",
        "098e7fc13b37c630597066dcb301a49412898d24addad0baec3c457037f66106",
    ),
    "g2_m5_0.0": (
        "68ba5fe4697772dc2459efeb5a930b94e536a560b85a38bde35404eed1ee700e",
        "eb7ee5c04c0b19d58384363d30a557a09c8126b18db3b4b695af001ad10a23fc",
        "ad1dcb6ed434e906ae522f1e6948f0b038143361f8e7599545e012ac85368aa4",
    ),
    "g2_m5_0.2": (
        "64b3bcc7f527c9b0f289c5bdf73d28314466a41160abcc1f1a1911727ef2efcc",
        "7e1bc3a4cfbd4963ddd9f5a41b496f6806f8afc466f203476368477c01001ed2",
        "e847b271d9e04e532b1aec19c79ca149980d89976f72b4d56d683902256ccda4",
    ),
    "g2_m5_0.5": (
        "9b8452c0dc8c0af9ad8e2969a7bfc20d2d0137909a2369500b7329ecf9c3bfc0",
        "048e59cc3fb27d23e4f95d38b7d3f733fbf1f46061a73100ed12ade2e075ed46",
        "f6a0abc025e344a5ded842075026ade83e894fffe876d77075ad7a193cad2e71",
    ),
    "g2_m8_dt64": (
        "324cd730834aa7d2c1f8771e932bab131bb6f14398aad34bd5926e8c58517e7d",
        "2b90b1e043109f5c62e21300f000f3dd21d4a796fe58bbeb01cc61ccdee3bd34",
        "454b102e029a06c83bdcd6dc7bfe232cb52a7676e8142688733ff1a9b402c6e3",
    ),
    "g1_m5_eta0": (
        "8493631fbc11b4b610a7aaf95a208ef60d0256aa18d9e41b75b7ae01975bbe03",
        "a667f22c1b4fb400a1b17189469dfb22c450f79017d8a17c52b73d19a9f054ec",
        "234e3d67ab412665f0c82b11a87f8ee6115b04e9de304c9a47de14a130c08d3f",
    ),
    "g1_m8_fail": (
        "427823066024b8d5847eb3e605ddab15add4992b6038ca63ec7fc1f016788b98",
        "b6c8091d272ee1b4e332aac2bc27b669345daa26f2d76a1c34162f04b4ef73bd",
        "3655406e080fdb5752cd6b1b26d0990b517f8ed369ad73241ea2c69591797a23",
    ),
}


# evaluate_trace(trace) as (refresh, latency_up, latency_down, latency,
# warmup, converged): the metrics a sweep row reports from each trace
METRICS = {
    "c5_seed0": (4.0, 16.0, 16.0, 16.0, 18.15625, True),
    "c5_seed1": (4.0, 16.0, 16.0, 16.0, 9.40625, True),
    "c5_seed2": (4.0, 16.0, 16.0, 16.0, 17.46875, True),
    "c5_seed3": (4.0, 16.0, 16.0, 16.0, 19.78125, True),
    "c6": (4.0, 16.0, 16.0, 16.0, 413.0, True),
    # the survivors' partition sets the period, and the relay skips dead robot 6
    "c7": (6.0, 18.0, 18.0, 18.0, 329.03125, True),
    "noisy_0.1": (4.9375, 17.65625, 17.9375, 17.9375, 70.0, False),
    "noisy_0.2": (5.0, 18.09375, 18.21875, 18.21875, 70.0, False),
    "noisy_0.3": (5.5, 18.84375, 18.25, 18.84375, 70.0, False),
    "m12_noisy_0.2": (5.03125, 18.125, 18.375, 18.375, 70.0, False),
    "m12_detect_rejoin": (4.0, 16.0, 16.0, 16.0, 118.875, True),
    "eta0": (4.0, 16.0, 16.0, 16.0, 15.96875, True),
    "m12_parked_down_at_detect": (4.0, 16.0, 16.0, 16.0, 118.875, True),
    # the survivors' 8-robot partition, without dead robots 2 and 6
    "detect_drops_resume": (6.0, 18.0, 18.0, 18.0, 326.03125, True),
    "window_past_horizon": (4.875, 42.625, 50.78125, 50.78125, 70.0, False),
    "g1_m8_0.0": (9.625, 28.4375, 29.3125, 29.3125, 70.0, False),
    "g1_m8_0.2": (10.28125, 28.96875, 29.96875, 29.96875, 70.0, False),
    "g1_m8_0.5": (10.5, 29.53125, 29.53125, 29.53125, 70.0, False),
    "g1_m5_0.0": (17.4375, 25.0, 27.3125, 27.3125, 70.0, False),
    "g1_m5_0.2": (18.25, 25.40625, 27.71875, 27.71875, 70.0, False),
    "g1_m5_0.5": (19.25, 25.71875, 28.15625, 28.15625, 70.0, False),
    "g2_m8_0.0": (10.0625, 28.03125, 32.34375, 32.34375, 70.0, False),
    "g2_m8_0.2": (11.3125, 29.125, 34.4375, 34.4375, 70.0, False),
    "g2_m8_0.5": (11.4375, 29.625, 34.15625, 34.15625, 70.0, False),
    "g2_m5_0.0": (17.125, 25.96875, 25.40625, 25.96875, 70.0, False),
    "g2_m5_0.2": (17.84375, 27.125, 25.78125, 27.125, 70.0, False),
    "g2_m5_0.5": (18.09375, 27.84375, 25.78125, 27.84375, 70.0, False),
    "g2_m8_dt64": (10.359375, 28.09375, 32.640625, 32.640625, 70.0, False),
    "g1_m5_eta0": (18.40625, 25.09375, 28.96875, 28.96875, 70.0, False),
    "g1_m8_fail": (45.981315905075405, 59.125, 29.78125, 59.125, 100.0, False),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _general_chain(c: int) -> ChainRoadmap:
    gaps = np.random.default_rng(c).uniform(0.3, 2.0, 39)
    return ChainRoadmap([0.0] + np.cumsum(gaps).tolist())


@pytest.fixture(scope="module")
def instance():
    chains = {0: case_study_chain(30), 1: _general_chain(1), 2: _general_chain(2)}
    parts = {}

    def chain_and_partition(name):
        key = (int(name[1]) if name[0] == "g" else 0, ROBOTS.get(name, 10))
        if key not in parts:
            parts[key] = optimal_partition_bisect(chains[key[0]], key[1], 1e-9)[0]
        return chains[key[0]], parts[key]

    return chain_and_partition


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_matches_golden_digest(instance, name):
    chain, part = instance(name)
    trace = simulate(chain, part, CONFIGS[name])
    got = (
        _sha(trace.positions.tobytes()),
        _sha(trace.dirs.tobytes()),
        _sha(repr(trace.events).encode()),
    )
    assert got == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_metrics_match_golden_values(instance, name):
    chain, part = instance(name)
    tm = evaluate_trace(simulate(chain, part, CONFIGS[name]))
    got = (tm.refresh, tm.latency_up, tm.latency_down, tm.latency, tm.warmup, tm.converged)
    assert got == METRICS[name]
    assert all(type(v) is float for v in got[:5])
