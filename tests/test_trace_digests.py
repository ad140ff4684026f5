"""Golden SHA-256 digests of case-study traces.

Traces are bit-exact functions of (chain, partition, config), so any change
to the stepper that alters one IEEE operation, one meeting or one event
shows up here.  The metrics ``evaluate_trace`` reports from the same traces
are pinned too, as plain floats compared with ``==``.  The first nine digests were recorded from the numpy-array kernel that
the list kernel replaced, and the last three from the list kernel before it
carried its boundary flags from step to step; the event times in them are
plain Python floats.
General chains are left out on purpose: their timer semantics are due to
change.
"""

from __future__ import annotations

import hashlib

import pytest

from patrolsim.partition import optimal_partition_bisect
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
}

# team size of each config; the others run ten robots
ROBOTS = {"m12_noisy_0.2": 12, "m12_detect_rejoin": 12}

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
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def case_study():
    chain = case_study_chain(30)
    parts = {m: optimal_partition_bisect(chain, m, 1e-9)[0] for m in (10, 12)}
    return lambda name: (chain, parts[ROBOTS.get(name, 10)])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_matches_golden_digest(case_study, name):
    chain, part = case_study(name)
    trace = simulate(chain, part, CONFIGS[name])
    got = (
        _sha(trace.positions.tobytes()),
        _sha(trace.dirs.tobytes()),
        _sha(repr(trace.events).encode()),
    )
    assert got == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_metrics_match_golden_values(case_study, name):
    chain, part = case_study(name)
    tm = evaluate_trace(simulate(chain, part, CONFIGS[name]))
    got = (tm.refresh, tm.latency_up, tm.latency_down, tm.latency, tm.warmup, tm.converged)
    assert got == METRICS[name]
    assert all(type(v) is float for v in got[:5])
