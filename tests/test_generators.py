"""Instance families: the skip-gap gadget, adaptive adversary, chains, samplers."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from auctionlab import (
    SKIP,
    Assign,
    InvalidParams,
    NonDeterministicPolicy,
    OnlinePolicy,
    PolicyViolation,
    adversary_vs_policy,
    execute,
    first_available,
    gap_instance,
    gap_witness_actions,
    greedy_2pm,
    max_matching,
    opt_2pm,
    perfect_matchable_2pm,
    r_min,
    random_2pm,
    random_2paa,
    ranking_1p,
    run_online,
    sample_chain,
    skip_all,
    unit_instance,
    validate,
)
from auctionlab.formats import instance_to_doc
from auctionlab.generators import _bernoulli_row, _uniform_row
from auctionlab.model import BudgetState

# ----------------------------------------------------------------------
# gap family


def test_gap_instance_shape():
    inst = gap_instance(2, 3)
    assert inst.m == 2 * (3 + 1)  # c drains+trigger, c*k harvests
    assert inst.bidder_ids == ("T", "L", "D", "H")
    assert validate(inst).ok


def test_gap_rejects_degenerate_parameters():
    with pytest.raises(InvalidParams):
        gap_instance(0, 3)
    with pytest.raises(InvalidParams):
        gap_instance(1, 1)


def test_gap_ratio_never_below_c():
    for c, k in ((1, 5), (2, 5), (3, 4)):
        assert r_min(gap_instance(c, k)) >= c


def test_gap_witness_beats_the_greedy_style_bound():
    for c, k in ((1, 5), (2, 4), (3, 3)):
        inst = gap_instance(c, k)
        trace = execute(inst, gap_witness_actions(c, k))
        assert trace.value == 1 + (c - 1) * k + c * k * (k - 1)
        assert trace.value > c * k * (k - 1)


def test_gap_witness_drains_l_to_k_minus_one():
    c, k = 2, 2
    inst = gap_instance(c, k)
    actions = gap_witness_actions(c, k)
    state = BudgetState.start(inst)
    for u, action in list(zip(inst.keywords, actions))[:c]:
        state.settle(inst.positive_bids(u), action)
    # after the trigger and all drains, L is one short of its bid
    assert state.remaining["L"] == k - 1


# ----------------------------------------------------------------------
# adaptive adversary


def test_adversary_caps_greedy_at_one():
    transcript = adversary_vs_policy(greedy_2pm(), 5)
    assert transcript.policy_value == 1
    assert transcript.switch_step == 1
    assert opt_2pm(transcript.instance).value == 5


def test_adversary_against_skip_all_never_switches():
    transcript = adversary_vs_policy(skip_all(), 4)
    assert transcript.policy_value == 0
    assert transcript.switch_step is None
    assert opt_2pm(transcript.instance).value == 4


def test_adversary_battery_dominates_every_deterministic_policy():
    for make in (greedy_2pm, skip_all, first_available):
        for m in (1, 2, 3, 4):
            transcript = adversary_vs_policy(make(), m)
            assert transcript.policy_value <= 1
            assert opt_2pm(transcript.instance).value == m


def test_adversary_transcript_is_a_real_instance():
    transcript = adversary_vs_policy(greedy_2pm(), 6)
    inst = transcript.instance
    assert validate(inst).ok
    assert all(len(inst.neighbors(u)) == 2 for u in inst.keywords)
    replay = execute(inst, transcript.trace.actions())
    assert replay.value == transcript.policy_value


def test_adversary_switches_on_the_first_positive_price_only():
    # an assignment of two bidders outside the row charges 0 and leaves the
    # game where a skip leaves it; the adversary switches on the payment after
    class OffRow(OnlinePolicy):
        deterministic = True

        def decide(self, step, keyword, bids, budgets):
            if step < 2:
                return Assign("a1", "b1") if step else SKIP
            a, b = bids
            return Assign(a, b) if budgets[a] else Assign(b, a)

    transcript = adversary_vs_policy(OffRow(), 5)
    assert transcript.trace.prices() == (0, 0, 1, 0, 0)
    assert transcript.switch_step == 3
    assert transcript.instance.neighbors("u4") == ("a3", "c4")
    assert opt_2pm(transcript.instance).value == 5


def test_adversary_rejects_randomized_and_matching_policies():
    with pytest.raises(NonDeterministicPolicy):
        adversary_vs_policy(ranking_1p(), 3)
    with pytest.raises(InvalidParams):
        adversary_vs_policy(greedy_2pm(), 0)


def test_adversary_and_run_online_refuse_the_same_non_action():
    class Rogue(OnlinePolicy):
        deterministic = True

        def decide(self, step, keyword, bids, budgets):
            return "skip"

    message = "^policy returned 'skip', not an action$"
    with pytest.raises(PolicyViolation, match=message):
        run_online(unit_instance({"u1": ["a", "b"]}), Rogue())
    with pytest.raises(PolicyViolation, match=message):
        adversary_vs_policy(Rogue(), 3)


# ----------------------------------------------------------------------
# chain distribution


def test_chain_single_keyword():
    sample = sample_chain(1, seed=0)
    assert sample.pairs == (("b1", "b2"),)
    assert sample.coins == ()
    assert run_online(sample.instance, greedy_2pm()).value == 1


def test_chain_witness_is_perfect():
    for seed in range(20):
        sample = sample_chain(7, seed=seed)
        trace = execute(sample.instance, sample.witness_actions)
        assert trace.value == sample.instance.m
        assert opt_2pm(sample.instance).value == sample.instance.m


def test_chain_structure_links_consecutive_keywords():
    sample = sample_chain(9, seed=3)
    for i in range(len(sample.pairs) - 1):
        inherited = sample.pairs[i + 1][0]
        assert inherited in sample.pairs[i]
        assert sample.pairs[i + 1][1] == f"b{i + 3}"
    for kw, pair in zip(sample.instance.keywords, sample.pairs):
        assert sample.instance.neighbors(kw) == tuple(sorted(pair, key=lambda v: int(v[1:])))


def test_chain_is_seed_reproducible():
    a = sample_chain(8, seed=11)
    b = sample_chain(8, seed=11)
    assert a == b
    c = sample_chain(8, seed=12)
    assert a.coins != c.coins or a.pairs != c.pairs


def test_chain_forced_coins_replay_a_seeded_draw():
    for seed in range(10):
        drawn = sample_chain(6, seed=seed)
        assert sample_chain(6, seed=seed, coins=drawn.coins) == drawn
    sample = sample_chain(4, coins=(1, 0, 1))
    assert sample.coins == (1, 0, 1)
    assert sample.pairs == (("b1", "b2"), ("b2", "b3"), ("b2", "b4"), ("b4", "b5"))
    for bad in ((0, 1), (0, 1, 1, 0), (0, 2, 1)):
        with pytest.raises(InvalidParams):
            sample_chain(4, coins=bad)


def test_chain_needs_a_keyword():
    with pytest.raises(InvalidParams):
        sample_chain(0, seed=0)


def test_chain_seed_is_keyword_only():
    # a second positional argument is refused, never taken as the seed
    with pytest.raises(TypeError):
        sample_chain(5, "restricted")


# ----------------------------------------------------------------------
# random samplers


def test_random_2pm_degree_padding():
    inst = random_2pm(6, 5, 0.0, seed=4)
    assert all(len(inst.neighbors(u)) == 2 for u in inst.keywords)
    dense = random_2pm(4, 5, 1.0, seed=4)
    assert all(len(dense.neighbors(u)) == 5 for u in dense.keywords)


def test_random_2pm_is_unit_and_reproducible():
    a = random_2pm(7, 6, 0.3, seed=21)
    assert a.is_unit()
    assert validate(a).ok
    assert a == random_2pm(7, 6, 0.3, seed=21)


def test_random_2pm_rejects_bad_parameters():
    with pytest.raises(InvalidParams):
        random_2pm(3, 1, 0.5, seed=0)
    with pytest.raises(InvalidParams):
        random_2pm(3, 4, 1.5, seed=0)


def test_random_2paa_honors_target_ratio():
    for target in (1, 2, 4):
        inst = random_2paa(6, 4, 9, target, seed=8)
        assert r_min(inst) >= target


def test_random_2paa_with_unit_bids_is_unit():
    inst = random_2paa(5, 4, 1, 1, seed=2)
    assert inst.is_unit()


def test_random_2paa_reproducible_and_checked():
    assert random_2paa(5, 3, 7, 2, seed=13) == random_2paa(5, 3, 7, 2, seed=13)
    with pytest.raises(InvalidParams):
        random_2paa(5, 0, 7, 2, seed=0)
    with pytest.raises(InvalidParams):
        random_2paa(5, 3, 7, 0, seed=0)


# SHA-256 of the newline-joined `instance_to_doc` JSON over seeds 0..N-1,
# taken when the samplers still drew one random() or randint() per cell (and,
# for perfect_matchable_2pm, when it padded rows of ids with its own loop); the
# row-at-a-time draws must reproduce every byte
GOLDEN_SAMPLES = {
    "random_2pm(2000, 2000, 0.002)": (
        lambda s: random_2pm(2000, 2000, 0.002, seed=s), 2,
        "eb89ddd1cee6800ee26cfb027588cb684c27545f28f35b08178b873123160a61",
    ),
    "random_2pm(12, 12, 0.3)": (
        lambda s: random_2pm(12, 12, 0.3, seed=s), 50,
        "87ccfca810ea219bdaeda20aebf8fa7dfdace70b943a7992e67d470d19d478ac",
    ),
    "random_2pm(40, 6, 0.05)": (  # pads most keywords
        lambda s: random_2pm(40, 6, 0.05, seed=s), 20,
        "fd790b2948653b83197bbec11c3dd64e7070c61757cbf1a52cdc2dbaa0c7ddb4",
    ),
    "random_2paa(300, 300, 9, 20)": (
        lambda s: random_2paa(300, 300, 9, 20, seed=s), 2,
        "9ddc2e63e5080f8e85f9b59089c53b5362b8e2b2672075d61ff6189dbefe20f3",
    ),
    "random_2paa(8, 5, 9, 2)": (
        lambda s: random_2paa(8, 5, 9, 2, seed=s), 50,
        "0f50adc503e13633d513479ec539a772c7529919644f08c6e19bc6678deef8ba",
    ),
    "random_2paa(6, 5, 0, 1)": (
        lambda s: random_2paa(6, 5, 0, 1, seed=s), 10,
        "f03eded541256f7dbe3b7b6b5ccf04444a5170c7cd0e068ad4795013e2728790",
    ),
    "random_2paa(6, 5, 2**40, 3)": (
        lambda s: random_2paa(6, 5, 2**40, 3, seed=s), 10,
        "641967b2eeeb4948b026a337412b68e780c37278c24a7a7070de59aff778bc9e",
    ),
    "perfect_matchable_2pm(8, 0.3)": (
        lambda s: perfect_matchable_2pm(8, 0.3, seed=s), 50,
        "14aa3e31ed8443f76dbe664829b00ca0476c51cdcbd8f4781bf48918c70d4994",
    ),
    "perfect_matchable_2pm(6, 0.0)": (  # pads every keyword
        lambda s: perfect_matchable_2pm(6, 0.0, seed=s), 20,
        "a90b60811c4897e9b9d2be714368edc9e7fa2b4e746c6ee26606ff0a98e4f08c",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SAMPLES))
def test_random_samplers_match_golden_digests(case):
    make, seeds, digest = GOLDEN_SAMPLES[case]
    docs = [json.dumps(instance_to_doc(make(s))) for s in range(seeds)]
    assert hashlib.sha256("\n".join(docs).encode()).hexdigest() == digest


# The bulk rows decode the interpreter's Mersenne Twister outputs themselves.
# These tests compare them with the per-draw calls on a twin generator, so a
# Python release that changes random(), randrange() or the word order of
# getrandbits() fails here, not in a distant pin.

_PROBABILITIES = (0, 1e-9, 2**-8, 0.002, 0.3, 2 / 3, 1 - 2**-53, 1, Fraction(1, 3))


@pytest.mark.parametrize("n", (1, 2, 12, 2000))
@pytest.mark.parametrize("p", _PROBABILITIES, ids=repr)
def test_bernoulli_row_takes_the_outputs_random_takes(p, n):
    bulk, twin = random.Random(n), random.Random(n)
    for _ in range(max(1, 4000 // n)):
        assert _bernoulli_row(bulk, n, p) == [j for j in range(n) if twin.random() < p]
        assert bulk.random() == twin.random()
    assert bulk.getstate() == twin.getstate()


def test_bernoulli_row_decides_a_draw_at_its_own_value():
    # p equal to a draw misses it, p above it by 2**-53 or 2**-54 hits it;
    # either threshold lies inside the draw's top byte, so the row must decode
    # all 53 bits of that draw
    for seed in range(40):
        twin = random.Random(seed)
        draws = [twin.random() for _ in range(12)]
        for x in draws[::4]:
            for p in (x, Fraction(x) + Fraction(1, 2**53), Fraction(x) + Fraction(1, 2**54)):
                expected = [j for j, y in enumerate(draws) if y < p]
                assert _bernoulli_row(random.Random(seed), 12, p) == expected


@pytest.mark.parametrize("count", (0, 1, 2, 12, 2000))
@pytest.mark.parametrize("width", (1, 2, 10, 2**31, 2**32, 2**32 + 1, 2**40))
def test_uniform_row_takes_the_outputs_randrange_takes(width, count):
    bulk, twin = random.Random(width), random.Random(width)
    for _ in range(3):
        assert _uniform_row(bulk, count, width) == [twin.randrange(width) for _ in range(count)]
        assert bulk.random() == twin.random()
    assert bulk.getstate() == twin.getstate()


def test_perfect_matchable_has_a_perfect_matching():
    for seed in range(15):
        inst = perfect_matchable_2pm(6, 0.3, seed=seed)
        assert max_matching(inst).size == 6
        assert all(len(inst.neighbors(u)) >= 2 for u in inst.keywords)


def test_perfect_matchable_bytes_do_not_depend_on_the_hash_seed():
    # string hashing is salted per process, so set iteration order is not
    # reproducible; the rendered instance must be
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        "from auctionlab import perfect_matchable_2pm\n"
        "from auctionlab.formats import dump_instance\n"
        "dump_instance(perfect_matchable_2pm(8, 0.3, seed=5), sys.stdout)\n"
    )
    outputs = []
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] and outputs.count(outputs[0]) == len(outputs)


def test_perfect_matchable_rejects_tiny_sides():
    with pytest.raises(InvalidParams):
        perfect_matchable_2pm(1, 0.3, seed=0)


def test_gap_witness_contains_expected_actions():
    actions = gap_witness_actions(2, 3)
    assert actions[0] == Assign("L", "T")
    assert actions[1] == Assign("L", "D")
    assert actions[2:] == [Assign("H", "L")] * 6
    assert SKIP not in actions
