"""Must-catch mutants: each row breaks one line of the library and names a check
that has to fail on the broken code.

A row is (module, function, exact source snippet, replacement, check). The test
takes the function's source, requires the snippet to occur exactly once, and
executes the edited source in the module's namespace. It then puts the mutant
in place of every binding of the original (the module's, a class's, and each
``from ... import`` copy in the test modules) and asserts that the check fails.
A snippet that no longer occurs exactly once fails the test, so the rows follow
the code: a rewrite of the function must rewrite its rows.
"""

import inspect
import sys
import textwrap

import pytest

import test_adversary
import test_recovery
import test_shamir
import test_tree_cipher
from zoned_ledger import adversary, ledger, recovery, shamir, tree_cipher

MUTANTS = [
    pytest.param(
        tree_cipher, "decrypt",
        "plain[root] = reduce(xor, codes, mask if flips >> root & 1 else 0)",
        "plain[root] = reduce(xor, codes, 0)",
        lambda _: test_tree_cipher.test_round_trip_random(3),
        id="decrypt_drops_the_root_flip"),
    pytest.param(
        tree_cipher, "encrypt",
        "codes[root] = reduce(xor, codes, values[root])",
        "codes[root] = reduce(xor, codes + [codes[root]], values[root])",
        lambda _: test_tree_cipher.test_round_trip_random(3),
        id="encrypt_folds_the_root_codeword_twice"),
    pytest.param(
        tree_cipher, "_key_of_index",
        "index, flips = divmod(index, 1 << m)",
        "index, flips = divmod(index, 1 << (m - 1))",
        lambda _: test_tree_cipher.test_every_index_is_a_distinct_key_of_enumerate_keys(3),
        id="decoder_splits_off_one_flip_bit_too_few"),
    pytest.param(
        tree_cipher, "sample_key",
        "randbelow_list(rng.getrandbits, key_space(m), 1)",
        "randbelow_list(rng.getrandbits, key_space(m) - 1, 1)",
        lambda _: test_tree_cipher.test_sample_key_decodes_one_randrange_index(2),
        id="sample_key_draws_below_one_key_too_few"),
    pytest.param(
        tree_cipher, "serialize_key",
        "if drawn is key:",
        "if drawn is not None:",
        lambda _: test_tree_cipher.test_serialize_key_of_a_drawn_key_matches_the_full_encoder(4),
        id="serialize_key_answers_any_key_from_the_drawn_index"),
    pytest.param(
        tree_cipher, "encrypt",
        "last_m != m or ",
        "",
        lambda _: test_tree_cipher.test_encrypt_of_a_block_it_split_before_matches_the_reference(),
        id="encrypt_reuses_a_split_made_at_another_m"),
    pytest.param(
        shamir, "_sample_abscissas",
        "randbelow_list(rng.getrandbits, bound - 1, n - len(drawn))",
        "randbelow_list(rng.getrandbits, bound - 1, n)",
        lambda _: test_shamir.test_bounded_abscissas_are_one_randrange_each_skipping_repeats(),
        id="abscissa_redraw_of_n_not_of_the_missing"),
    pytest.param(
        adversary, "availability_trial",
        "_fold(_fold(coins, m, 1, and_), w // m, m, or_)",
        "_fold(_fold(coins, m, 1, or_), w // m, m, and_)",
        lambda monkeypatch: test_adversary.test_availability_trial_matches_per_coin_reference(
            monkeypatch, 16, 4, 10),
        id="availability_or_over_members_before_and_over_zones"),
    pytest.param(
        adversary, "_active_coins",
        "if num >> p & 1:",
        "if not num >> p & 1:",
        lambda _: test_adversary.test_coin_is_active_with_probability_exactly_one_minus_rho(3, 3),
        id="coin_plane_comparison_branches_swapped"),
    pytest.param(
        recovery, "recover_block",
        "            elif shared is not None and recomputed[block, prev] != shared:"
        "  # hash_mismatch\n"
        "                alive.remove(g)\n",
        "",
        lambda _: test_recovery.test_single_zone_corruption_detected_and_eliminated(),
        id="recover_block_without_hash_mismatch"),
    pytest.param(
        ledger, "ChainState.cached_decode",
        "if entry is not None and entry[0] == recs:",
        "if entry is not None:",
        test_recovery.test_decode_memo_decodes_again_only_what_changed,
        id="cached_decode_hit_without_record_comparison"),
    pytest.param(
        adversary, "_rewrites",
        "corruption_oracle(sample_key(m, rng), range(c), {0})",
        "corruption_oracle(sample_key(m, rng), range(c - 1), {0})",
        lambda _: test_adversary.test_zone_corruption_edge_cases(),
        id="rewrites_corrupt_one_peer_too_few"),
]


def _install_mutant(monkeypatch, module, qualname, snippet, replacement):
    owner_name, _, name = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    original = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(snippet) == 1, f"{qualname}: the snippet no longer occurs exactly once"
    defined = {}
    exec(compile(source.replace(snippet, replacement), f"<mutant of {qualname}>", "exec"),
         vars(module), defined)
    mutant = defined[name]
    if owner_name:
        monkeypatch.setattr(owner, name, mutant)
        return
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__dict__", {}).get(name) is original:
            monkeypatch.setattr(loaded, name, mutant)


@pytest.mark.parametrize("module,qualname,snippet,replacement,check", MUTANTS)
def test_mutant_is_caught(monkeypatch, module, qualname, snippet, replacement, check):
    _install_mutant(monkeypatch, module, qualname, snippet, replacement)
    with pytest.raises(AssertionError):
        check(monkeypatch)
