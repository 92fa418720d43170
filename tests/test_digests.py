"""The seeded corpus of `golden/regen.py` still produces the digests on file."""

from __future__ import annotations

import copy

from golden import regen


def test_outputs_match_the_digests():
    moved = regen.differences(regen.load_digests(), regen.run_corpus())
    assert not moved, "outputs moved (see tests/golden/regen.py):\n" + "\n".join(moved)


def test_the_corpus_covers_every_kind_and_exit_code():
    digests = regen.load_digests()
    assert {entry.get("kind") for entry in digests.values()} >= {
        "NotIR", "Kind1", "Kind2", "Kind3"}
    assert {entry["exit"] for entry in digests.values()} == {0, 2, 3, 4, 5, 6}
    assert {entry.get("route") for entry in digests.values()} >= {"kernel_bump", "state_loop"}


def test_differences_tolerate_rounding_but_not_a_moved_node():
    digests = regen.load_digests()
    name = "certify-buck-loop"
    noisy = copy.deepcopy(digests)
    noisy[name]["approx"]["alpha"][0] *= 1 + 1e-12
    noisy[name]["approx"]["y_sup_diff"][0] = 1e-15
    assert regen.differences(digests, noisy) == []

    moved = copy.deepcopy(digests)
    moved[name]["window"][1] -= 1e-3
    assert regen.differences(digests, moved) == [f"{name}: window moved"]
    scaled = copy.deepcopy(digests)
    scaled[name]["approx"]["alpha"][0] *= 1 + 1e-5
    assert regen.differences(digests, scaled) == [f"{name}: approx moved"]


def test_a_rewrite_keeps_the_stored_entries_that_did_not_move():
    digests = regen.load_digests()
    name = "certify-buck-loop"
    noisy = copy.deepcopy(digests)
    noisy[name]["approx"]["alpha"][0] *= 1 + 1e-12
    kept = regen.merged(digests, noisy)
    assert kept == digests and kept[name] is digests[name]

    moved = copy.deepcopy(noisy)
    moved[name]["window"][1] -= 1e-3
    moved["a-new-case"] = moved.pop("certify-escape")
    written = regen.merged(digests, moved)
    assert written[name] is moved[name] and written["a-new-case"] is moved["a-new-case"]
    assert "certify-escape" not in written
    assert all(written[other] is digests[other]
               for other in written.keys() - {name, "a-new-case"})
