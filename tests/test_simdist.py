import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from netrans import simdist
from netrans.errors import DegenerateInputError, LengthLimitError

ALPHABET = "ab1北京"


def subsequence_oracle(a: str, b: str) -> int:
    """Exponential-time LCS by enumerating every subsequence of the shorter string."""
    if len(a) > len(b):
        a, b = b, a

    def occurs_in(sub: tuple[str, ...], text: str) -> bool:
        pos = 0
        for ch in sub:
            pos = text.find(ch, pos) + 1
            if pos == 0:
                return False
        return True

    best = 0
    for size in range(len(a), 0, -1):
        for picked in itertools.combinations(a, size):
            if occurs_in(picked, b):
                return size
    return best


def dp_lcs_length(a: str, b: str) -> int:
    """O(len(a) * len(b)) dynamic-programming LCS, the reference for the bit-parallel kernel."""
    if len(a) > len(b):
        a, b = b, a
    m = len(a)
    if m == 0:
        return 0
    prev = [0] * (m + 1)
    curr = [0] * (m + 1)
    for cb in b:
        for i in range(1, m + 1):
            if a[i - 1] == cb:
                curr[i] = prev[i - 1] + 1
            else:
                ci, pi = curr[i - 1], prev[i]
                curr[i] = ci if ci >= pi else pi
        prev, curr = curr, prev
    return prev[m]


def dp_edit_distance_indel(a: str, b: str) -> int:
    """Indel edit distance by its own dynamic program, independent of any LCS."""
    if len(a) > len(b):
        a, b = b, a
    m = len(a)
    if m == 0:
        return len(b)
    prev = list(range(m + 1))
    curr = [0] * (m + 1)
    for j, cb in enumerate(b, start=1):
        curr[0] = j
        for i in range(1, m + 1):
            if a[i - 1] == cb:
                curr[i] = prev[i - 1]
            else:
                ci, pi = curr[i - 1], prev[i]
                curr[i] = (ci if ci <= pi else pi) + 1
        prev, curr = curr, prev
    return prev[m]


def random_pair(rng: random.Random, max_len: int, alphabet: str = ALPHABET) -> tuple[str, str]:
    return (
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len))),
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len))),
    )


@pytest.mark.parametrize(
    "a,b,lcs",
    [
        ("", "", 0),
        ("", "abc", 0),
        ("abc", "abc", 3),
        ("abc", "cba", 1),
        ("北京市", "北京", 2),
        ("aXbXc", "abc", 3),
    ],
)
def test_lcs_known_values(a, b, lcs):
    assert simdist.lcs_length(a, b) == lcs
    assert simdist.lcs_length(b, a) == lcs


def test_edit_distance_counts_indels_only():
    # turning "cat" into "cut": no substitution move exists, so delete + insert
    assert simdist.edit_distance_indel("cat", "cut") == 2
    assert simdist.edit_distance_indel("", "abc") == 3
    assert simdist.edit_distance_indel("abc", "") == 3
    assert simdist.edit_distance_indel("same", "same") == 0


def test_identity_ties_lcs_to_edit_distance():
    rng = random.Random(7)
    for _ in range(1000):
        a, b = random_pair(rng, 30)
        lcs = simdist.lcs_length(a, b)
        ed = simdist.edit_distance_indel(a, b)
        assert 2 * lcs + ed == len(a) + len(b)


def test_lcs_matches_exponential_oracle_on_short_strings():
    rng = random.Random(11)
    for _ in range(300):
        a, b = random_pair(rng, 8)
        assert simdist.lcs_length(a, b) == subsequence_oracle(a, b)


def test_kernel_matches_dp_oracle():
    # lengths past 64 make the bit vectors span several machine words
    rng = random.Random(13)
    for alphabet in ("abc", ALPHABET):
        for _ in range(150):
            a, b = random_pair(rng, 200, alphabet)
            assert simdist.lcs_length(a, b) == dp_lcs_length(a, b), (a, b)
            assert simdist.edit_distance_indel(a, b) == dp_edit_distance_indel(a, b), (a, b)


KERNEL_TEXT = st.text(alphabet="abc1北京", max_size=100)


@given(KERNEL_TEXT, KERNEL_TEXT)
def test_kernel_properties(a, b):
    lcs = simdist.lcs_length(a, b)
    assert lcs == dp_lcs_length(a, b)
    assert lcs == simdist.lcs_length(b, a)
    assert 0 <= lcs <= min(len(a), len(b))
    # the DP edit distance is computed without any LCS, so this checks the identity
    assert 2 * lcs + dp_edit_distance_indel(a, b) == len(a) + len(b)


def test_similarity_folds_case_and_normalization():
    assert simdist.similarity("Berlin", "berlin") == 1.0
    # e + combining acute folds to the precomposed character
    assert simdist.similarity("café", "café") == 1.0


def test_similarity_is_asymmetric():
    assert simdist.similarity("ab", "abcd") == 1.0
    assert simdist.similarity("abcd", "ab") == 0.5


def test_similarity_rejects_empty_candidate():
    with pytest.raises(DegenerateInputError):
        simdist.similarity("", "anything")
    simdist.similarity("x", "")  # empty target is merely score 0


def test_length_limit_is_enforced():
    long = "a" * (simdist.MAX_CHARS + 1)
    with pytest.raises(LengthLimitError):
        simdist.lcs_length(long, "a")
    with pytest.raises(LengthLimitError):
        simdist.edit_distance_indel("a", long)
    with pytest.raises(LengthLimitError):
        simdist.similarity(long, "a")


def test_backend_reports_active_kernel():
    assert simdist.BACKEND == "python"
