"""Edit distance, longest common subsequence, and similarity scoring.

The edit distance here is *indel-only* (insertions and deletions, no
substitutions), which ties the two quantities together exactly:

    lcs_length(a, b) == (len(a) + len(b) - edit_distance_indel(a, b)) / 2

A Levenshtein distance with substitutions would break that identity, and
edit_distance_indel is computed from it.

The LCS length comes from the bit-parallel algorithm of Allison & Dix
(1986, IPL 23:305) in the formulation of Hyyrö (2004, "Bit-parallel
LCS-length computation revisited"): one Python int holds a bit vector over
the shorter string, and each character of the longer one updates it with
an add, a subtract and three bitwise operations, so a pair costs
O(len(longer)) big-int steps instead of the O(len(a) * len(b)) table of
the dynamic program.

The similarity of a translation candidate ``c`` against a text fragment
``t`` is lcs(c, t) / len(c), an asymmetric score in [0, 1].  Candidate and
fragment are NFC-normalized and lowercased before comparison, so
"Berlin" and "berlin" match; lcs_length and edit_distance_indel themselves
compare raw scalar sequences.

After each character of the scanned string the bit vector already holds
the LCS against the prefix scanned so far, and folding a space-joined text
equals joining its folded tokens.  ``align.match_span`` uses both to score
every n-gram that starts at one token in a single pass with the same kernel
steps, and packs all of a span's candidates into one bit vector, each in
its own segment with a zero guard bit above it (Hyyrö, Fredriksson and
Navarro 2005, "Increased bit-parallelism for approximate and multiple
string matching"), so one pass serves every candidate.  ``similarity``
here is the one-off form (``netrans sim``, the tests).

``BACKEND`` names this kernel.  It stays a constant because benchmark
results record it and refuse to compare runs made with different kernels.
"""

from __future__ import annotations

import unicodedata

from .errors import DegenerateInputError, LengthLimitError

# The only kernel; benchmark results record it and refuse to compare across values.
BACKEND = "python"

MAX_CHARS = 1024


def _check_lengths(a: str, b: str) -> None:
    if len(a) > MAX_CHARS or len(b) > MAX_CHARS:
        raise LengthLimitError(
            f"input of {max(len(a), len(b))} chars exceeds the {MAX_CHARS}-char limit"
        )


def char_masks(a: str) -> dict[str, int]:
    """Bit i of masks[ch] is set where a[i] == ch: the kernel's match vectors."""
    masks: dict[str, int] = {}
    for i, ch in enumerate(a):
        masks[ch] = masks.get(ch, 0) | (1 << i)
    return masks


def lcs_length(a: str, b: str) -> int:
    """Length of the longest common subsequence of two strings."""
    _check_lengths(a, b)
    if len(a) > len(b):
        a, b = b, a
    masks = char_masks(a)
    full = (1 << len(a)) - 1
    # A cleared bit i of v marks a step up of the DP row at column i, so the
    # cleared bits sum to the LCS.
    v = full
    for ch in b:
        u = v & masks.get(ch, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def edit_distance_indel(a: str, b: str) -> int:
    """Minimal number of single-character insertions and deletions turning a into b."""
    return len(a) + len(b) - 2 * lcs_length(a, b)


def fold(s: str) -> str:
    """Comparison form used for similarity: NFC normalization + lowercase."""
    return unicodedata.normalize("NFC", s).lower()


def similarity(candidate: str, target: str) -> float:
    """lcs(candidate, target) / len(candidate) on folded strings.

    Asymmetric by design: the candidate is the translated entity, the
    target is the corpus fragment it is checked against.
    """
    c = fold(candidate)
    t = fold(target)
    if not c:
        raise DegenerateInputError("similarity candidate must be non-empty")
    return lcs_length(c, t) / len(c)
