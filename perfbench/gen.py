"""Seeded raw inputs for the benchmark's workloads.

Everything here is plain data (ints, strings, tuples) drawn from a
``random.Random`` seeded by the workload name and ``--seed``; nothing
imports trefoil, so input generation stays outside the timed set-up.

A workload's inputs are shared data (the long-trefoil pool) plus a deck:
a list of ``(kind, props, raw)`` items that the run walks in order,
cycling when it reaches the end.  ``props``
holds the input properties the run report histograms.  Properties that
drive cost are stratified: the deck draws one value per stratum of a
log-uniform range and visits the strata in bit-reversed order, so any
prefix of the deck covers the range evenly.  That keeps run-to-run spread
low when a time-bounded run stops part-way through the deck.
"""

from __future__ import annotations

import random
from math import gcd

WORKLOADS = ("certify-small", "words-long", "fracs-big", "long-trefoil")

# Items of each kind per round of certify-small.  Chosen from measured busy
# time so that no kind takes most of the run; the run report states each
# kind's share.
CERTIFY_ROUND = (
    ("frac", 200), ("cf_frac", 100), ("cf_terms", 100), ("word", 100),
    ("quandle", 4), ("nonrack", 1), ("orbit", 1), ("cli", 4),
)
CERTIFY_ROUNDS = 32
FRAC_BOUND = 10**6
CF_BOUND = 200
SMALL_WORD_MAX = 30
QUANDLE_MAX_ORDER = 64
ORBIT_BOUND = 30
ORBIT_TARGETS = 16

WORDS_DECK = 256
WORD_LEN_RANGE = (2**5, 2**13)

FRACS_DECK = 256
BITS_RANGE = (2**10, 2**15)

# Items of each kind per round of long-trefoil.
TREFOIL_ROUND = (
    ("triple", 16), ("cover", 16), ("fiber", 2), ("garside", 8), ("chain", 2),
)
TREFOIL_ROUNDS = 128
POOL_SIZE = 96
POOL_MAX_LEN = 12
COVER_MAX_K = 2
FIBER_K_RANGE = (1, 256)
CHAIN_DEPTHS = (2, 8)


# The run stops only at a multiple of this many deck items: a whole round,
# or a block of strata spread evenly over the range.
BLOCK = {
    "certify-small": sum(n for _, n in CERTIFY_ROUND),
    "words-long": 8,
    "fracs-big": 8,
    "long-trefoil": sum(n for _, n in TREFOIL_ROUND),
}


def spread_order(n: int) -> list[int]:
    """0..n-1 in bit-reversed order (n a power of two): every prefix of
    length 2^j hits each of 2^j equal blocks once."""
    bits = n.bit_length() - 1
    if n != 1 << bits:
        raise ValueError(f"deck size {n} is not a power of two")
    return [int(format(i, f"0{bits}b")[::-1] or "0", 2) for i in range(n)]


def log_strata(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """One log-uniform draw from each of n equal strata of [lo, hi], in
    bit-reversed stratum order."""
    ratio = hi / lo
    return [min(hi, max(lo, round(lo * ratio ** ((s + rng.random()) / n))))
            for s in spread_order(n)]


def make_inputs(workload: str, seed: int) -> tuple[dict, list[tuple[str, dict, dict]]]:
    """The workload's shared raw data and its deck, determined by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    return _DECKS[workload](rng)


# ---------------------------------------------------------------------------
# certify-small
# ---------------------------------------------------------------------------

def _frac(rng: random.Random, bound: int) -> tuple[int, int]:
    while True:
        p, q = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (p, q) != (0, 0):
            return p, q


def _canonical_frac(rng: random.Random, bound: int) -> tuple[int, int]:
    """A reduced p/q with q >= 1 and |p|, q <= bound."""
    while True:
        p, q = rng.randint(-bound, bound), rng.randint(1, bound)
        if gcd(p, q) == 1:
            return p, q


def _small_word(rng: random.Random, max_len: int) -> str:
    return rng.choice("ab") + "".join(rng.choices("abAB", k=rng.randint(0, max_len - 1)))


def _cf_terms(rng: random.Random) -> tuple[int, ...]:
    n = rng.randint(1, 8)
    if n == 1:
        return (rng.randint(-12, 12),)
    middle = [rng.randint(1, 12) for _ in range(n - 2)]
    return (rng.randint(-12, 12), *middle, rng.randint(2, 12))


_GROUPS = (
    [(("cyclic", n), n) for n in range(1, 25)]
    + [(("dihedral", n), 2 * n) for n in range(3, 13)]
    + [(("symmetric", 3), 6), (("symmetric", 4), 24), (("klein",), 4)]
)


def _same_octave(order: int, target: int) -> bool:
    return order.bit_length() == target.bit_length()


def _quandle_spec(rng: random.Random, family: str, target: int) -> tuple:
    """A quandle of the family with order in the octave of target (conj and
    core are capped by the largest group, 24)."""
    if family == "dihedral":
        return ("dihedral", target)
    if family == "alexander":
        shapes = [(m, d) for m in range(2, 65) for d in range(1, 7)
                  if m ** d <= QUANDLE_MAX_ORDER and _same_octave(m ** d, target)]
        m, d = rng.choice(shapes)
        # monic h of degree d with a unit constant term, so t is invertible
        c0 = rng.choice([c for c in range(1, m) if gcd(c, m) == 1] or [1])
        return ("alexander", m, (c0, *(rng.randrange(m) for _ in range(d - 1)), 1))
    target = min(target, 24)
    groups = [g for g, order in _GROUPS if _same_octave(order, target)]
    return (family, rng.choice(groups))


def _quandle_order(spec: tuple) -> int:
    if spec[0] == "dihedral":
        return spec[1]
    if spec[0] == "alexander":
        return spec[1] ** (len(spec[2]) - 1)
    return dict(_GROUPS)[spec[1]]


def _cli_argv(rng: random.Random) -> dict:
    """Short CLI arguments with their raw values; about one in six is a
    domain error, which must exit 2."""
    cmd = rng.choice(("op", "pow", "matrix", "normalize", "word2frac",
                      "frac2word", "cf expand", "cf eval", "error"))
    x, y = _canonical_frac(rng, 1000), _canonical_frac(rng, 1000)
    text = f"{x[0]}/{x[1]}"
    if cmd == "op":
        return {"cmd": cmd, "x": x, "y": y, "argv": ["op", text, f"{y[0]}/{y[1]}"]}
    if cmd == "pow":
        k = rng.randint(-50, 50)
        return {"cmd": cmd, "x": x, "y": y, "k": k,
                "argv": ["pow", text, f"{y[0]}/{y[1]}", str(k)]}
    if cmd == "matrix":
        return {"cmd": cmd, "x": x, "argv": ["matrix", text]}
    if cmd in ("normalize", "word2frac"):
        word = _small_word(rng, 20)
        return {"cmd": cmd, "word": word, "argv": [cmd, word]}
    if cmd == "frac2word":
        return {"cmd": cmd, "x": x, "argv": ["frac2word", text]}
    if cmd == "cf expand":
        return {"cmd": cmd, "x": x, "argv": ["cf", "expand", text]}
    if cmd == "cf eval":
        terms = _cf_terms(rng)
        head, tail = terms[0], terms[1:]
        cf = f"[{head};{','.join(map(str, tail))}]" if tail else f"[{head}]"
        return {"cmd": cmd, "terms": terms, "argv": ["cf", "eval", cf]}
    argv = rng.choice((["cf", "expand", "1/0"], ["frac2word", "0/0"],
                       ["cf", "eval", "[3;1]"], ["op", "0/0", text]))
    return {"cmd": cmd, "argv": argv}


def _certify_small(rng: random.Random) -> tuple[dict, list]:
    # each round checks one quandle of each family, with orders stratified
    # per family across the rounds; the top octave is clamped to order 64,
    # so that the largest order is checked in about one round in six
    families = ("dihedral", "alexander", "conj", "core")
    orders = {f: [min(n, QUANDLE_MAX_ORDER) for n in
                  log_strata(rng, CERTIFY_ROUNDS, 2, 2 * QUANDLE_MAX_ORDER)]
              for f in families}
    deck = []
    for r in range(CERTIFY_ROUNDS):
        specs = iter([_quandle_spec(rng, f, orders[f][r]) for f in families])
        items = []
        for kind, count in CERTIFY_ROUND:
            for _ in range(count):
                if kind == "frac":
                    raw = {"x": _frac(rng, FRAC_BOUND), "y": _frac(rng, FRAC_BOUND),
                           "z": _frac(rng, FRAC_BOUND)}
                    props = {"bits": max(abs(v).bit_length() for pair in raw.values() for v in pair)}
                elif kind == "cf_frac":
                    raw = {"x": (rng.randint(-CF_BOUND, CF_BOUND), rng.randint(1, CF_BOUND))}
                    props = {"bits": max(abs(v).bit_length() for v in raw["x"])}
                elif kind == "cf_terms":
                    raw = {"terms": _cf_terms(rng)}
                    props = {"cf_terms": len(raw["terms"])}
                elif kind == "word":
                    raw = {"word": _small_word(rng, SMALL_WORD_MAX)}
                    props = {"word_len": len(raw["word"])}
                elif kind == "quandle":
                    spec = next(specs)
                    raw = {"spec": spec}
                    props = {"order": _quandle_order(spec)}
                elif kind == "nonrack":
                    # <x, y> = xy on (Z/2)^1: the paper's rack claim, refuted
                    raw = {"spec": ("transvection", 2, ((1,),))}
                    props = {"order": 2}
                elif kind == "orbit":
                    raw = {"bound": ORBIT_BOUND,
                           "targets": [_canonical_frac(rng, ORBIT_BOUND) for _ in range(ORBIT_TARGETS)]}
                    props = {}
                else:
                    raw = _cli_argv(rng)
                    props = {}
                items.append((kind, props, raw))
        rng.shuffle(items)
        deck.extend(items)
    return {}, deck


# ---------------------------------------------------------------------------
# words-long and fracs-big
# ---------------------------------------------------------------------------

def _words_long(rng: random.Random) -> tuple[dict, list]:
    deck = []
    for n in log_strata(rng, WORDS_DECK, *WORD_LEN_RANGE):
        word = rng.choice("ab") + "".join(rng.choices("abAB", k=n - 1))
        deck.append(("word", {"word_len": n}, {"word": word}))
    return {}, deck


def _primitive(rng: random.Random, bits: int) -> tuple[int, int]:
    """A reduced p/q with q > 0 and both of exactly the given bit size."""
    top = 1 << (bits - 1)
    while True:
        p, q = rng.getrandbits(bits - 1) | top, rng.getrandbits(bits - 1) | top
        if gcd(p, q) == 1:
            return (p if rng.random() < 0.5 else -p), q


def _fracs_big(rng: random.Random) -> tuple[dict, list]:
    deck = []
    for bits in log_strata(rng, FRACS_DECK, *BITS_RANGE):
        k = rng.getrandbits(bits - 1) | (1 << (bits - 1))
        raw = {"x": _primitive(rng, bits), "y": _primitive(rng, bits),
               "k": k if rng.random() < 0.5 else -k}
        deck.append(("big", {"bits": bits}, raw))
    return {}, deck


# ---------------------------------------------------------------------------
# long-trefoil
# ---------------------------------------------------------------------------

def _zero_braid(rng: random.Random, length: int) -> str:
    """A braid word of even length with exponent sum zero."""
    signs = [1] * (length // 2) + [-1] * (length // 2)
    rng.shuffle(signs)
    return "".join(rng.choice("ab") if s > 0 else rng.choice("AB") for s in signs)


def _long_trefoil(rng: random.Random) -> tuple[dict, list]:
    # pool words of every even length up to the maximum in equal shares, so
    # that the pool's cost, which every item pays, does not hang on the seed
    steps = POOL_MAX_LEN // 2 + 1
    pool = [_zero_braid(rng, 2 * (i * steps // POOL_SIZE)) for i in range(POOL_SIZE)]
    n_fiber = TREFOIL_ROUNDS * dict(TREFOIL_ROUND)["fiber"]
    n_chain = TREFOIL_ROUNDS * dict(TREFOIL_ROUND)["chain"]
    fiber_ks = iter(log_strata(rng, n_fiber, *FIBER_K_RANGE))
    lo, hi = CHAIN_DEPTHS
    depths = iter(lo + (hi - lo + 1) * s // n_chain for s in spread_order(n_chain))

    def pick() -> int:
        return rng.randrange(POOL_SIZE)

    deck = []
    for _ in range(TREFOIL_ROUNDS):
        items = []
        for kind, count in TREFOIL_ROUND:
            for _ in range(count):
                if kind == "triple":
                    raw = {"ijk": (pick(), pick(), pick())}
                    props = {"braid_len": max(len(pool[i]) for i in raw["ijk"])}
                elif kind == "cover":
                    raw = {"anchor": pick(), "base": pick(),
                           "k": rng.randint(-COVER_MAX_K, COVER_MAX_K)}
                    props = {"cover_k": abs(raw["k"])}
                elif kind == "fiber":
                    k = next(fiber_ks)
                    raw = {"i": pick(), "k": k if rng.random() < 0.5 else -k}
                    props = {"k": k}
                elif kind == "garside":
                    equal = rng.random() < 0.5
                    # aba = bab always; aB = Ba never (it would make a, b commute)
                    tails = ("aba", "bab") if equal else ("aB", "Ba")
                    stem = pool[pick()] + pool[pick()]
                    raw = {"u": stem + tails[0], "v": stem + tails[1], "equal": equal}
                    props = {"braid_len": len(raw["u"])}
                else:
                    depth = next(depths)
                    raw = {"start": pick(), "steps": [pick() for _ in range(depth)]}
                    props = {"depth": depth}
                items.append((kind, props, raw))
        rng.shuffle(items)
        deck.extend(items)
    return {"pool": pool}, deck


_DECKS = {
    "certify-small": _certify_small,
    "words-long": _words_long,
    "fracs-big": _fracs_big,
    "long-trefoil": _long_trefoil,
}
