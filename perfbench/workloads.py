"""Seeded request streams for the three benchmark workloads.

A stream is an endless sequence of rounds in a seed-shuffled order.  Every
round holds the same requests as far as their cost goes: each class runs
once per variant of the parameters that set how much work it does (p, t,
rank split, reps), and a run measures whole rounds, so every run carries the
same mix of cheap and expensive requests.  The rest of each request (letters,
words, variances, beta terms, polynomials, seeds, coding) is drawn from the
seed.  Streams depend only on the seed: nothing here imports rdcss.

A request is a plain dict:
  id, round     sequence number and the round it belongs to
  cls           request class
  cli | call    argv for ``rdcss.cli.main``, or a library call description
  expect        the exit code the CLI contract requires (0 for library calls)
  deadline      seconds before the request is stopped and counted failed
  check         name and parameters of the output check
  known_defect  present when the request fails at the time of writing; the
                README lists each one
Argv items starting with ``@`` are paths resolved at run time: ``@out`` is the
request's own output directory and ``@fixture/NAME`` a set-up file.
"""

from __future__ import annotations

import random

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWX"

# Per-request deadlines in seconds, by class.
DEADLINES = {
    "reference": 5.0,
    "search": 10.0,
    "verify": 20.0,
    "infeasible": 5.0,
    # A budget of at most ten candidates should answer as fast as a refusal
    # (a few ms); the deadline leaves 30 times that.
    "budget": 0.1,
    "simulate": 30.0,
    "spread": 30.0,
    "partial": 20.0,
    "mixed": 20.0,
    "feasible": 20.0,
    "rank": 5.0,
    "exists": 5.0,
    "invalid": 5.0,
}

PAPER_SPLIT_LOT = ["--stage", "ABC,BDE,CEF:exact", "--stage", "A,B", "--stage", "D"]
PAPER_OVERSIZED = ["--stage", "A,B,C,D:exact", "--stage", "E,F", "--stage", "G"]
PAPER_FRACTION = [
    "--factors", "8", "--basic", "6", "--t", "2",
    "--stage", "A,B", "--stage", "C,D", "--stage", "E,F", "--stage", "G,H",
]

# Designs that simulate requests run on, built during set-up: name -> argv.
SIMULATE_DESIGNS = {
    "p6": ["construct", "--p", "6", *PAPER_SPLIT_LOT],
    "p10": ["construct", "--p", "10", "--t", "2",
            "--stage", "A,B", "--stage", "C,D", "--stage", "E,F",
            "--stage", "G,H", "--stage", "I,J"],
    "p12": ["construct", "--p", "12", "--t", "3",
            "--stage", "A,B,C", "--stage", "D,E,F", "--stage", "G,H,I",
            "--stage", "J,K,L"],
}
# Reps of the simulate requests in one round: every design runs once at each
# count.  The fewest give the variance check at least 3 x 7 = 21 degrees of
# freedom in the smallest group (a rank-2 stage of the p = 10 design).
SIMULATE_REPS = (8, 16, 32)

# Rank-candidate files written during set-up: (factors r, added factors s).
RANK_FILES = ((8, 2), (12, 3), (16, 4), (20, 5), (24, 6), (24, 8))
RANK_SPECS_PER_FILE = 6
# A spec whose alias repeats a letter; the CLI contract says exit 2.
BAD_ALIAS_SPEC = [{"factors": 7, "basic": 6, "generators": {"G": "AAB"}}]


def gf2_basis(masks) -> list[int]:
    """Greedy GF(2) basis of the masks, as reduced pivot rows."""
    pivots: dict[int, int] = {}
    for v in masks:
        while v and v.bit_length() - 1 in pivots:
            v ^= pivots[v.bit_length() - 1]
        if v:
            pivots[v.bit_length() - 1] = v
    return list(pivots.values())


def word(mask: int) -> str:
    return "".join(LETTERS[j] for j in range(mask.bit_length()) if mask >> j & 1)


def _stages(letters, ranks) -> list[str]:
    argv, i = [], 0
    for r in ranks:
        argv += ["--stage", ",".join(letters[i:i + r])]
        i += r
    return argv


def _independent_masks(rng: random.Random, p: int, k: int) -> list[int]:
    while True:
        masks = [rng.randrange(1, 1 << p) for _ in range(k)]
        if len(gf2_basis(masks)) == k:
            return masks


def _random_primitive(rng: random.Random, p: int) -> int:
    """A primitive polynomial of degree p, as a bit mask, found by trial."""
    order = (1 << p) - 1
    primes, n, q = [], order, 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)

    def x_power(e: int, poly: int) -> int:
        result, base = 1, 2
        while e:
            if e & 1:
                result = _mulmod(result, base, poly, p)
            base = _mulmod(base, base, poly, p)
            e >>= 1
        return result

    while True:
        poly = (1 << p) | rng.randrange(1, 1 << p) | 1
        if x_power(order, poly) == 1 and all(
            x_power(order // q, poly) != 1 for q in primes
        ):
            return poly


def _mulmod(a: int, b: int, poly: int, p: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> p & 1:
            a ^= poly
    return acc


class Stream:
    """Request generator state shared by the classes of one workload."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._next_id = 0

    def request(self, cls: str, check: tuple[str, dict], *, cli=None, call=None,
                expect: int = 0, known_defect: str | None = None) -> dict:
        req = {
            "cls": cls,
            "expect": expect,
            "deadline": DEADLINES[cls],
            "check": [check[0], check[1]],
        }
        if cli is not None:
            req["cli"] = cli
        else:
            req["call"] = call
        if known_defect is not None:
            req["known_defect"] = known_defect
        return req

    def rounds(self, classes):
        """Yield requests forever, one round at a time.

        ``classes`` pairs a request maker with its variants: every round calls
        each maker once per variant.
        """
        number = 0
        while True:
            batch = [make(v) for make, variants in classes for v in variants]
            self.rng.shuffle(batch)
            for req in batch:
                # Ids follow execution order, so a stream reads in sequence.
                req["id"] = self._next_id
                req["round"] = number
                self._next_id += 1
                yield req
            number += 1


# ---------------------------------------------------------------- construct


def construct_stream(seed: int):
    s = Stream(seed)
    rng = s.rng

    def out_flags():
        return ["--seed", str(rng.randrange(1 << 16)),
                "--coding", rng.choice(["01", "pm1"]), "--out-dir", "@out"]

    def reference(kind):
        if kind == "split_lot":
            return s.request("reference", ("design", {"stage_sizes": [7, 7, 7]}),
                             cli=["construct", "--p", "6", *PAPER_SPLIT_LOT, *out_flags()])
        if kind == "split_lot_search":
            return s.request("reference", ("candidates", {"count": 148}),
                             cli=["transform", "--p", "6", *PAPER_SPLIT_LOT])
        if kind == "oversized":
            return s.request("reference", ("design", {"stage_sizes": [15, 7, 7]}),
                             cli=["construct", "--p", "7", *PAPER_OVERSIZED, *out_flags()])
        if kind == "oversized_search":
            return s.request("reference", ("candidates", {"count": 2209}),
                             cli=["transform", "--p", "7", *PAPER_OVERSIZED])
        return s.request("reference", ("design", {"stage_sizes": [15, 15, 15, 15],
                                                  "fraction": "paper"}),
                         cli=["construct", *PAPER_FRACTION, *out_flags()])

    def search(family):
        p, t, ranks = family
        letters = rng.sample(LETTERS[:p], sum(ranks))
        return s.request("search", ("design", {}),
                         cli=["construct", "--p", str(p), "--t", str(t),
                              *_stages(letters, ranks), *out_flags()])

    def verify(ranks):
        letters = rng.sample(LETTERS[:12], 12)
        return s.request("verify", ("design", {}),
                         cli=["construct", "--p", "12", "--t", str(ranks[0]),
                              *_stages(letters, ranks), *out_flags()])

    def infeasible(_):
        p = rng.randint(5, 9)
        t = p // 2 + 1
        ranks = (rng.randint(1, 2), rng.randint(1, 2))
        letters = rng.sample(LETTERS[:p], sum(ranks))
        return s.request("infeasible", ("refused", {"stderr": "existence rules"}),
                         cli=["construct", "--p", str(p), "--t", str(t),
                              *_stages(letters, ranks), *out_flags()],
                         expect=3)

    def budget(_):
        letters = rng.sample(LETTERS[:10], 4)
        return s.request("budget", ("refused", {"stderr": "budget"}),
                         cli=["construct", "--p", "10", "--t", "5",
                              *_stages(letters, (2, 2)),
                              "--budget", str(rng.randint(1, 10)), *out_flags()],
                         expect=4, known_defect="budget-unbounded-completion")

    return s.rounds([
        (reference, ["split_lot", "split_lot_search", "oversized", "oversized_search",
                     "fraction"]),
        # One search family per p.
        (search, [(8, 4, (2, 2)), (9, 3, (2, 2))]),
        (verify, [(3, 3, 3, 3)]),
        (infeasible, [None]),
        (budget, [None]),
    ])


# ---------------------------------------------------------------- simulate


def simulate_stream(seed: int):
    s = Stream(seed)
    rng = s.rng

    def simulate(variant):
        name, reps = variant
        p = int(name[1:])
        argv = ["simulate", "--design", f"@fixture/{name}/design.json",
                "--sigma2", repr(round(rng.uniform(0.5, 2.0), 3))]
        for _ in range(SIMULATE_DESIGNS[name].count("--stage")):
            argv += ["--stage-var", repr(round(rng.uniform(0.0, 6.0), 3))]
        for mask in rng.sample(range(1, 1 << p), rng.randint(0, 3)):
            argv += ["--beta", f"{word(mask)}={round(rng.uniform(-3.0, 3.0), 3)!r}"]
        argv += ["--reps", str(reps), "--seed", str(rng.randrange(1 << 31)),
                 "--out-dir", "@out"]
        return s.request("simulate", ("simulate", {"design": name}), cli=argv)

    return s.rounds([(simulate, [(name, reps) for name in SIMULATE_DESIGNS
                                 for reps in SIMULATE_REPS])])


# ---------------------------------------------------------------- analyze


def rank_candidate_files(seed: int) -> dict[str, list[dict]]:
    """Fraction specs for the rank requests, one file per (r, s) size."""
    rng = random.Random(seed ^ 0x5EED)
    files = {}
    for i, (r, s_added) in enumerate(RANK_FILES):
        u = r - s_added
        specs = []
        while len(specs) < RANK_SPECS_PER_FILE:
            aliases = set()
            while len(aliases) < s_added:
                mask = rng.randrange(1, 1 << u)
                if mask.bit_count() >= 2:
                    aliases.add(mask)
            gens = {LETTERS[u + j]: word(m) for j, m in enumerate(sorted(aliases))}
            spec = {"factors": r, "basic": u, "generators": gens}
            if spec not in specs:
                specs.append(spec)
        files[f"candidates{i}.json"] = specs
    files["bad_alias.json"] = BAD_ALIAS_SPEC
    return files


def analyze_stream(seed: int):
    s = Stream(seed)
    rng = s.rng

    def spread(variant):
        p, t = variant
        argv = ["spread", "--p", str(p), "--t", str(t)]
        if rng.random() < 0.5:
            argv += ["--poly", hex(_random_primitive(rng, p))]
        return s.request("spread", ("spread_grid", {"p": p, "t": t, "kind": "full"}),
                         cli=argv)

    def partial(t):
        return s.request("partial", ("spread_grid", {"p": 11, "t": t, "kind": "partial"}),
                         cli=["spread", "--p", "11", "--t", str(t), "--partial"])

    def mixed(variant):
        p, t1 = variant
        return s.request("mixed", ("mixed", {"p": p, "t1": t1}),
                         call={"fn": "mixed_spread", "p": p, "t1": t1})

    def feasible(split):
        if split == "paper":
            masks = [0b000111, 0b011010, 0b110100, 0b000001, 0b000010, 0b001000]
            split = (3, 2, 1)
        else:
            masks = _independent_masks(rng, 6, 6)
        return s.request("feasible", ("feasible", {"split": list(split)}),
                         call={"fn": "count_feasible", "split": list(split),
                               "masks": masks})

    def rank(i):
        return s.request("rank", ("rank", {"file": f"candidates{i}.json"}),
                         cli=["rank", "--candidates", f"@fixture/candidates{i}.json",
                              "--criterion", rng.choice(["wlp-aberration", "clear-count"])])

    def exists(variant):
        mode, (p_min, p_max) = variant
        p = rng.randint(p_min, p_max)
        if mode == "t":
            argv = ["exists", "--p", str(p), "--t", str(rng.randint(1, p - 1))]
        elif mode == "stages":
            dims = [rng.randint(1, p - 1) for _ in range(rng.randint(2, 4))]
            argv = ["exists", "--p", str(p), "--stages", ",".join(map(str, dims))]
        else:
            t1 = rng.randint(p // 2 + 1, p - 1)
            dims = [rng.randint(1, p - t1) for _ in range(rng.randint(1, 3))]
            argv = ["exists", "--p", str(p), "--t1", str(t1),
                    "--t-list", ",".join(map(str, dims))]
        return s.request("exists", ("exists", {}), cli=argv)

    def invalid(kind):
        p = rng.randint(5, 12)
        defect = None
        if kind == "t0":
            argv = ["spread", "--p", str(p), "--t", "0"]
            defect = "spread-t0-traceback"
        elif kind == "nondividing":
            t = rng.choice([t for t in range(2, p) if p % t])
            argv = ["spread", "--p", str(p), "--t", str(t)]
        elif kind == "no_layout":
            argv = ["exists", "--p", str(p)]
        elif kind == "bad_number":
            argv = ["spread", "--p", rng.choice(["six", "1.5", ""]), "--t", "2"]
        elif kind == "bad_poly":
            # x^p + 1 is divisible by x + 1, so never primitive.
            argv = ["spread", "--p", str(p), "--t", "1", "--poly", hex((1 << p) | 1)]
        elif kind == "missing_file":
            argv = ["rank", "--candidates", "@fixture/missing.json"]
        else:
            argv = ["rank", "--candidates", "@fixture/bad_alias.json"]
            defect = "fraction-repeated-letter"
        return s.request("invalid", ("refused", {}), cli=argv, expect=2,
                         known_defect=defect)

    return s.rounds([
        # One full spread per p; no t in 1 < t < 17 divides 17.
        (spread, [(14, 2), (15, 5), (16, 8), (18, 6)]),
        (partial, [3, 4, 5]),
        (mixed, [(13, 7), (14, 8), (15, 8)]),
        (feasible, ["paper", (3, 3), (2, 2, 2)]),
        (rank, range(len(RANK_FILES))),
        # A sweep: each query mode over small, middle and large p.
        (exists, [(mode, band) for mode in ("t", "stages", "oversized")
                  for band in ((4, 7), (8, 11), (12, 16))]),
        (invalid, ["t0", "nondividing", "no_layout", "bad_number",
                   "bad_poly", "missing_file", "bad_alias"]),
    ])


STREAMS = {
    "construct": construct_stream,
    "simulate": simulate_stream,
    "analyze": analyze_stream,
}
