"""Known answers for every distinct request the benchmark sends, and the
seeded serve-mix request stream.

Each expected verdict comes from a claim of the GEM paper (as the README's
"what is verified" list restates it) or from how the request was built.
None was taken from gemcheck's output.
"""

import random

VERIFIED = "verified"
FALSIFIED = "falsified"
ERROR = "error"

# request line -> (expected outcome, source of the answer)
KNOWN = {
    # One-shot workloads.
    "check rw readers=2 writers=1": (
        VERIFIED, "paper sec. 9: the monitor solution satisfies readers priority"),
    "check buffer producers=2 consumers=2": (
        VERIFIED, "paper: the monitor bounded-buffer solution refines the buffer spec"),
    # serve-mix hot set.
    "check rw readers=1 writers=1": (
        VERIFIED, "paper sec. 9: the monitor solution satisfies readers priority"),
    "check rw readers=2 writers=0": (
        VERIFIED, "paper sec. 9: the monitor solution satisfies readers priority"),
    "check rw monitor=no-exclusion readers=1 writers=1": (
        FALSIFIED, "built to fail: StartWrite no longer waits, so writing overlaps reading"),
    "check buffer": (
        VERIFIED, "paper: the monitor one-slot buffer solution refines the buffer spec"),
    "check buffer lang=csp": (
        VERIFIED, "paper: the CSP buffer solution refines the buffer spec"),
    "check buffer lang=ada": (
        VERIFIED, "paper: the ADA buffer solution refines the buffer spec"),
    "check db sites=2": (
        VERIFIED, "paper: the distributed database update never deadlocks and converges"),
    "check life": (
        VERIFIED, "paper: the asynchronous Game of Life matches its synchronous reference"),
    # serve-mix cold instances besides the Life boards below.
    "check rwd lang=ada": (
        VERIFIED, "paper: the ADA Readers/Writers server satisfies readers priority"),
    "check rwd lang=ada broken=true": (
        FALSIFIED, "paper: dropping the priority guard is refuted"),
    "check buffer items=3": (
        VERIFIED, "paper: the monitor buffer solution refines the buffer spec"),
    "check buffer consumers=2": (
        VERIFIED, "paper: the monitor buffer solution refines the buffer spec"),
    # Malformed lines: a typed error reply (code 3) whose message starts so.
    "chek rw readers=1": (ERROR, "parse: unknown verb"),
    'check rw readers="1': (ERROR, "parse: unterminated quoted value"),
    'check rw readers=1 writers=1 restrict="(~false"': (ERROR, "parse: "),
    "check rw readers=one": (ERROR, "readers expects an integer"),
    "check nosuch sites=2": (ERROR, "unknown command"),
}

# Life boards: the blinker on every grid from 2x3 to 5x5 over one to three
# generations (the 4x4, two-generation default is in the hot set).
LIFE_BOARDS = [
    (w, h, g)
    for w in (2, 3, 4, 5) for h in (3, 4, 5) for g in (1, 2, 3)
    if (w, h, g) != (4, 4, 2)
]
for _w, _h, _g in LIFE_BOARDS:
    KNOWN[f"check life width={_w} height={_h} generations={_g}"] = (
        VERIFIED, "paper: the asynchronous Game of Life matches its synchronous reference")

# Restriction variants of the rw 1r1w instance. "~" applied k times to
# "false" is true for odd k and false for even k, and the base instance
# holds (paper sec. 9), so odd k is VERIFIED and even k FALSIFIED. Every k
# renders to a different formula, so every variant has its own cache key.
# The working set is wider than the daemon's default verdict cache (128).
VARIANTS = 200
VARIANT_BASE = "check rw readers=1 writers=1"


def variant(k):
    return f'{VARIANT_BASE} restrict="{"~" * k}false"'


def variant_answer(line):
    prefix, suffix = VARIANT_BASE + ' restrict="', 'false"'
    if not (line.startswith(prefix) and line.endswith(suffix)):
        return None
    tildes = line[len(prefix):-len(suffix)]
    if not tildes or tildes.strip("~") or len(tildes) > VARIANTS:
        return None
    k = len(tildes)
    return (VERIFIED if k % 2 else FALSIFIED,
            f"built: ~ applied {k} times to false")


def expected(line):
    """(outcome, source) for a request line, or None when it is unknown."""
    return KNOWN.get(line) or variant_answer(line)


def judge(line, code, status, error):
    """Check one reply against the table.

    Returns "decided" (a verdict that matches), "undecided" (INCONCLUSIVE
    on a check request), "error-ok" (the expected typed error) or
    "failed" (a wrong verdict, a wrong or missing error, an unknown
    request, an unexpected reply)."""
    answer = expected(line)
    if answer is None:
        return "failed"
    want, detail = answer
    if want == ERROR:
        ok = code == 3 and status is None and (error or "").startswith(detail)
        return "error-ok" if ok else "failed"
    if error is not None:
        return "failed"
    if status == "inconclusive" and code == 2:
        return "undecided"
    if status == want and code == (0 if want == VERIFIED else 1):
        return "decided"
    return "failed"


# --- the serve-mix stream ------------------------------------------------

HOT = [
    "check rw readers=1 writers=1",
    "check rw readers=2 writers=0",
    "check rw monitor=no-exclusion readers=1 writers=1",
    "check buffer",
    "check buffer lang=csp",
    "check buffer lang=ada",
    "check db sites=2",
    "check life",
]
COLD = [f"check life width={w} height={h} generations={g}"
        for w, h, g in LIFE_BOARDS] + [
    "check rwd lang=ada",
    "check rwd lang=ada broken=true",
    "check buffer items=3",
    "check buffer consumers=2",
]
MALFORMED = [line for line, (want, _) in KNOWN.items() if want == ERROR]

# Share of each class in the stream after the warm-up. Sorted by latency
# the classes fall as malformed+hit (fast), variant, cold, so the class
# boundaries sit near 73% and 97%: p50 and p90 stay clear of both.
MIX = (("hit", 0.70), ("variant", 0.24), ("cold", 0.03), ("malformed", 0.03))


def stream(seed, n):
    """The first n (line, class) pairs of the serve-mix stream for seed.

    It opens with each hot request once (class "warmup"), so the hot set
    is cached before measuring starts. Variants and cold instances each
    cycle through one seeded order: a variant comes back only after every
    other variant, long after the cache has evicted it."""
    rng = random.Random(seed)
    warm = rng.sample(HOT, len(HOT))
    variants = rng.sample(range(1, VARIANTS + 1), VARIANTS)
    cold = rng.sample(COLD, len(COLD))
    out = [(line, "warmup") for line in warm[:n]]
    nv = nc = 0
    names = [name for name, _ in MIX]
    weights = [share for _, share in MIX]
    while len(out) < n:
        cls = rng.choices(names, weights)[0]
        if cls == "hit":
            line = rng.choice(HOT)
        elif cls == "variant":
            line = variant(variants[nv % VARIANTS])
            nv += 1
        elif cls == "cold":
            line = cold[nc % len(cold)]
            nc += 1
        else:
            line = rng.choice(MALFORMED)
        out.append((line, cls))
    return out
