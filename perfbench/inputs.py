"""Seeded job lists for the three workloads.

A job is a dict with the CLI arguments (``argv``), the JSON input the
program receives (``input``, or None for ``check`` jobs) and the
expectation computed by ``reference`` from how the input was built.
Nothing here imports acsl.

The cost of a job depends on a few input properties: the coupling k,
the phase exponent e (the program scans roots up to e), whether the
value is zero or undefined, and the lattice size (2|k|)**s.  Those are
laid out on fixed grids, the same for every seed, so that two seeds
give the same cost profile; the seed draws everything else (matrices,
charges, diagrams, signs, which residue inside a stratum).
"""

from __future__ import annotations

import random

import reference as ref

GOLDEN = 0.6180339887498949


def log_grid(count: int, top: int = 100) -> list[int]:
    """count magnitudes spread log-uniformly over 1..top, ends included."""
    return [round(top ** (i / (count - 1))) for i in range(count)]


def exponent_in_stratum(rng: random.Random, i: int, n: int) -> int:
    """A residue mod n at a fixed low-discrepancy fraction, jittered a little."""
    frac = ((i + 1) * GOLDEN + rng.uniform(-0.02, 0.02)) % 1.0
    return min(int(frac * n), n - 1)


def signed(rng: random.Random, magnitude: int) -> int:
    return magnitude * rng.choice((1, -1))


def symmetric(rng: random.Random, n: int, bound: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
    return m


def hit_exponent(linking, charges, j: int, k: int, e: int) -> None:
    """Shift the framing of unit-charge component j so the S^3 exponent is e."""
    n = 4 * abs(k)
    delta = (-ref.sign(k) * e - ref.form(linking, charges)) % n
    if delta > n // 2:
        delta -= n
    linking[j][j] += delta


def matrix_link(rng: random.Random, k: int, e: int, max_components: int = 4, charge: int = 4):
    """Observed link (matrix route) whose S^3 exponent at k is e."""
    n = rng.randint(2, max_components)
    linking = symmetric(rng, n, 3)
    charges = [rng.randint(-charge, charge) for _ in range(n)]
    j = rng.randrange(n)
    charges[j] = rng.choice((1, -1))
    hit_exponent(linking, charges, j, k, e)
    return {"linking": linking, "charges": charges}


# ---------------------------------------------------------------- diagrams


def braid_closure(rng: random.Random, crossings: int):
    """PD code of a random braid closure with its linking data.

    Returns (pd_text, components, pair_linking, writhes).  The braid
    runs upward; sigma_i**+1 puts the strand coming from position i over
    (a positive crossing), sigma_i**-1 puts it under.  Each X(a,b,c,d)
    lists the edges counterclockwise from the incoming under-strand.
    Linking numbers are half the signed count of crossings between two
    components and writhes the signed count of self-crossings, both
    read off the braid word.
    """
    while True:
        strands = rng.randint(2, 5)
        word = [(i, rng.choice((1, -1))) for i in range(strands - 1)]
        word += [(rng.randrange(strands - 1), rng.choice((1, -1))) for _ in range(crossings - len(word))]
        start = list(range(strands))
        cur = list(start)
        fresh = strands
        succ = {}
        xs = []
        for i, sgn in word:
            x, y = cur[i], cur[i + 1]
            x2, y2 = fresh, fresh + 1
            fresh += 2
            succ[x], succ[y] = x2, y2
            # under-strand first, then counterclockwise
            xs.append(((y, x2, y2, x) if sgn > 0 else (x, y, x2, y2), sgn))
            cur[i], cur[i + 1] = y2, x2
        alias = {cur[p]: start[p] for p in range(strands)}
        succ = {e: alias.get(f, f) for e, f in succ.items()}
        xs = [(tuple(alias.get(e, e) for e in x), sgn) for x, sgn in xs]
        label = {}
        components = []
        for p in start:
            if p in label:
                continue
            comp = []
            e = p
            while e not in label:
                label[e] = len(label) + 1
                comp.append(label[e])
                e = succ[e]
            components.append(comp)
        comp_of = {lab: c for c, comp in enumerate(components) for lab in comp}
        n = len(components)
        twice = [[0] * n for _ in range(n)]
        under = [0] * n
        terms = []
        for x, sgn in xs:
            a, b, c, d = (label[e] for e in x)
            terms.append(f"X({a},{b},{c},{d})")
            cu, co = comp_of[a], comp_of[b]
            under[cu] += 1
            twice[cu][co] += sgn
            twice[co][cu] += sgn
        # A component that never runs under has no recoverable orientation.
        if all(under):
            pair = [[twice[i][j] // 2 if i != j else 0 for j in range(n)] for i in range(n)]
            writhes = [twice[i][i] // 2 for i in range(n)]
            return " ".join(terms), components, pair, writhes


def pd_link(rng: random.Random, k: int, e: int, crossings: int):
    """Diagram-route input and its expectation.

    Small couplings use blackboard framing (writhe); larger ones carry
    explicit framings chosen so the exponent is e.
    """
    text, components, pair, writhes = braid_closure(rng, crossings)
    n = len(components)
    charges = [rng.randint(-3, 3) for _ in range(n)]
    j = rng.randrange(n)
    charges[j] = rng.choice((1, -1))
    obj = {"pd": text, "components": components, "charges": charges}
    linking = [row[:] for row in pair]
    if abs(k) <= 10:
        obj["framings"] = "blackboard"
        for i in range(n):
            linking[i][i] = writhes[i]
    else:
        for i in range(n):
            linking[i][i] = rng.randint(-3, 3)
        hit_exponent(linking, charges, j, k, e)
        obj["framings"] = [linking[i][i] for i in range(n)]
    return obj, ref.phase(k, ref.s3_exponent(linking, charges, k))


# ---------------------------------------------------------------- surgery


def surgery_block(rng: random.Random, k: int, s: int, observed: int):
    """Random presentation: s linking-connected surgery components and
    some observed ones, in shuffled order."""
    n = s + observed
    linking = symmetric(rng, n, 2)
    for i in range(1, s):  # a spanning tree keeps the surgery block connected
        p = rng.randrange(i)
        linking[i][p] = linking[p][i] = rng.choice((-2, -1, 1, 2))
    charges = [0] * s + [rng.randint(-2 * abs(k), 2 * abs(k)) for _ in range(observed)]
    roles = ["surgery"] * s + ["observed"] * observed
    return permuted(rng, {"linking": linking, "charges": charges, "roles": roles})


def permuted(rng: random.Random, obj: dict) -> dict:
    order = list(range(len(obj["roles"])))
    rng.shuffle(order)
    return {
        "linking": [[obj["linking"][i][j] for j in order] for i in order],
        "charges": [obj["charges"][i] for i in order],
        "roles": [obj["roles"][i] for i in order],
    }


def with_surgery(observed: list[list[int]], charges, columns) -> dict:
    """Append 0-framed, mutually unlinked surgery components."""
    n, extra = len(observed), len(columns)
    linking = [row + [col[i] for col in columns] for i, row in enumerate(observed)]
    linking += [[col[i] for i in range(n)] + [0] * extra for col in columns]
    return {
        "linking": linking,
        "charges": list(charges) + [0] * extra,
        "roles": ["observed"] * n + ["surgery"] * extra,
    }


def torus_presentation(rng: random.Random, k: int, genus: int, zero: bool):
    """S^1 x S^2 (genus 0, one 0-framed unknot) or the 3-torus (genus 1,
    three 0-framed unlinked components), with the closed-form answer."""
    m = 2 * abs(k)
    gens = 2 * genus + 1
    n = rng.randint(1, 3 - genus)
    observed = symmetric(rng, n, 3)
    charges = [rng.randint(-m - 2, m + 2) for _ in range(n)]
    charges[0] = 1
    columns = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(gens)]
    targets = [m * rng.randint(-2, 2) for _ in range(gens)]
    if zero:
        targets[rng.randrange(gens)] += rng.randint(1, m - 1)
    for col, target in zip(columns, targets):
        col[0] = target - sum(q * c for q, c in zip(charges[1:], col[1:]))
    obj = permuted(rng, with_surgery(observed, charges, columns))
    return obj, ref.gate(targets, ref.form(observed, charges), k)


def blow_up(obj: dict, framing: int) -> dict:
    n = len(obj["roles"])
    return {
        "linking": [row + [0] for row in obj["linking"]] + [[0] * n + [framing]],
        "charges": obj["charges"] + [0],
        "roles": obj["roles"] + ["surgery"],
    }


def slide(obj: dict, i: int, j: int, sgn: int) -> dict:
    """Slide component i over surgery component j."""
    linking = [row[:] for row in obj["linking"]]
    old = obj["linking"]
    for c in range(len(old)):
        if c != i:
            linking[i][c] = linking[c][i] = old[i][c] + sgn * old[j][c]
    linking[i][i] = old[i][i] + 2 * sgn * old[i][j] + old[j][j]
    return {"linking": linking, "charges": list(obj["charges"]), "roles": list(obj["roles"])}


def kirby_twin(rng: random.Random, obj: dict, blow: bool) -> dict:
    """Same 3-manifold and link after handle slides and maybe a blow-up."""
    twin = obj
    surgery = [i for i, r in enumerate(obj["roles"]) if r == "surgery"]
    for _ in range(2):
        j = rng.choice(surgery)
        i = rng.choice([c for c in range(len(obj["roles"])) if c != j])
        twin = slide(twin, i, j, rng.choice((1, -1)))
    if blow:
        twin = blow_up(twin, rng.choice((1, -1)))
    return permuted(rng, twin)


def surgery_of_class(rng: random.Random, k: int, s: int, outcome: str, observed: int = 2):
    """Draw random presentations until the reference outcome is the one
    asked for ('phase', 'zero' or 'undefined')."""
    for _ in range(400):
        obj = surgery_block(rng, k, s, observed)
        exp = ref.surgery(obj, k)
        got = "undefined" if exp["exit"] == 3 else "zero" if exp["e"] is None else "phase"
        if got == outcome:
            return obj, exp
    raise RuntimeError(f"no {outcome} presentation found at k={k}, s={s}")


def file_job(argv: list[str], obj: dict, exp: dict) -> dict:
    return {"argv": argv, "input": obj, "expect": exp}


# ---------------------------------------------------------------- workloads

# (|k|, s, outcome) cells of the surgery sweep: lattices of 10^3 to 5*10^4
# terms, six and seven components at k=+-1, and cheap one- and
# two-component cells.
SWEEP_CELLS = [
    (1, 7, "phase"), (1, 6, "undefined"), (2, 5, "phase"), (2, 6, "phase"),
    (2, 6, "zero"), (3, 4, "undefined"), (3, 5, "phase"), (3, 6, "phase"),
    (4, 4, "zero"), (4, 5, "phase"), (5, 3, "phase"), (5, 4, "phase"),
    (6, 3, "undefined"), (6, 4, "phase"), (7, 3, "zero"), (7, 4, "phase"),
    (8, 3, "phase"), (9, 3, "phase"), (10, 3, "phase"), (10, 2, "zero"),
    (8, 2, "phase"), (9, 1, "phase"),
]
# cells whose Kirby twins (two slides, and a blow-up when marked) are run too
TWIN_CELLS = [(2, 5, True), (3, 4, True), (5, 3, True), (6, 3, False), (4, 4, False), (7, 3, True)]


def surgery_sweep(seed: int) -> list[dict]:
    rng = random.Random(seed)
    jobs = []
    for _ in range(3):
        for mag, s, outcome in SWEEP_CELLS:
            k = signed(rng, mag)
            obj, exp = surgery_of_class(rng, k, s, outcome)
            jobs.append(file_job(["surgery", "--k", str(k)], obj, exp))
    for _ in range(2):
        for mag, s, blow in TWIN_CELLS:
            k = signed(rng, mag)
            obj, exp = surgery_of_class(rng, k, s, "undefined" if mag == 6 else "phase")
            twin = kirby_twin(rng, obj, blow)
            jobs.append(file_job(["surgery", "--k", str(k)], obj, exp))
            jobs.append(file_job(["surgery", "--k", str(k)], twin, exp))
    for i, mag in enumerate((1, 3, 5, 7, 10, 2, 4, 6, 8, 9, 3, 5)):
        k = signed(rng, mag)
        genus = i % 2 if mag <= 7 else 0
        obj, exp = torus_presentation(rng, k, genus, zero=i % 3 == 0)
        jobs.append(file_job(["surgery", "--k", str(k)], obj, exp))
    return jobs


# (|k|, s, outcome): lattices of at most a few thousand terms
ONESHOT_SURGERY = [
    (3, 4, "phase"), (5, 3, "zero"), (2, 5, "undefined"), (8, 3, "phase"),
    (1, 6, "phase"), (4, 3, "undefined"), (6, 3, "phase"), (10, 2, "zero"),
]


def cli_oneshot(seed: int) -> list[dict]:
    rng = random.Random(seed)
    jobs = []
    for i, mag in enumerate(log_grid(24)):
        k = signed(rng, mag)
        obj = matrix_link(rng, k, exponent_in_stratum(rng, i, 4 * mag))
        exp = ref.phase(k, ref.s3_exponent(obj["linking"], obj["charges"], k))
        jobs.append(file_job(["s3", "--k", str(k)], obj, exp))
    for i, mag in enumerate(log_grid(20)):
        k = signed(rng, mag)
        obj, exp = pd_link(rng, k, exponent_in_stratum(rng, i + 3, 4 * mag), rng.randint(150, 400))
        jobs.append(file_job(["s3", "--k", str(k)], obj, exp))
    for i, mag in enumerate(log_grid(16)):
        k = signed(rng, mag)
        obj = matrix_link(rng, k, exponent_in_stratum(rng, i + 5, 4 * mag), max_components=3, charge=5)
        exp = ref.phase(k, ref.s3_exponent(obj["linking"], obj["charges"], k))
        jobs.append(file_job(["satellite", "--k", str(k)], obj, exp))
    # Half of the homology jobs are zero through the mod 2|k| gate: every
    # other point of a 16-point grid, so that the costly large-k jobs
    # spread over more magnitudes instead of bunching at two of them.
    for command, genus_range in (("s1xs2", (0, 0)), ("s1xsigma", (1, 3))):
        for i, mag in enumerate(log_grid(16)):
            zero = i % 2 == 1
            k = signed(rng, mag)
            m, n = 2 * mag, 4 * mag
            genus = rng.randint(*genus_range)
            pairings = [m * rng.randint(-3, 3) for _ in range(2 * genus + 1)]
            if zero:
                pairings[rng.randrange(len(pairings))] += rng.randint(1, m - 1)
            e = exponent_in_stratum(rng, i + 7, n)
            self_form = -ref.sign(k) * e + n * rng.randint(-2, 2)
            obj = {"genus": genus, "N": pairings, "q_self": self_form}
            jobs.append(file_job([command, "--k", str(k)], obj, ref.gate(pairings, self_form, k)))
    for mag, s, outcome in ONESHOT_SURGERY:
        k = signed(rng, mag)
        obj, exp = surgery_of_class(rng, k, s, outcome)
        jobs.append(file_job(["surgery", "--k", str(k)], obj, exp))
    return jobs



SUITE_TRIALS = {"periodicity": 200, "satellite": 100, "kirby": 30, "manifolds": 60}
SUITE_COUPLINGS = (1, 2, 3, -2)


def check_suites(seed: int, per_cell: int = 7) -> list[dict]:
    rng = random.Random(seed)
    jobs = []
    for suite, trials in SUITE_TRIALS.items():
        for k in SUITE_COUPLINGS:
            for _ in range(per_cell):
                s = rng.randrange(2**31)
                argv = ["check", "--suite", suite, "--trials", str(trials), "--seed", str(s), "--k", str(k)]
                exp = {"suite": suite, "trials": trials, "seed": s, "k": k}
                jobs.append({"argv": argv, "input": None, "expect": exp})
    return jobs


WORKLOADS = {
    "cli-oneshot": cli_oneshot,
    "surgery-sweep": surgery_sweep,
    "check-suites": check_suites,
}

# One trivial job per workload: the set-up probe answered by a fresh process.
PROBES = {
    "cli-oneshot": (["s3", "--k", "1"], {"linking": [[0, 1], [1, 0]], "charges": [1, 1]}, ref.phase(1, 2)),
    "surgery-sweep": (
        ["surgery", "--k", "1"],
        {"linking": [[0, 1], [1, 0]], "charges": [1, 0], "roles": ["observed", "surgery"]},
        ref.gate([1], 0, 1),
    ),
    "check-suites": (
        ["check", "--suite", "periodicity", "--trials", "1", "--seed", "0", "--k", "1"],
        None,
        {"suite": "periodicity", "trials": 1, "seed": 0, "k": 1},
    ),
}


def probe(workload: str) -> dict:
    argv, obj, exp = PROBES[workload]
    return {"argv": argv, "input": obj, "expect": exp}
